"""Cones of the genus-3 second Voronoi fan and their GL(3,Z) symmetries.

The basic 6-dimensional cone is spanned by the six rank-one forms
x1^2, x2^2, x3^2, (x2-x3)^2, (x1-x3)^2, (x1-x2)^2 (named a1..a3, b1..b3);
its faces are exactly the subsets of these generators.  `SIGMA6` is its one
value: cone names, the census, the stratum tori and the dual characters all
read it, and a name is found by its generator's position in it.  Two faces
are equivalent when some g in GL(3,Z) maps one generator set onto the other
under q |-> g q g^T, i.e. when the primitive generator lines match up to
sign under v |-> g v.

Equivalence is decided exactly, in integers, for every span rank r of the
generator vectors, by one search and nothing else.  Hermite forms move both
saturated spans onto Z^r x 0 (each cone's frame, `Cone.frame`, is computed
once per cone, and its r is the cusp rank); each span is a direct summand of
Z^3, so every GL(r,Z) map between them extends to GL(3,Z), and a map is
pinned by the images of r independent vectors.  Trying every signed
assignment of those images is therefore a complete search: a found map is
itself the group element, re-verified as a witness, and exhausting the
search proves inequivalence.  A candidate is kept when it is integral and
unimodular and puts every other vector on a target line; being unimodular it
is injective on lines, so it matches the two line sets exactly.  Stabilizers
are finite only when r = 3.

The orbit census starts from the basic cone's own stabilizer, S4 x {+-1} of
order 48 (the perfect form A3 = D3).  Its elements permute the six
generators, so faces one of them maps onto each other are equivalent, and
they share a class without a search.  Only the first face of each such
stabilizer orbit is compared with the class representatives, so the census
of dimensions 0..6 calls `equivalent` 4 times instead of 62.  The result is
exact: stabilizer orbits lie inside GL(3,Z) orbits, and `equivalent` still
decides every merge between them.

Cones, equivalence results, orbit censuses, stabilizers and character
lattices are immutable tuple records (namedtuples); only cones and
equivalence results add methods.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, lru_cache
from itertools import combinations, permutations, product

from . import Avor3Error, Checked, InputError, linalg
from .forms import (
    GroupElement,
    act_on_form,
    dual_action_on_characters,
    pairing,
    rank1_form,
    rank1_vector,
)

GENERATOR_NAMES = ("a1", "a2", "a3", "b1", "b2", "b3")


class SpanDeficient(Avor3Error):
    """The operation needs generator vectors spanning R^3."""


class Cone(Checked, namedtuple("Cone", "generators")):
    """A face of the fan, given by a tuple of independent rank-one forms.

    The generators' primitive vectors, and the frame of their span once it
    is read, are kept on the instance, not as fields, so equality, hash and
    repr ignore them.
    """

    def __new__(cls, generators):
        gens = tuple(generators)
        vectors = tuple(rank1_vector(q) for q in gens)
        if len(set(gens)) != len(gens):
            raise ValueError("repeated generator")
        if linalg.rank(gens) != len(gens):
            raise ValueError("generators are not linearly independent")
        self = super().__new__(cls, gens)
        self._vectors = vectors
        return self

    @classmethod
    def from_names(cls, text):
        text = text.strip()
        if text in ("", "0"):
            return cls(())
        names = [t.strip() for t in text.split(",")]
        for n in names:
            if n not in GENERATOR_NAMES:
                raise InputError("", "unknown generator %r (use a1..a3, b1..b3)" % n)
        ordered = sorted({GENERATOR_NAMES.index(n) for n in names})
        if len(ordered) != len(names):
            raise InputError("", "repeated generator in %r" % text)
        return cls(tuple(SIGMA6.generators[i] for i in ordered))

    def name(self):
        """The names of the generators, by their positions in SIGMA6, joined by
        commas; "0" for the zero cone, "<cone dim d>" off the basic cone."""
        if not self.generators:
            return "0"
        if set(self.generators).issubset(SIGMA6.generators):
            return ",".join(GENERATOR_NAMES[SIGMA6.generators.index(q)] for q in self.generators)
        return "<cone dim %d>" % self.dim()

    def dim(self):
        return len(self.generators)

    @cached_property
    def frame(self):
        """(u, r, coords): the frame that moves the saturated span of the
        generator vectors onto Z^r x 0.

        u is the GroupElement with every u v in Z^r x 0, r the span rank and
        coords the first r coordinates of each u v, in generator order.  u
        comes from the row Hermite form of the 3 x n matrix whose columns are
        the vectors, so the empty cone has the frame (I, 0, ()).  Tuples
        throughout, so nothing cached can be mutated.
        """
        h, u = linalg.hermite_form([[v[i] for v in self._vectors] for i in range(3)])
        r = sum(1 for row in h if any(row))
        return GroupElement(u), r, tuple(zip(*h[:r]))

    def cusp_rank(self):
        """Rank of the sum of the generators v v^T, which is the rank of the v:
        the span rank r of the frame."""
        return self.frame[1]

    def faces(self, dim):
        return [Cone(sub) for sub in combinations(self.generators, dim)]


# the basic cone: its generators, named by GENERATOR_NAMES in this order, are
# x1^2, x2^2, x3^2, (x2-x3)^2, (x1-x3)^2, (x1-x2)^2
SIGMA6 = Cone(map(rank1_form, ((1, 0, 0), (0, 1, 0), (0, 0, 1),
                               (0, 1, -1), (1, 0, -1), (1, -1, 0))))


class EquivalenceResult(namedtuple("EquivalenceResult", "witness verdict")):
    """The witness (a GroupElement, or None) and the verdict, "equivalent"
    or "inequivalent"; true exactly when equivalent."""

    __slots__ = ()

    def __bool__(self):
        return self.verdict == "equivalent"


def _line_maps(source, target):
    """Yield each GroupElement h mapping the lines of cone `source` onto `target`'s.

    With u_S, u_T from the frames of the two cones (`Cone.frame`, computed
    once per cone), any such map carries the saturated source span onto the
    saturated target span, so u_T h u_S^-1 restricts to some M in GL(r,Z)
    matching the projected lines.  Both spans are direct summands of Z^3, so
    every such M extends, for instance to h = u_T^-1 diag(M, I) u_S, a
    GroupElement product.  M is pinned by the images of the r independent
    source vectors at the Hermite pivot columns, and every signed, ordered
    r-tuple of target vectors is tried as those images, so the search is
    complete: it yields one h per M, which for r = 3 is every map.

    M and -M come in pairs: -M passes every check below exactly when M does.
    So only tuples whose first image keeps the sign of its target vector are
    tested, and each M that passes is yielded together with its partner -M,
    whose h has the block diag(-M, I) (for r = 3, h becomes -h).  The
    partner of a tuple with the first sign flipped has the same vectors and
    comes earlier in the signed enumeration, so the first map yielded and
    the multiset of all maps are those of testing every signed tuple.

    With V the pivot columns and d = det V, a candidate P (the tuple as
    columns) gives M = P adj(V) / d, so a non-pivot source vector s goes to
    P x_s / d with x_s = adj(V) s computed once.  The checks run in this
    order, and a candidate stops at its first failure:

    1. the line test: each P x_s is divisible by d and P x_s / d lies on a
       target line (necessary for an integral M mapping lines to lines, so
       no map is lost);
    2. M is integral;
    3. |det M| = 1.

    A candidate passing all three maps the source lines exactly onto the
    target lines: the pivot vectors go to the picks, since M V = P; the
    line test puts every other source vector on a target line; |det M| = 1
    makes M injective on lines; and source and target have equally many
    lines, all distinct (a cone's generators are distinct forms), so it is
    onto.  Callers re-verify what they keep: `equivalent` checks its witness
    on the forms and `stabilizer` checks closure under inverse.
    """
    u_s, r, src = source.frame
    u_t, r_t, tgt = target.frame
    if r != r_t or len(src) != len(tgt):
        return
    # the Hermite pivot columns form an upper triangular, nonsingular V
    pivots = [next(c for c, v in enumerate(src) if v[i]) for i in range(r)]
    vmat = [[src[c][i] for c in pivots] for i in range(r)]
    adj = linalg.adjugate(vmat)
    d = linalg.det(vmat)
    xs = [linalg.mat_vec(adj, s) for c, s in enumerate(src) if c not in pivots]
    signed = [(t, tuple(-x for x in t)) for t in tgt]
    lines = {v for pair in signed for v in pair}
    u_t_inv = u_t.inverse()
    for chosen in permutations(signed, r):
        for signs in product((0, 1), repeat=r - 1):
            picks = [chosen[0][0]] + [pair[s] for pair, s in zip(chosen[1:], signs)]
            if not _images_on_lines(list(zip(*picks)), xs, d, lines):
                continue
            num = [[sum(picks[c][i] * adj[c][j] for c in range(r))
                    for j in range(r)] for i in range(r)]
            if any(x % d for row in num for x in row):
                continue
            m = [[x // d for x in row] for row in num]
            if abs(linalg.det(m)) != 1:
                continue
            for sign in (1, -1):
                block = [[(sign * m[i][j] if i < r and j < r else int(i == j))
                          for j in range(3)] for i in range(3)]
                yield u_t_inv * GroupElement(block) * u_s


def _images_on_lines(rows, xs, d, lines):
    """Whether P x is divisible by d and P x / d is in `lines` for every x in xs.

    `rows` are the rows of P.
    """
    for x in xs:
        w = linalg.mat_vec(rows, x)
        if any(v % d for v in w) or tuple(v // d for v in w) not in lines:
            return False
    return True


def equivalent(c1: Cone, c2: Cone) -> EquivalenceResult:
    """Decide whether some g in GL(3,Z) has g . c1 = c2.

    The complete line-map search alone decides: the verdict is "equivalent"
    with the first map found, re-verified as the witness, or "inequivalent"
    when the search is exhausted.  It yields nothing for cones whose
    generator counts or span ranks differ.
    """
    if c1.dim() == 0 or c2.dim() == 0:
        witness = GroupElement.identity() if c1.dim() == c2.dim() else None
    else:
        witness = next(_line_maps(c1, c2), None)
        if witness is not None and ({act_on_form(witness, q) for q in c1.generators}
                                    != set(c2.generators)):
            raise AssertionError("witness failed re-verification")
    return EquivalenceResult(witness, "inequivalent" if witness is None else "equivalent")


OrbitClass = namedtuple("OrbitClass", "representative size cusp_rank")
OrbitCensus = namedtuple("OrbitCensus", "dimension orbits")


def _one_per_sign(elements):
    """Of each pair +-g, the one with first nonzero entry positive (+-g act alike)."""
    return [g for g in elements if next(x for x in g.rows[0] if x) > 0]


@lru_cache(maxsize=None)
def _generator_permutations():
    """The permutations of the generator indices 0..5 induced by stabilizer(SIGMA6).

    g sends generator i to the index of act_on_form(g, q_i); +-g induce the
    same permutation, so `_one_per_sign` reads one of each pair, and each
    permutation appears once, in sorted order.
    """
    forms = SIGMA6.generators
    index = {q: i for i, q in enumerate(forms)}
    perms = set()
    for g in _one_per_sign(stabilizer(SIGMA6).elements):
        images = tuple(index.get(act_on_form(g, q)) for q in forms)
        if set(images) != set(range(len(forms))):
            raise AssertionError("stabilizer element does not permute the generators")
        perms.add(images)
    return tuple(sorted(perms))


@lru_cache(maxsize=None)
def classify_orbits(dim) -> OrbitCensus:
    """Group the dimension-`dim` faces of the basic cone into GL(3,Z) orbits.

    Faces are scanned in subset order, so each orbit's representative is its
    first (lexicographically least) face.  The stabilizer of the basic cone
    permutes its generators, so it maps faces to equivalent faces: a face
    reached from an earlier face by one of those permutations joins that
    face's class without a search.  Only the first face of each stabilizer
    orbit is compared, by `equivalent`, with the class representatives.
    Stabilizer orbits lie inside GL(3,Z) orbits, and `equivalent` decides
    every merge of them, so the census is the one of comparing every face.
    A lone face (dimensions 0, 6) needs no permutations and no stabilizer.
    """
    faces = list(zip(combinations(range(SIGMA6.dim()), dim), SIGMA6.faces(dim)))
    perms = _generator_permutations() if len(faces) > 1 else ()
    class_of = {}  # index subset -> position in classes
    classes = []  # [representative, member count]
    for subset, face in faces:
        k = class_of.get(subset)
        if k is None:
            k = next((n for n, (rep, _) in enumerate(classes) if equivalent(face, rep)),
                     len(classes))
            if k == len(classes):
                classes.append([face, 0])
            for p in perms:
                class_of[tuple(sorted(p[i] for i in subset))] = k
        classes[k][1] += 1
    orbits = tuple(OrbitClass(rep, size, rep.cusp_rank()) for rep, size in classes)
    return OrbitCensus(dim, orbits)


# the full GL(3,Z) setwise stabilizer of a cone, a finite matrix group
StabilizerGroup = namedtuple("StabilizerGroup", "cone elements")


@lru_cache(maxsize=None)
def stabilizer(c: Cone) -> StabilizerGroup:
    """All g in GL(3,Z) with g . c = c; needs the generator vectors to span R^3."""
    if c.cusp_rank() != 3:
        raise SpanDeficient(
            "stabilizer of %s is infinite: generator vectors span rank %d < 3"
            % (c.name(), c.cusp_rank()))
    elements = sorted(_line_maps(c, c))
    group = StabilizerGroup(c, tuple(elements))
    eset = set(group.elements)
    for g in group.elements:
        if g.inverse() not in eset:
            raise AssertionError("stabilizer not closed under inverse")
    return group


CharacterLattice = namedtuple("CharacterLattice", "cone basis effective")


@lru_cache(maxsize=None)
def stratum_character_lattice(c: Cone) -> CharacterLattice:
    """The characters of the big torus that restrict to the torus factor of
    the stratum of face c, as CharacterLattice(c, basis, effective).

    The six generators q_j form a Z-basis of the form lattice, so their dual
    characters f_j (`torus_coordinates`) form a Z-basis of the characters:
    each character x is the sum of pairing(q_j, x) f_j.  So the characters
    pairing to zero with a face are exactly the span of the f_j with q_j
    outside it.  `basis` is lead_positive(f_j) = e_j f_j (e_j = +-1) for
    those j, in generator order; `effective`, the (deduplicated) image of the
    cone's stabilizer, holds matrices by columns with entry (i, j) equal to
    e_i pairing(q_i, g . b_j).  Only faces of the basic cone have this basis.
    The lattice has rank len(basis), and the effective action has order
    len(effective).
    """
    if not set(c.generators).issubset(SIGMA6.generators):
        raise ValueError("%s is not a face of the basic cone" % c.name())
    stab = stabilizer(c)
    duals = zip(SIGMA6.generators, torus_coordinates())
    outside = [(q, linalg.lead_positive(f)) for q, f in duals if q not in c.generators]
    basis = tuple(b for _, b in outside)
    coords = [(q, pairing(q, b)) for q, b in outside]
    seen = set()
    for g in _one_per_sign(stab.elements):
        images = dual_action_on_characters(g, basis)
        if any(pairing(q, x) for q in c.generators for x in images):
            raise AssertionError("stabilizer does not preserve the character sublattice")
        seen.add(tuple(tuple(e * pairing(q, x) for x in images) for q, e in coords))
    return CharacterLattice(c, basis, tuple(sorted(seen)))


@lru_cache(maxsize=None)
def torus_coordinates():
    """The six exponent tuples dual to the generators of SIGMA6 under the pairing.

    They are the columns of m^-1 for the rows m of generator coefficients (a
    form is its coefficient tuple): m is unimodular exactly when its Hermite
    form u m is I, and then u = m^-1.
    """
    h, u = linalg.hermite_form(SIGMA6.generators)
    if h != linalg.identity(6):
        raise AssertionError("generator coefficient matrix is not unimodular")
    return tuple(zip(*u))
