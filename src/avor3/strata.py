"""Stratum-by-stratum cohomology of the compactified moduli space.

The second Voronoi compactification of the moduli space of principally
polarized abelian threefolds is stratified by the torus rank of the
degenerating semi-abelian variety: the open part (rank 0), a Kummer-type
family over the abelian surface moduli (rank 1), a locus mixing a
C*-bundle piece with products of elliptic curves (rank 2), and the fully
degenerate locus assembled from torus-orbit strata of the fan (rank 3).
Each pipeline here produces a table of compactly supported cohomology
with its Tate-type decomposition; the four tables feed a first-quadrant
page whose resolved limit gives the Betti numbers.

Strata are glued one way: `_column_page` lays tables out as the first page
of a stratification spectral sequence of compactly supported cohomology
(D. Petersen, Geom. Topol. 21, 2017), closed strata in the low columns, and
`resolve` runs it.  The main page glues the four loci; inside the rank-2
locus a two-column page glues the product piece (closed) to the bundle
piece (open).

Fibred pieces are spread over their bases one way too: `leray_assemble`
lays fiber items over base tables as a Leray page.  The Kummer family and
the C*-bundle resolve theirs; the product piece reads its page off as it
is, since the Leray sequence of a product degenerates (Kunneth).

`STRATUM_NAMES` is the one list of strata, in torus-rank order, and
`locus(name, registry)` the one dispatch from a name to its pipeline.
`compactification_betti` runs each locus once, in column order of the main
page, and returns every intermediate result in one `BettiResult`, which
`betti` prints from; `avor3.verify` computes the loci itself, so that a
broken locus fails only the checks that read it or the whole result.
"""

from __future__ import annotations

from collections import namedtuple

from . import Avor3Error, InputError
from .equivariant import LinearRep, exterior_invariant_dims, h1_pullback
from .fan import classify_orbits, stratum_character_lattice
from .mhs import CohomologyTable, MhsVector
from .registry import Registry
from .ssengine import SSPage, abutment, leray_assemble, resolve

# index = torus rank; column p of the main page holds the rank-(3 - p) locus
STRATUM_NAMES = ("a3", "beta1", "beta2", "beta3")

COMPACTIFICATION_DIMENSION = 6


class InvariantNotConcentrated(Avor3Error):
    """A symmetry group leaves more cohomology than the pipeline assumes."""


class ExpectedPageMismatch(Avor3Error):
    """A freshly assembled page disagrees with the stored cross-check copy."""


# Results are immutable tuple records (namedtuples).  A StratumContribution
# is one torus-orbit stratum's class: which cone, and where it lands;
# BettiResult.loci maps each stratum name to the result of its `locus`.
StratumContribution = namedtuple("StratumContribution",
                                 "cone_name cone_dim stratum_dim degree")
RankThreeResult = namedtuple("RankThreeResult", "table contributions")
FibrationResult = namedtuple("FibrationResult", "page limit table report")
RankTwoResult = namedtuple("RankTwoResult",
                           "page torus_table product_table table report")
BettiResult = namedtuple("BettiResult", "page limit table betti report loci")


def _cross_check(page, stored, what):
    """ExpectedPageMismatch unless the assembled `page` has the entries of
    the `stored` page; no check when `stored` is None."""
    if stored is not None and stored.entries != page.entries:
        raise ExpectedPageMismatch("assembled %s differs from the stored cross-check" % what)


def _column_page(tables, label, proper=False):
    """First page of a stratification sequence: column p holds `tables[p]`,
    a class of degree d at (p, d - p), so d_1 maps degree d of column p to
    degree d + 1 of column p + 1.  `proper` enforces purity of the limit."""
    entries = (((p, d - p), v) for p, table in enumerate(tables) for d, v in table.entries)
    return SSPage(1, entries, (), proper, label)


def rank_three_locus() -> RankThreeResult:
    """Classes of the fully degenerate locus, one per torus-orbit stratum.

    Strata correspond to fan orbits whose generators span all of space
    (cusp rank 3); the quotient of each orbit torus by its stabilizer must
    carry no cohomology beyond degree zero, so each stratum of complex
    dimension m contributes a single Tate class Q(-m) in degree 2m.
    """
    classes = []
    contributions = []
    for cone_dim in range(3, 7):
        census = classify_orbits(cone_dim)
        for orbit in census.orbits:
            cone = orbit.representative
            if cone.cusp_rank() != 3:
                continue
            lattice = stratum_character_lattice(cone)
            m = len(lattice.basis)
            if m != COMPACTIFICATION_DIMENSION - cone_dim:
                raise AssertionError("character lattice dimension mismatch")
            dims = exterior_invariant_dims(LinearRep(m, lattice.effective))
            if dims != (1,) + (0,) * m:
                raise InvariantNotConcentrated(
                    "stratum of %s has stabilizer invariants %r" % (cone.name(), dims))
            classes.append((2 * m, MhsVector.tate(m)))
            contributions.append(
                StratumContribution(cone.name(), cone_dim, m, 2 * m))
    table = CohomologyTable("beta3", classes)
    return RankThreeResult(table, tuple(contributions))


def rank_one_locus(registry: Registry) -> FibrationResult:
    """Kummer-type family over the abelian surface moduli."""
    page = leray_assemble(registry.base_tables(), registry.fiber("kummer_fiber"),
                          label="beta1")
    _cross_check(page, registry.pages.get("kummer_e2_expected"), "rank-1 page")
    limit, report = resolve(page)
    table = abutment(limit, "beta1")
    return FibrationResult(page, limit, table, report)


def product_symmetry_generators():
    """Base automorphisms of the square of an elliptic curve used here:
    swap the factors, negation, and the shear (x, y) -> (x + y, -y)."""
    return (((0, 1), (1, 0)), ((-1, 0), (0, -1)), ((1, 1), (0, -1)))


def product_symmetry_rep() -> LinearRep:
    return LinearRep(4, tuple(h1_pullback(b) for b in product_symmetry_generators()))


def invariant_fiber_table(rep: LinearRep, label: str) -> CohomologyTable:
    """Invariant cohomology of an abelian-surface fiber under a finite group.

    Degree-k classes live in the k-th exterior power of H^1 and have pure
    weight k; surviving invariants here are classes of algebraic cycles,
    hence Tate of type Q(-k/2).  Odd-degree invariants would break that
    reading, so they are rejected.
    """
    dims = exterior_invariant_dims(rep)
    if any(mult and k % 2 for k, mult in enumerate(dims)):
        raise InvariantNotConcentrated(
            "odd-degree invariants %r do not form a Tate-type table" % (dims,))
    return CohomologyTable(label, tuple((k, MhsVector.tate(k // 2, mult))
                                        for k, mult in enumerate(dims)))


def rank_two_locus(registry: Registry) -> RankTwoResult:
    """Rank-2 locus: C*-bundle piece plus the elliptic-product piece.

    The bundle piece is a fibration whose page carries one externally
    known differential rank; the product piece is the invariant fiber
    cohomology of the symmetrized elliptic square spread over the modular
    line: each Q(-n) of fiber degree k is the item (k, "modular_line", n) of
    a Leray page, whose abutment is taken without resolving, as the family
    is a product and its Leray sequence degenerates (Kunneth).  The fiber
    has Q(-1) in degree 2, so an F in the modular line raises
    UnsupportedTwist.  The two are glued on a two-column page, the product
    piece closed (column 0) and the bundle piece open (column 1); a
    connecting map that the weights do not force to vanish leaves it
    AmbiguousResolution.
    """
    stored = registry.page("cstar_bundle_e2")
    known = registry.known("cstar_bundle_d2")
    try:
        page = leray_assemble(registry.base_tables(), registry.fiber("cstar_fiber"),
                              label=stored.label, knowns=(known,))
    except InputError as exc:  # the page's first known is this registry field
        raise InputError("knowns.cstar_bundle_d2", exc.args[1]) from None
    _cross_check(page, stored, "rank-2 bundle page")
    limit, report = resolve(page)
    torus_table = abutment(limit, "beta2_bundle")
    base = {"modular_line": registry.table("modular_line").table}
    fiber = invariant_fiber_table(product_symmetry_rep(), "product_fiber_invariants")
    items = [(k, "modular_line", n) for k, v in fiber.entries for n in v.tates]
    product_table = abutment(leray_assemble(base, items), "beta2_products")
    split, _ = resolve(_column_page((product_table, torus_table), "beta2"))
    table = abutment(split)
    return RankTwoResult(page, torus_table, product_table, table, report)


def locus(name: str, registry: Registry):
    """The result of one stratum's pipeline; its `.table` is the stratum's
    table.  The open part is the registry's `a3_open` entry, relabelled."""
    if name == "a3":
        found = registry.table("a3_open")
        return found._replace(table=found.table._replace(label=name))
    if name == "beta1":
        return rank_one_locus(registry)
    if name == "beta2":
        return rank_two_locus(registry)
    if name == "beta3":
        return rank_three_locus()
    raise ValueError("unknown stratum %r; expected one of %s"
                     % (name, ", ".join(STRATUM_NAMES)))


def main_first_page(loci: dict, registry: Registry) -> SSPage:
    """First page of the stratification sequence for the whole space.

    `loci` maps each stratum name to its `locus` result.  Column p holds the
    rank-(3-p) locus: a class of degree d in that locus's table sits at
    position (p, d - p).  The abutment is the cohomology of the compact
    space, so purity of the limit is enforced.
    """
    page = _column_page([loci[name].table for name in reversed(STRATUM_NAMES)], "main",
                        proper=True)
    _cross_check(page, registry.pages.get("main_e1_expected"), "first page")
    return page


def compactification_betti(registry: Registry, loci: dict | None = None) -> BettiResult:
    """Betti numbers of the compactification from the resolved main page,
    with every locus result the computation went through.

    Each locus runs once, in column order, unless `loci` already maps every
    stratum name to its `locus` result; the first locus error propagates.
    """
    if loci is None:
        loci = {name: locus(name, registry) for name in reversed(STRATUM_NAMES)}
    page = main_first_page(loci, registry)
    limit, report = resolve(page)
    table = abutment(limit, "avor3")
    betti = table.betti(2 * COMPACTIFICATION_DIMENSION)
    return BettiResult(page, limit, table, betti, report, loci)
