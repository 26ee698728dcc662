"""Named verification checks, one per acceptance criterion.

Each check takes `pipeline` and returns (ok, detail).  `pipeline(name)`
returns the `strata.locus` result of one stratum, and `pipeline()` the one
`strata.BettiResult` of the registry; each raises the error its
computation raised instead.  `run_all` computes each locus once, and the
whole result once when every locus succeeds, before the checks, and
shares them: the seven checks that read them compare loci, tables and
pages against independently frozen expectations, and the five fan- and
group-only checks never call `pipeline`.  Every check runs under exception
capture, so a locus error fails only the checks that read that locus or
the whole result, and no failure hides the others.
"""

from __future__ import annotations

import random
from math import gcd, lcm

from . import linalg, strata
from .equivariant import (LinearRep, element_order, exterior_invariant_dims,
                          fixed_subspace_dims_bruteforce, group_closure,
                          order_histogram)
from .fan import (SIGMA6, Cone, classify_orbits, equivalent,
                  stratum_character_lattice, stabilizer, torus_coordinates)
from .forms import GroupElement, act_on_form, dual_action_on_characters, pairing
from .mhs import MhsVector, weight_counts, weight_graded_euler
from .ssengine import AmbiguousResolution, resolve

EXPECTED_BETTI = (1, 0, 2, 0, 4, 0, 6, 0, 4, 0, 2, 0, 1)

_T = MhsVector.tate

EXPECTED_RANK1 = {4: _T(2), 5: _T(0), 6: _T(3) + _T(3), 8: _T(4) + _T(4), 10: _T(5)}
EXPECTED_RANK2 = {2: _T(1), 4: _T(2), 6: _T(3) + _T(3), 8: _T(4)}
EXPECTED_RANK3 = {0: _T(0), 2: _T(1), 4: _T(2) + _T(2), 6: _T(3)}

EXPECTED_TORUS_COORDS = (
    (1, 0, 0, 0, 1, 1),
    (0, 1, 0, 1, 0, 1),
    (0, 0, 1, 1, 1, 0),
    (0, 0, 0, -1, 0, 0),
    (0, 0, 0, 0, -1, 0),
    (0, 0, 0, 0, 0, -1),
)

DISTINGUISHED_HISTOGRAM = {1: 1, 2: 7, 3: 2, 6: 2}

_SEED = 20260823


def _table_matches(table, expected):
    return dict(table.entries) == expected


def check_betti_vector(pipeline):
    result = pipeline()
    ok = result.betti == EXPECTED_BETTI
    return ok, " ".join(str(b) for b in result.betti)


def check_main_page_resolution(pipeline):
    result = pipeline()
    nonzero = [d for d in result.report.candidates[0].decisions if d.rank]
    if [(d.r, d.p, d.q, d.rank, d.kind) for d in nonzero] != [(1, 2, 3, 1, "solver")]:
        return False, "unexpected decisions %r" % (nonzero,)
    if not all(w == p + q for (p, q), v in result.limit.entries for w in weight_counts(v)):
        return False, "limit page is not pure"
    loose = result.page._replace(abutment_smooth_proper=False)
    try:
        resolve(loose)
        return False, "resolution without purity was unexpectedly unique"
    except AmbiguousResolution as exc:
        n = len(exc.report.candidates)
        ranks = sorted(sum(d.rank for d in c.decisions) for c in exc.report.candidates)
        if n != 2 or ranks != [0, 1]:
            return False, "purity-off candidates %d with ranks %r" % (n, ranks)
    return True, "unique with purity (1 differential), 2 candidates without"


def check_orbit_census(pipeline):
    expected_classes = {1: 1, 2: 1, 3: 2, 4: 2, 5: 1, 6: 1}
    details = []
    for dim, classes in sorted(expected_classes.items()):
        census = classify_orbits(dim)
        if len(census.orbits) != classes:
            return False, "dimension %d: %d classes" % (dim, len(census.orbits))
        details.append("%d:%d" % (dim, classes))
    dim3 = classify_orbits(3)
    if sorted(o.cusp_rank for o in dim3.orbits) != [2, 3]:
        return False, "dimension-3 cusp ranks %r" % [o.cusp_rank for o in dim3.orbits]
    # mass formula: the sum of (-1)^(dim - 1) / |Stab| over the cusp-rank-3
    # classes is chi(GL_3(Z)) = 0 (Harder), here in integers over the lcm
    cells = [(dim, len(stabilizer(o.representative).elements)) for dim in expected_classes
             for o in classify_orbits(dim).orbits if o.cusp_rank == 3]
    den = lcm(*(order for _, order in cells))
    mass = sum((-1) ** (dim - 1) * (den // order) for dim, order in cells)
    if mass:
        common = gcd(mass, den)
        return False, "mass formula gives %d/%d, not 0" % (mass // common, den // common)
    # span-deficient faces: every random GL(3,Z) image is found again
    rng = random.Random(_SEED)
    for dim in (1, 2):
        for face in SIGMA6.faces(dim):
            for _ in range(3):
                g = random_unimodular(rng)
                image = Cone(tuple(act_on_form(g, q) for q in face.generators))
                res = equivalent(face, image)
                if not res or ({act_on_form(res.witness, q) for q in face.generators}
                               != set(image.generators)):
                    return False, "%s not matched with a random image" % face.name()
    return True, ("classes per dimension %s, mass formula 0 over %d stabilizers"
                  % (" ".join(details), len(cells)))


def random_unimodular(rng):
    """A random element of GL(3,Z): a sign change times six elementary matrices.

    Multiplying on the right by I + k e_ij adds k times column i to column j,
    so the product is formed in place on one list of rows.
    """
    rows = [[rng.choice((1, -1)), 0, 0], [0, 1, 0], [0, 0, 1]]
    for _ in range(6):
        i, j = rng.sample(range(3), 2)
        k = rng.choice((-2, -1, 1, 2))
        for row in rows:
            row[j] += k * row[i]
    return GroupElement(rows)


def check_local_cone_symmetries(pipeline):
    cone = Cone.from_names("a1,a2,a3")
    stab = stabilizer(cone)
    lattice = stratum_character_lattice(cone)
    if len(stab.elements) != 48 or len(lattice.effective) != 24:
        return False, "orders %d/%d" % (len(stab.elements), len(lattice.effective))
    diag = {m for m in lattice.effective
            if all(m[i][j] == 0 for i in range(3) for j in range(3) if i != j)}
    expected_diag = {tuple(tuple(signs[i] if i == j else 0 for j in range(3))
                           for i in range(3))
                     for signs in [(1, 1, 1), (-1, -1, 1), (-1, 1, -1), (1, -1, -1)]}
    if diag != expected_diag:
        return False, "diagonal part has order %d" % len(diag)
    quotient = len(lattice.effective) // len(diag)
    ok = quotient == 6
    return ok, "order 48, effective 24 = 4 diagonal x %d" % quotient


def check_distinguished_dim4_symmetry(pipeline):
    census = classify_orbits(4)
    matches = []
    for orbit in census.orbits:
        lattice = stratum_character_lattice(orbit.representative)
        hist = order_histogram(lattice.effective)
        if len(lattice.effective) == 12 and hist == DISTINGUISHED_HISTOGRAM:
            matches.append(orbit.representative.name())
    ok = len(matches) == 1
    detail = ("%s carries the order-12 action" % matches[0]) if ok \
        else "%d matching classes" % len(matches)
    return ok, detail


def random_signed_permutation_rep(rng):
    """Small random finite matrix group of dimension 2 to 4: signed
    permutation generators."""
    dim = rng.randint(2, 4)
    gens = []
    for _ in range(rng.randint(1, 3)):
        perm = list(range(dim))
        rng.shuffle(perm)
        signs = [rng.choice((1, -1)) for _ in range(dim)]
        gens.append(tuple(tuple(signs[i] if j == perm[i] else 0
                                for j in range(dim)) for i in range(dim)))
    return LinearRep(dim, tuple(gens))


def check_stratum_invariants(pipeline):
    contributions = pipeline("beta3").contributions
    for c in contributions:
        lattice = stratum_character_lattice(Cone.from_names(c.cone_name))
        rep = LinearRep(len(lattice.basis), lattice.effective)
        molien = exterior_invariant_dims(rep)
        brute = fixed_subspace_dims_bruteforce(rep)
        if molien != (1,) + (0,) * c.stratum_dim or molien != brute:
            return False, "%s gives %r / %r" % (c.cone_name, molien, brute)
    reps = sum(1 for c in contributions if c.stratum_dim)
    if reps != 4:
        return False, "%d nontrivial stratum actions checked, expected 4" % reps
    rng = random.Random(_SEED)
    for i in range(50):
        rep = random_signed_permutation_rep(rng)
        if i % 2:  # the determinant character, well-defined on every group
            rep = rep._replace(signs=tuple(map(linalg.det, rep.generators)))
        if exterior_invariant_dims(rep) != fixed_subspace_dims_bruteforce(rep):
            return False, "dual-route disagreement on a random representation"
    return True, "%d stratum actions concentrated, 50 random dual-route checks" % reps


def check_rank_one_pipeline(pipeline):
    result = pipeline("beta1")
    if result.limit.entries != result.page.entries:
        return False, "page does not degenerate"
    if any(d.rank for d in result.report.candidates[0].decisions):
        return False, "nonzero differential decided"
    weights = weight_counts(result.table.entry(5))
    if weights != {0: 1}:
        return False, "degree-5 class has weights %r" % (weights,)
    if not _table_matches(result.table, EXPECTED_RANK1):
        return False, "table %r" % (result.table.entries,)
    return True, "degenerate page, weight-0 class in degree 5"


def check_rank_two_pipeline(pipeline):
    result = pipeline("beta2")
    used = [(d.r, d.p, d.q, d.rank, d.kind)
            for d in result.report.candidates[0].decisions if d.rank]
    if used != [(2, 2, 2, 1, "known")]:
        return False, "decisions %r" % (used,)
    if not _table_matches(result.torus_table, {6: _T(3), 8: _T(4)}):
        return False, "bundle part %r" % (result.torus_table.entries,)
    if not _table_matches(result.product_table, {2: _T(1), 4: _T(2), 6: _T(3)}):
        return False, "product part %r" % (result.product_table.entries,)
    ok = _table_matches(result.table, EXPECTED_RANK2)
    return ok, "known rank-1 differential applied, two-column page resolved"


def check_rank_three_attribution(pipeline):
    result = pipeline("beta3")
    expected = {
        ("a1,a2,a3", 3, 3, 6),
        ("a1,a2,a3,b1", 4, 2, 4),
        ("a1,a2,b1,b2", 4, 2, 4),
        ("a1,a2,a3,b1,b2", 5, 1, 2),
        ("a1,a2,a3,b1,b2,b3", 6, 0, 0),
    }
    got = {(c.cone_name, c.cone_dim, c.stratum_dim, c.degree)
           for c in result.contributions}
    if got != expected:
        return False, "contributions %r" % (sorted(got),)
    ok = _table_matches(result.table, EXPECTED_RANK3)
    return ok, "5 strata attributed across dimensions 3..6"


def check_torus_coordinates(pipeline):
    got = torus_coordinates()
    ok = got == EXPECTED_TORUS_COORDS
    return ok, "six dual characters reproduced" if ok else "coordinates %r" % (got,)


def check_product_symmetry(pipeline):
    rep = strata.product_symmetry_rep()
    group = group_closure(rep)
    if len(group) != 12:
        return False, "group order %d" % len(group)
    orders = {element_order(m) for m, _ in group}
    if 6 not in orders:
        return False, "no element of order 6"
    molien = exterior_invariant_dims(rep)
    brute = fixed_subspace_dims_bruteforce(rep)
    ok = molien == (1, 0, 1, 0, 1) and molien == brute
    return ok, "order 12 with an order-6 element, invariants 1 0 1 0 1"


def _euler(entries):
    """The Euler characteristic of graded entries: the sum of their e_w."""
    return sum(weight_graded_euler(entries).values())


def check_conservation_properties(pipeline):
    rng = random.Random(_SEED)
    mats = [random_unimodular(rng) for _ in range(6)]
    forms = SIGMA6.generators
    for g in mats:
        for h in mats:
            gh = g * h
            for q in forms:
                if act_on_form(gh, q) != act_on_form(g, act_on_form(h, q)):
                    return False, "composition law fails"
    chars = torus_coordinates()
    for g in mats:
        images = dual_action_on_characters(g, chars)
        for q in forms:
            gq = act_on_form(g, q)
            if any(pairing(gq, gf) != pairing(q, f) for f, gf in zip(chars, images)):
                return False, "pairing is not invariant"
    result = pipeline()
    eulers = [_euler(locus.table.entries) for locus in result.loci.values()]
    if eulers != [5, 5, 5, 5]:
        return False, "stratum euler characteristics %r" % (eulers,)
    balanced = (_euler(result.page.entries) == 20 and _euler(result.table.entries) == 20
                and sum(result.betti) == 20)
    if not balanced:
        return False, "euler characteristic not conserved"
    return True, "composition, pairing and euler conservation hold"


ALL_CHECKS = (
    ("betti_vector", check_betti_vector),
    ("main_page_resolution", check_main_page_resolution),
    ("orbit_census", check_orbit_census),
    ("local_cone_symmetries", check_local_cone_symmetries),
    ("distinguished_dim4_symmetry", check_distinguished_dim4_symmetry),
    ("stratum_invariants", check_stratum_invariants),
    ("rank_one_pipeline", check_rank_one_pipeline),
    ("rank_two_pipeline", check_rank_two_pipeline),
    ("rank_three_attribution", check_rank_three_attribution),
    ("torus_coordinates", check_torus_coordinates),
    ("product_symmetry", check_product_symmetry),
    ("conservation_properties", check_conservation_properties),
)


def _outcome(fn, *args):
    """fn(*args), or the exception it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # kept as the outcome, to fail whoever reads it
        return exc


def run_all(registry):
    """Run every check on shared pipeline results, computed first; returns
    a list of (name, ok, detail) triples."""
    # in column order, so errors[0] is what compactification_betti would raise
    loci = {name: _outcome(strata.locus, name, registry)
            for name in reversed(strata.STRATUM_NAMES)}
    errors = [x for x in loci.values() if isinstance(x, Exception)]
    whole = errors[0] if errors else _outcome(strata.compactification_betti, registry, loci)

    def pipeline(name=None):
        found = whole if name is None else loci[name]
        if isinstance(found, Exception):
            raise found
        return found

    results = []
    for name, fn in ALL_CHECKS:
        ok_detail = _outcome(fn, pipeline)
        if isinstance(ok_detail, Exception):  # a crashed check is a failed check
            ok_detail = False, "raised %s: %s" % (type(ok_detail).__name__, ok_detail)
        results.append((name, *ok_detail))
    return results
