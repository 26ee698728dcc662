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

`compactification_betti` is the one place the whole pipeline runs: it
computes each locus once and returns every intermediate result in one
`BettiResult`, which `betti` prints from and every pipeline check of
`avor3.verify` reads.  `stratum_table` computes a single stratum alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from .equivariant import LinearRep, exterior_invariant_dims, h1_pullback
from .fan import classify_orbits, stratum_character_lattice
from .mhs import CohomologyTable, MhsVector, graded
from .registry import Registry
from .ssengine import SSPage, abutment, gysin_split, leray_assemble, resolve

STRATUM_NAMES = ("a3", "beta1", "beta2", "beta3")

COMPACTIFICATION_DIMENSION = 6


class InvariantNotConcentrated(RuntimeError):
    """A symmetry group leaves more cohomology than the pipeline assumes."""


class ExpectedPageMismatch(RuntimeError):
    """A freshly assembled page disagrees with the stored cross-check copy."""


@dataclass(frozen=True)
class StratumContribution:
    """One torus-orbit stratum's class: which cone, and where it lands."""

    cone_name: str
    cone_dim: int
    stratum_dim: int
    degree: int


@dataclass(frozen=True)
class RankThreeResult:
    table: CohomologyTable
    contributions: tuple


@dataclass(frozen=True)
class FibrationResult:
    page: SSPage
    limit: SSPage
    table: CohomologyTable
    report: object


@dataclass(frozen=True)
class RankTwoResult:
    page: SSPage
    torus_table: CohomologyTable
    product_table: CohomologyTable
    table: CohomologyTable
    report: object


@dataclass(frozen=True)
class BettiResult:
    page: SSPage
    limit: SSPage
    table: CohomologyTable
    betti: tuple
    report: object
    beta3: RankThreeResult
    beta2: RankTwoResult
    beta1: FibrationResult
    tables: dict  # stratum name -> CohomologyTable


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
            m = lattice.dimension()
            if m != COMPACTIFICATION_DIMENSION - cone_dim:
                raise AssertionError("character lattice dimension mismatch")
            dims = exterior_invariant_dims(LinearRep(m, lattice.effective))
            if dims != (1,) + (0,) * m:
                raise InvariantNotConcentrated(
                    "stratum of %s has stabilizer invariants %r" % (cone.name(), dims))
            classes.append((2 * m, MhsVector.tate(m)))
            contributions.append(
                StratumContribution(cone.name(), cone_dim, m, 2 * m))
    table = CohomologyTable("beta3", graded(classes))
    return RankThreeResult(table, tuple(contributions))


def rank_one_locus(registry: Registry) -> FibrationResult:
    """Kummer-type family over the abelian surface moduli."""
    page = leray_assemble(registry.base_tables(), registry.fiber("kummer_fiber"),
                          label="beta1")
    expected = registry.pages.get("kummer_e2_expected")
    if expected is not None and expected.entries != page.entries:
        raise ExpectedPageMismatch(
            "assembled rank-1 page differs from the stored cross-check")
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


def _tensor_vectors(v: MhsVector, w: MhsVector) -> MhsVector:
    if v.f_count or w.f_count:
        raise ValueError("tensor product with the non-Tate atom is not supported")
    return MhsVector(tuple(a + b for a in v.tates for b in w.tates))


def tensor_tables(a: CohomologyTable, b: CohomologyTable, label: str) -> CohomologyTable:
    return CohomologyTable(label, graded((d1 + d2, _tensor_vectors(v, w))
                                         for d1, v in a.entries for d2, w in b.entries))


def rank_two_locus(registry: Registry) -> RankTwoResult:
    """Rank-2 locus: C*-bundle piece plus the elliptic-product piece.

    The bundle piece is a fibration whose page carries one externally
    known differential rank; the product piece is the invariant fiber
    cohomology of the symmetrized elliptic square spread over the modular
    line.  The two merge through a degreewise split that must be justified
    by weight disjointness.
    """
    stored = registry.page("cstar_bundle_e2")
    known = registry.known("cstar_bundle_d2")
    page = leray_assemble(registry.base_tables(), registry.fiber("cstar_fiber"),
                          label=stored.label, knowns=(known,))
    if page.entries != stored.entries:
        raise ExpectedPageMismatch(
            "assembled rank-2 bundle page differs from the stored cross-check")
    limit, report = resolve(page)
    torus_table = abutment(limit, "beta2_bundle")
    fiber_invariants = invariant_fiber_table(product_symmetry_rep(),
                                             "product_fiber_invariants")
    product_table = tensor_tables(fiber_invariants,
                                  registry.table("modular_line").table,
                                  "beta2_products")
    table = gysin_split(torus_table, product_table, "beta2")
    return RankTwoResult(page, torus_table, product_table, table, report)


def open_locus_table(registry: Registry) -> CohomologyTable:
    return CohomologyTable("a3", registry.table("a3_open").table.entries)


def stratum_table(name: str, registry: Registry) -> CohomologyTable:
    if name == "a3":
        return open_locus_table(registry)
    if name == "beta1":
        return rank_one_locus(registry).table
    if name == "beta2":
        return rank_two_locus(registry).table
    if name == "beta3":
        return rank_three_locus().table
    raise ValueError("unknown stratum %r; expected one of %s"
                     % (name, ", ".join(STRATUM_NAMES)))


def main_first_page(tables: dict, registry: Registry) -> SSPage:
    """First page of the stratification sequence for the whole space.

    `tables` maps each stratum name to its table.  Column p holds the
    rank-(3-p) locus: a class of degree d in that locus's table sits at
    position (p, d - p).  The abutment is the cohomology of the compact
    space, so purity of the limit is enforced.
    """
    columns = enumerate(("beta3", "beta2", "beta1", "a3"))
    entries = graded(((p, d - p), vec) for p, name in columns for d, vec in tables[name].entries)
    page = SSPage(1, entries, (), abutment_smooth_proper=True, label="main")
    expected = registry.pages.get("main_e1_expected")
    if expected is not None and expected.entries != page.entries:
        raise ExpectedPageMismatch(
            "assembled first page differs from the stored cross-check")
    return page


def compactification_betti(registry: Registry) -> BettiResult:
    """Betti numbers of the compactification from the resolved main page,
    with every locus result the computation went through."""
    beta3 = rank_three_locus()
    beta2 = rank_two_locus(registry)
    beta1 = rank_one_locus(registry)
    tables = {"a3": open_locus_table(registry), "beta1": beta1.table,
              "beta2": beta2.table, "beta3": beta3.table}
    page = main_first_page(tables, registry)
    limit, report = resolve(page)
    table = abutment(limit, "avor3")
    betti = table.betti(2 * COMPACTIFICATION_DIMENSION)
    return BettiResult(page, limit, table, betti, report, beta3, beta2, beta1, tables)
