import pytest

from avor3 import render
from avor3.equivariant import order_histogram
from avor3.fan import (GENERATOR_NAMES, Cone, classify_orbits, stabilizer,
                       stratum_character_lattice, torus_coordinates)
from avor3.forms import COEFF_ORDER
from avor3.mhs import CohomologyTable, MhsVector
from avor3.registry import load_registry
from avor3.ssengine import AmbiguousResolution, resolve


def _ambiguity_report():
    with pytest.raises(AmbiguousResolution) as exc:
        resolve(load_registry().page("cstar_bundle_e2"))
    return exc.value.report


def _arguments():
    """Valid arguments, all but the format, for every public renderer."""
    cone = Cone.from_names("a1,a2,a3")
    lattice = stratum_character_lattice(cone)
    page = load_registry().page("kummer_e2_expected")
    return {
        "render_table": (CohomologyTable("t", ((0, MhsVector.tate(0)),)),),
        "render_faces": (1, ["a1", "b1"]),
        "render_census": (classify_orbits(1),),
        "render_cusp_rank": ("a1,a2,b3", 2),
        "render_stabilizer": (stabilizer(cone), lattice, order_histogram(lattice.effective)),
        "render_characters": (GENERATOR_NAMES, torus_coordinates(), COEFF_ORDER),
        "render_invariants": ((1, 0, 1), 6),
        "render_betti": ((1, 0, 1),),
        "render_resolution": resolve(page),
        "render_ambiguity": (_ambiguity_report(),),
        "render_verification": ([("betti_vector", True, "1 0 1")],),
    }


def test_every_renderer_rejects_an_unknown_format():
    args = _arguments()
    assert set(args) == {n for n in dir(render) if n.startswith("render_")}
    for name, a in sorted(args.items()):
        with pytest.raises(ValueError) as exc:
            getattr(render, name)(*a, "html")
        assert str(exc.value) == "unknown format 'html'; expected one of text, json, latex", name


def test_verification_latex_escapes_every_special_character():
    out = render.render_verification([("a_b", False, "\\ & % $ # _ { } ~ ^")], "latex")
    assert out.splitlines()[3] == (
        "a\\_b & fail & \\textbackslash{} \\& \\% \\$ \\# \\_ \\{ \\} "
        "\\textasciitilde{} \\textasciicircum{} \\\\")
