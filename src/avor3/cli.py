"""Command-line interface.

Exit codes: 0 on success, 1 when a verification fails or a resolution is
ambiguous or inconsistent, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import render, strata, verify
from .equivariant import (MAX_DIMENSION, LinearRep, NotClosedWithinCap,
                          exterior_invariant_dims, group_closure, order_histogram)
from .fan import (SIGMA6, Cone, SpanDeficient, classify_orbits, stabilizer,
                  stratum_character_lattice, torus_coordinates)
from .forms import COEFF_ORDER, GENERATOR_NAMES
from .mhs import UnsupportedTwist
from .registry import load_registry
from .ssengine import (AmbiguousResolution, EnumerationCapExceeded,
                       NoConsistentAssignment, SSPage, SplitNotJustified, abutment,
                       resolve)
from .strata import ExpectedPageMismatch, InvariantNotConcentrated

_DOMAIN_ERRORS = (SpanDeficient, NotClosedWithinCap, NoConsistentAssignment,
                  AmbiguousResolution, EnumerationCapExceeded, SplitNotJustified,
                  ExpectedPageMismatch, InvariantNotConcentrated, UnsupportedTwist,
                  ValueError, KeyError, OSError)

_FACE_DIMS = range(SIGMA6.dim() + 1)


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=render.FORMATS, default="text",
                        help="output format (default: text)")

    parser = argparse.ArgumentParser(
        prog="avor3",
        description="Exact cohomology of the toroidal compactification of "
                    "the moduli space of abelian threefolds.")
    sub = parser.add_subparsers(dest="group", required=True)

    fan = sub.add_parser("fan", help="cones, orbits and symmetries of the fan")
    fan_sub = fan.add_subparsers(dest="command", required=True)

    p = fan_sub.add_parser("faces", parents=[common],
                           help="faces of the basic cone by dimension")
    p.add_argument("--dim", type=int, required=True, choices=_FACE_DIMS)

    p = fan_sub.add_parser("orbits", parents=[common],
                           help="orbit census of faces of one dimension")
    p.add_argument("--dim", type=int, required=True, choices=_FACE_DIMS)

    p = fan_sub.add_parser("stabilizer", parents=[common],
                           help="stabilizer and its action on the stratum torus")
    p.add_argument("--cone", required=True,
                   help="comma-joined generator names, e.g. a1,a2,a3")

    p = fan_sub.add_parser("cusp-rank", parents=[common],
                           help="rank of the sum of a cone's generators")
    p.add_argument("--cone", required=True)

    fan_sub.add_parser("torus-coords", parents=[common],
                       help="characters dual to the six generators")

    equi = sub.add_parser("equi", help="finite group actions on cohomology")
    equi_sub = equi.add_subparsers(dest="command", required=True)
    p = equi_sub.add_parser("invariants", parents=[common],
                            help="invariant dimensions in each exterior power")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--cone", help="use the effective stabilizer action "
                                       "on the stratum's character lattice")
    target.add_argument("--rep", help="JSON file with a matrix representation")

    ss = sub.add_parser("ss", help="spectral-sequence pages")
    ss_sub = ss.add_subparsers(dest="command", required=True)
    p = ss_sub.add_parser("resolve", parents=[common],
                          help="run a page to its limit")
    p.add_argument("--input", required=True, help="JSON page file")
    p.add_argument("--purity", action="store_true",
                   help="require a pure limit (smooth proper abutment)")
    p = ss_sub.add_parser("abutment", parents=[common],
                          help="merge a degenerate page along total degree")
    p.add_argument("--input", required=True, help="JSON page file")

    st = sub.add_parser("strata", help="per-stratum cohomology tables")
    st_sub = st.add_subparsers(dest="command", required=True)
    p = st_sub.add_parser("table", parents=[common],
                          help="compactly supported cohomology of one stratum")
    p.add_argument("--stratum", required=True, choices=strata.STRATUM_NAMES)
    p.add_argument("--registry", default=None, help="alternative registry file")

    p = sub.add_parser("betti", parents=[common],
                       help="Betti numbers of the compactified space")
    p.add_argument("space", choices=("avor3",))
    p.add_argument("--registry", default=None)

    p = sub.add_parser("verify", parents=[common],
                       help="recompute and check every published value")
    p.add_argument("what", choices=("all",))
    p.add_argument("--registry", default=None)

    return parser


def _load_rep(path):
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("a representation must be a JSON object")
    for key in ("dimension", "generators"):
        if key not in data:
            raise ValueError('representation: missing "%s"' % key)
    dim = data["dimension"]
    if type(dim) is int and dim > MAX_DIMENSION:
        raise ValueError('representation: "dimension" must be at most %d' % MAX_DIMENSION)
    return LinearRep(data["dimension"], data["generators"], data.get("signs"))


def _load_page(path, purity=False):
    with open(path, encoding="utf-8") as fh:
        return SSPage.from_json_dict(json.load(fh), abutment_smooth_proper=purity)


def _run(args, out):
    fmt = args.format

    if args.group == "fan":
        if args.command == "faces":
            names = [c.name() for c in SIGMA6.faces(args.dim)]
            out.write(render.render_faces(args.dim, names, fmt))
        elif args.command == "orbits":
            out.write(render.render_census(classify_orbits(args.dim), fmt))
        elif args.command == "stabilizer":
            cone = Cone.from_names(args.cone)
            stab = stabilizer(cone)
            lattice = stratum_character_lattice(cone)
            hist = order_histogram(lattice.effective)
            out.write(render.render_stabilizer(stab, lattice, hist, fmt))
        elif args.command == "cusp-rank":
            cone = Cone.from_names(args.cone)
            out.write(render.render_cusp_rank(cone.name(), cone.cusp_rank(), fmt))
        elif args.command == "torus-coords":
            out.write(render.render_characters(GENERATOR_NAMES, torus_coordinates(),
                                               COEFF_ORDER, fmt))
        return 0

    if args.group == "equi":
        if args.cone is not None:
            lattice = stratum_character_lattice(Cone.from_names(args.cone))
            rep = LinearRep(lattice.dimension(), lattice.effective)
            order = lattice.effective_order()
        else:
            rep = _load_rep(args.rep)
            order = len(group_closure(rep))
        out.write(render.render_invariants(exterior_invariant_dims(rep), order, fmt))
        return 0

    if args.group == "ss":
        if args.command == "resolve":
            page = _load_page(args.input, args.purity)
            try:
                limit, report = resolve(page)
            except AmbiguousResolution as exc:
                out.write(render.render_ambiguity(exc.report, fmt))
                return 1
            out.write(render.render_resolution(limit, report, fmt))
        else:
            out.write(render.render_table(abutment(_load_page(args.input)), fmt))
        return 0

    if args.group == "strata":
        registry = load_registry(args.registry)
        table = strata.stratum_table(args.stratum, registry)
        out.write(render.render_table(table, fmt))
        return 0

    if args.group == "betti":
        registry = load_registry(args.registry)
        result = strata.compactification_betti(registry)
        out.write(render.render_betti(result.betti, fmt))
        return 0

    if args.group == "verify":
        registry = load_registry(args.registry)
        results = verify.run_all(registry)
        out.write(render.render_verification(results, fmt))
        return 0 if all(ok for _, ok, _ in results) else 1

    raise AssertionError("unhandled command")


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args, sys.stdout)
    except _DOMAIN_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
