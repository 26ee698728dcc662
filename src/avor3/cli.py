"""Command-line interface.

Each command's subparser carries its handler (`set_defaults(run=...)`): the
handler takes the parsed arguments and returns the stdout text and the exit
code.  Exit codes: 0 on success, 1 when a verification fails or on an
`Avor3Error` or `OSError` (one `error:` line), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys

from . import Avor3Error, render, strata
from .equivariant import LinearRep, exterior_invariant_dims, group_order, order_histogram
from .fan import (SIGMA6, Cone, classify_orbits, stabilizer, stratum_character_lattice,
                  torus_coordinates)
from .forms import COEFF_ORDER, GENERATOR_NAMES
from .mhs import read_json
from .registry import load_registry
from .ssengine import AmbiguousResolution, SSPage, abutment, resolve

_FACE_DIMS = range(SIGMA6.dim() + 1)


def _faces(args):
    names = [c.name() for c in SIGMA6.faces(args.dim)]
    return render.render_faces(args.dim, names, args.format), 0


def _orbits(args):
    return render.render_census(classify_orbits(args.dim), args.format), 0


def _stabilizer(args):
    cone = Cone.from_names(args.cone)
    stab = stabilizer(cone)
    lattice = stratum_character_lattice(cone)
    hist = order_histogram(lattice.effective)
    return render.render_stabilizer(stab, lattice, hist, args.format), 0


def _cusp_rank(args):
    cone = Cone.from_names(args.cone)
    return render.render_cusp_rank(cone.name(), cone.cusp_rank(), args.format), 0


def _torus_coords(args):
    return render.render_characters(GENERATOR_NAMES, torus_coordinates(), COEFF_ORDER,
                                    args.format), 0


def _invariants(args):
    if args.cone is not None:
        lattice = stratum_character_lattice(Cone.from_names(args.cone))
        rep = LinearRep(len(lattice.basis), lattice.effective)
    else:
        rep = LinearRep.from_json_dict(read_json(args.rep))
    return render.render_invariants(exterior_invariant_dims(rep), group_order(rep),
                                    args.format), 0


def _resolve(args):
    page = SSPage.from_json_dict(read_json(args.input), abutment_smooth_proper=args.purity)
    try:
        limit, report = resolve(page)
    except AmbiguousResolution as exc:
        return render.render_ambiguity(exc.report, args.format), 1
    return render.render_resolution(limit, report, args.format), 0


def _abutment(args):
    page = SSPage.from_json_dict(read_json(args.input))
    return render.render_table(abutment(page), args.format), 0


def _strata_table(args):
    table = strata.locus(args.stratum, load_registry(args.registry)).table
    return render.render_table(table, args.format), 0


def _betti(args):
    result = strata.compactification_betti(load_registry(args.registry))
    return render.render_betti(result.betti, args.format), 0


def _verify(args):
    from . import verify  # only this command loads the checks

    results = verify.run_all(load_registry(args.registry))
    return (render.render_verification(results, args.format),
            0 if all(ok for _, ok, _ in results) else 1)


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=render.FORMATS, default="text",
                        help="output format (default: text)")

    def command(sub, name, run, **kwargs):
        """A leaf command: takes --format, and `run` handles it."""
        p = sub.add_parser(name, parents=[common], **kwargs)
        p.set_defaults(run=run)
        return p

    parser = argparse.ArgumentParser(
        prog="avor3",
        description="Exact cohomology of the toroidal compactification of "
                    "the moduli space of abelian threefolds.")
    sub = parser.add_subparsers(dest="group", required=True)

    fan = sub.add_parser("fan", help="cones, orbits and symmetries of the fan")
    fan_sub = fan.add_subparsers(dest="command", required=True)

    p = command(fan_sub, "faces", _faces, help="faces of the basic cone by dimension")
    p.add_argument("--dim", type=int, required=True, choices=_FACE_DIMS)

    p = command(fan_sub, "orbits", _orbits, help="orbit census of faces of one dimension")
    p.add_argument("--dim", type=int, required=True, choices=_FACE_DIMS)

    p = command(fan_sub, "stabilizer", _stabilizer,
                help="stabilizer and its action on the stratum torus")
    p.add_argument("--cone", required=True,
                   help="comma-joined generator names, e.g. a1,a2,a3")

    p = command(fan_sub, "cusp-rank", _cusp_rank,
                help="rank of the sum of a cone's generators")
    p.add_argument("--cone", required=True)

    command(fan_sub, "torus-coords", _torus_coords,
            help="characters dual to the six generators")

    equi = sub.add_parser("equi", help="finite group actions on cohomology")
    equi_sub = equi.add_subparsers(dest="command", required=True)
    p = command(equi_sub, "invariants", _invariants,
                help="invariant dimensions in each exterior power")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--cone", help="use the effective stabilizer action "
                                       "on the stratum's character lattice")
    target.add_argument("--rep", help="JSON file with a matrix representation")

    ss = sub.add_parser("ss", help="spectral-sequence pages")
    ss_sub = ss.add_subparsers(dest="command", required=True)
    p = command(ss_sub, "resolve", _resolve, help="run a page to its limit")
    p.add_argument("--input", required=True, help="JSON page file")
    p.add_argument("--purity", action="store_true",
                   help="require a pure limit (smooth proper abutment)")
    p = command(ss_sub, "abutment", _abutment,
                help="merge a degenerate page along total degree")
    p.add_argument("--input", required=True, help="JSON page file")

    st = sub.add_parser("strata", help="per-stratum cohomology tables")
    st_sub = st.add_subparsers(dest="command", required=True)
    p = command(st_sub, "table", _strata_table,
                help="compactly supported cohomology of one stratum")
    p.add_argument("--stratum", required=True, choices=strata.STRATUM_NAMES)
    p.add_argument("--registry", default=None, help="alternative registry file")

    p = command(sub, "betti", _betti, help="Betti numbers of the compactified space")
    p.add_argument("space", choices=("avor3",))
    p.add_argument("--registry", default=None)

    p = command(sub, "verify", _verify, help="recompute and check every published value")
    p.add_argument("what", choices=("all",))
    p.add_argument("--registry", default=None)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        text, code = args.run(args)
        sys.stdout.write(text)
        return code
    except (Avor3Error, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
