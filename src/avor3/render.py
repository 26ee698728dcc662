"""Deterministic text, JSON and LaTeX renderers for the command line.

Every function returns a complete string ending in a newline; equal
inputs give byte-identical output.  Each renderer states its JSON
document, its text lines and its LaTeX table cells once, and `_emit`
picks the one that `fmt` asks for.
"""

from __future__ import annotations

import json

from .mhs import entries_to_json, spell

FORMATS = ("text", "json", "latex")

# LaTeX's special characters, for cells that hold plain text
_TEX_ESCAPES = str.maketrans({c: "\\" + c for c in "&%$#_{}"}
                             | {"\\": "\\textbackslash{}", "~": "\\textasciitilde{}",
                                "^": "\\textasciicircum{}"})


def _emit(fmt, data, text_lines, spec=None, header=None, rows=()):
    """`data` as JSON, `text_lines` as text, or a LaTeX tabular with column
    `spec`, the `header` row (none when None) and `rows` of cells.  With
    `spec` None the LaTeX output is the text output."""
    if fmt not in FORMATS:
        raise ValueError("unknown format %r; expected one of %s" % (fmt, ", ".join(FORMATS)))
    if fmt == "json":
        return json.dumps(data, indent=2, sort_keys=True) + "\n"
    if fmt == "latex" and spec is not None:
        head = [] if header is None else [_tex_row(header), "\\hline"]
        text_lines = (["\\begin{tabular}{%s}" % spec] + head + [_tex_row(r) for r in rows]
                      + ["\\end{tabular}"])
    return "\n".join(text_lines) + "\n"


def _tex_row(cells):
    return " & ".join(str(c) for c in cells) + " \\\\"


def mhs_latex(v):
    return spell(v, lambda n: "\\mathbf{Q}" if n == 0 else "\\mathbf{Q}(%d)" % (-n),
                 "\\mathrm{F}", "%s^{\\oplus %d}", " \\oplus ")


def _cone(name):
    return name.replace(",", ", ")


def render_table(table, fmt="text"):
    return _emit(fmt, table.to_json_dict(),
                 ["table %s" % table.label]
                 + ["  H_c^%-2d = %s" % (d, v) for d, v in table.entries],
                 "ll", ("$k$", "$H^k_c$"),
                 [("$%d$" % d, "$%s$" % mhs_latex(v)) for d, v in table.entries])


def render_faces(dim, names, fmt="text"):
    return _emit(fmt, {"dimension": dim, "count": len(names), "faces": list(names)},
                 ["faces of dimension %d: %d" % (dim, len(names))]
                 + ["  %s" % n for n in names],
                 "l", ("face",), [(_cone(n),) for n in names])


def render_census(census, fmt="text"):
    rows = [(o.representative.name(), o.size, o.cusp_rank) for o in census.orbits]
    width = max(len(n) for n, _, _ in rows)
    return _emit(fmt, {"dimension": census.dimension,
                       "orbits": [{"representative": n, "size": s, "cusp_rank": c}
                                  for n, s, c in rows]},
                 ["orbit census: dimension %d" % census.dimension]
                 + ["  %-*s  orbit size %-3d cusp rank %d" % (width, n, s, c)
                    for n, s, c in rows]
                 + ["classes: %d, faces covered: %d" % (len(rows), sum(census.counts()))],
                 "lrr", ("representative", "orbit size", "cusp rank"),
                 [(_cone(n), s, c) for n, s, c in rows])


def render_cusp_rank(name, rank, fmt="text"):
    return _emit(fmt, {"cone": name, "cusp_rank": rank},
                 ["cusp rank of %s: %d" % (name, rank)],
                 "lr", ("cone", "cusp rank"), [(_cone(name), rank)])


def render_stabilizer(stab, lattice, histogram, fmt="text"):
    rows = [("stabilizer order", stab.order()),
            ("lattice dimension", lattice.dimension()),
            ("effective order", lattice.effective_order()),
            ("element orders",
             " ".join("%d:%d" % (k, v) for k, v in sorted(histogram.items())) or "-")]
    return _emit(fmt, {"cone": stab.cone.name(), "order": stab.order(),
                       "lattice_dimension": lattice.dimension(),
                       "effective_order": lattice.effective_order(),
                       "effective_element_orders": {str(k): v
                                                    for k, v in histogram.items()}},
                 ["cone %s" % stab.cone.name()] + ["  %-20s%s" % row for row in rows],
                 "lr", None, rows)


def render_characters(names, chars, order, fmt="text"):
    rows = list(zip(names, chars))
    return _emit(fmt, {"coefficient_order": list(order),
                       "coordinates": [{"dual_to": n, "exponents": list(e)}
                                       for n, e in rows]},
                 ["coefficient order: %s" % " ".join(order)]
                 + ["dual to %s = (%s)" % (n, ", ".join(str(x) for x in e)) for n, e in rows],
                 "l" + "r" * len(order), ("dual to",) + tuple("$%s$" % c for c in order),
                 [(n,) + tuple(e) for n, e in rows])


def _degree_row(name, values):
    """LaTeX spec, header and row: the degrees k over `values`, labelled `name`."""
    return ("l" + "c" * len(values), ("$k$",) + tuple(range(len(values))),
            [(name,) + tuple(values)])


def render_invariants(dims, group_order, fmt="text"):
    return _emit(fmt, {"group_order": group_order, "invariant_dimensions": list(dims)},
                 ["group order %d" % group_order,
                  "invariant dimensions: %s" % " ".join(str(d) for d in dims)],
                 *_degree_row("$\\dim(\\Lambda^k)^G$", dims))


def render_betti(betti, fmt="text"):
    return _emit(fmt, {"betti": list(betti)}, [" ".join(str(b) for b in betti)],
                 *_degree_row("$b_k$", betti))


def _decision_rows(decisions):
    return [{"r": d.r, "p": d.p, "q": d.q, "rank": d.rank, "kind": d.kind,
             "citation": d.citation} for d in decisions]


def render_resolution(limit, report, fmt="text"):
    decisions = report.candidates[0].decisions
    data = limit.to_json_dict()
    data["decisions"] = _decision_rows(decisions)
    lines = ["resolved %s at page r=%d" % (limit.label or "(unlabeled)", limit.r)]
    lines += ["decisions:"] if decisions else ["no differentials to decide"]
    lines += ["  d_%d at (%d,%d): rank %d (%s)%s" % (d.r, d.p, d.q, d.rank, d.kind,
                                                    " [%s]" % d.citation if d.citation else "")
              for d in decisions]
    lines += ["limit entries:"] + ["  (%d,%d) = %s" % (p, q, v) for (p, q), v in limit.entries]
    return _emit(fmt, data, lines, "lll", ("$p$", "$q$", "$E^{p,q}$"),
                 [("$%d$" % p, "$%d$" % q, "$%s$" % mhs_latex(v))
                  for (p, q), v in limit.entries])


def render_ambiguity(report, fmt="text"):
    lines = ["ambiguous resolution of %s: %d candidates survive"
             % (report.label or "(unlabeled)", len(report.candidates))]
    for i, c in enumerate(report.candidates):
        lines.append("candidate %d:" % (i + 1))
        lines += ["  d_%d at (%d,%d): rank %d" % (d.r, d.p, d.q, d.rank)
                  for d in c.decisions if d.rank]
        lines += ["  (%d,%d) = %s" % (p, q, v) for (p, q), v in c.entries]
    return _emit(fmt, {"label": report.label, "purity": report.purity,
                       "candidates": [{"entries": entries_to_json(c.entries, "position"),
                                       "decisions": _decision_rows(c.decisions)}
                                      for c in report.candidates]},
                 lines)


def render_verification(results, fmt="text"):
    passed = sum(1 for _, ok, _ in results if ok)
    return _emit(fmt, [{"name": n, "ok": ok, "detail": detail} for n, ok, detail in results],
                 ["%s %-28s %s" % ("PASS" if ok else "FAIL", n, detail)
                  for n, ok, detail in results]
                 + ["%d/%d checks passed" % (passed, len(results))],
                 "lll", ("check", "status", "detail"),
                 [(n.translate(_TEX_ESCAPES), "pass" if ok else "fail",
                   detail.translate(_TEX_ESCAPES))
                  for n, ok, detail in results])
