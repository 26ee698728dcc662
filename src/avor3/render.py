"""Deterministic text, JSON and LaTeX renderers for the command line.

Every function returns a complete string ending in a newline; equal
inputs give byte-identical output.
"""

from __future__ import annotations

import json

from .mhs import entries_to_json, spell

FORMATS = ("text", "json", "latex")


def _json(data):
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _bad_format(fmt):
    return ValueError("unknown format %r; expected one of %s" % (fmt, ", ".join(FORMATS)))


def mhs_latex(v):
    return spell(v, lambda n: "\\mathbf{Q}" if n == 0 else "\\mathbf{Q}(%d)" % (-n),
                 "\\mathrm{F}", "%s^{\\oplus %d}", " \\oplus ")


def render_table(table, fmt="text"):
    if fmt == "json":
        return _json(table.to_json_dict())
    if fmt == "text":
        lines = ["table %s" % table.label]
        for d in table.degrees():
            lines.append("  H_c^%-2d = %s" % (d, table.entry(d)))
        return "\n".join(lines) + "\n"
    if fmt == "latex":
        lines = ["\\begin{tabular}{ll}", "$k$ & $H^k_c$ \\\\", "\\hline"]
        for d in table.degrees():
            lines.append("$%d$ & $%s$ \\\\" % (d, mhs_latex(table.entry(d))))
        lines.append("\\end{tabular}")
        return "\n".join(lines) + "\n"
    raise _bad_format(fmt)


def render_faces(dim, names, fmt="text"):
    if fmt == "json":
        return _json({"dimension": dim, "count": len(names), "faces": list(names)})
    if fmt == "text":
        lines = ["faces of dimension %d: %d" % (dim, len(names))]
        lines.extend("  %s" % n for n in names)
        return "\n".join(lines) + "\n"
    if fmt == "latex":
        lines = ["\\begin{tabular}{l}", "face \\\\", "\\hline"]
        lines.extend("%s \\\\" % n.replace(",", ", ") for n in names)
        lines.append("\\end{tabular}")
        return "\n".join(lines) + "\n"
    raise _bad_format(fmt)


def render_census(census, fmt="text"):
    rows = [(o.representative.name(), o.size, o.cusp_rank) for o in census.orbits]
    if fmt == "json":
        return _json({"dimension": census.dimension,
                      "orbits": [{"representative": n, "size": s, "cusp_rank": c}
                                 for n, s, c in rows]})
    if fmt == "text":
        width = max(len(n) for n, _, _ in rows)
        lines = ["orbit census: dimension %d" % census.dimension]
        for n, s, c in rows:
            lines.append("  %-*s  orbit size %-3d cusp rank %d" % (width, n, s, c))
        lines.append("classes: %d, faces covered: %d" % (len(rows), sum(census.counts())))
        return "\n".join(lines) + "\n"
    if fmt == "latex":
        lines = ["\\begin{tabular}{lrr}",
                 "representative & orbit size & cusp rank \\\\", "\\hline"]
        for n, s, c in rows:
            lines.append("%s & %d & %d \\\\" % (n.replace(",", ", "), s, c))
        lines.append("\\end{tabular}")
        return "\n".join(lines) + "\n"
    raise _bad_format(fmt)


def render_cusp_rank(name, rank, fmt="text"):
    if fmt == "json":
        return _json({"cone": name, "cusp_rank": rank})
    if fmt == "text":
        return "cusp rank of %s: %d\n" % (name, rank)
    if fmt == "latex":
        return ("\\begin{tabular}{lr}\ncone & cusp rank \\\\\n\\hline\n%s & %d \\\\\n"
                "\\end{tabular}\n" % (name.replace(",", ", "), rank))
    raise _bad_format(fmt)


def render_stabilizer(stab, lattice, histogram, fmt="text"):
    hist_txt = " ".join("%d:%d" % (k, v) for k, v in sorted(histogram.items()))
    if fmt == "json":
        return _json({"cone": stab.cone.name(), "order": stab.order(),
                      "lattice_dimension": lattice.dimension(),
                      "effective_order": lattice.effective_order(),
                      "effective_element_orders": {str(k): v
                                                   for k, v in histogram.items()}})
    if fmt == "text":
        lines = ["cone %s" % stab.cone.name(),
                 "  stabilizer order    %d" % stab.order(),
                 "  lattice dimension   %d" % lattice.dimension(),
                 "  effective order     %d" % lattice.effective_order(),
                 "  element orders      %s" % (hist_txt or "-")]
        return "\n".join(lines) + "\n"
    if fmt == "latex":
        lines = ["\\begin{tabular}{lr}",
                 "stabilizer order & %d \\\\" % stab.order(),
                 "lattice dimension & %d \\\\" % lattice.dimension(),
                 "effective order & %d \\\\" % lattice.effective_order(),
                 "element orders & %s \\\\" % (hist_txt or "-"),
                 "\\end{tabular}"]
        return "\n".join(lines) + "\n"
    raise _bad_format(fmt)


def render_characters(names, chars, order, fmt="text"):
    rows = list(zip(names, chars))
    if fmt == "json":
        return _json({"coefficient_order": list(order),
                      "coordinates": [{"dual_to": n, "exponents": list(e)}
                                      for n, e in rows]})
    if fmt == "text":
        lines = ["coefficient order: %s" % " ".join(order)]
        for n, e in rows:
            lines.append("dual to %s = (%s)" % (n, ", ".join(str(x) for x in e)))
        return "\n".join(lines) + "\n"
    if fmt == "latex":
        lines = ["\\begin{tabular}{l%s}" % ("r" * len(order)),
                 "dual to & %s \\\\" % " & ".join("$%s$" % c for c in order), "\\hline"]
        for n, e in rows:
            lines.append("%s & %s \\\\" % (n, " & ".join(str(x) for x in e)))
        lines.append("\\end{tabular}")
        return "\n".join(lines) + "\n"
    raise _bad_format(fmt)


def render_invariants(dims, group_order, fmt="text"):
    if fmt == "json":
        return _json({"group_order": group_order, "invariant_dimensions": list(dims)})
    if fmt == "text":
        return ("group order %d\ninvariant dimensions: %s\n"
                % (group_order, " ".join(str(d) for d in dims)))
    if fmt == "latex":
        cells = " & ".join(str(d) for d in dims)
        ks = " & ".join(str(k) for k in range(len(dims)))
        return ("\\begin{tabular}{l%s}\n$k$ & %s \\\\\n\\hline\n"
                "$\\dim(\\Lambda^k)^G$ & %s \\\\\n\\end{tabular}\n"
                % ("c" * len(dims), ks, cells))
    raise _bad_format(fmt)


def render_betti(betti, fmt="text"):
    if fmt == "json":
        return _json({"betti": list(betti)})
    if fmt == "text":
        return " ".join(str(b) for b in betti) + "\n"
    if fmt == "latex":
        ks = " & ".join(str(k) for k in range(len(betti)))
        cells = " & ".join(str(b) for b in betti)
        return ("\\begin{tabular}{l%s}\n$k$ & %s \\\\\n\\hline\n$b_k$ & %s \\\\\n"
                "\\end{tabular}\n" % ("c" * len(betti), ks, cells))
    raise _bad_format(fmt)


def _decision_rows(decisions):
    return [{"r": d.r, "p": d.p, "q": d.q, "rank": d.rank, "kind": d.kind,
             "citation": d.citation} for d in decisions]


def render_resolution(limit, report, fmt="text"):
    decisions = report.candidates[0].decisions
    if fmt == "json":
        data = limit.to_json_dict()
        data["decisions"] = _decision_rows(decisions)
        return _json(data)
    if fmt == "text":
        lines = ["resolved %s at page r=%d" % (limit.label or "(unlabeled)", limit.r)]
        if decisions:
            lines.append("decisions:")
            for d in decisions:
                note = " (%s)" % d.kind + (" [%s]" % d.citation if d.citation else "")
                lines.append("  d_%d at (%d,%d): rank %d%s" % (d.r, d.p, d.q, d.rank, note))
        else:
            lines.append("no differentials to decide")
        lines.append("limit entries:")
        for (p, q), v in limit.entries:
            lines.append("  (%d,%d) = %s" % (p, q, v))
        return "\n".join(lines) + "\n"
    if fmt == "latex":
        lines = ["\\begin{tabular}{lll}", "$p$ & $q$ & $E^{p,q}$ \\\\", "\\hline"]
        for (p, q), v in limit.entries:
            lines.append("$%d$ & $%d$ & $%s$ \\\\" % (p, q, mhs_latex(v)))
        lines.append("\\end{tabular}")
        return "\n".join(lines) + "\n"
    raise _bad_format(fmt)


def render_ambiguity(report, fmt="text"):
    if fmt == "json":
        return _json({"label": report.label, "purity": report.purity,
                      "candidates": [
                          {"entries": entries_to_json(c.entries, "position"),
                           "decisions": _decision_rows(c.decisions)}
                          for c in report.candidates]})
    if fmt in ("text", "latex"):
        lines = ["ambiguous resolution of %s: %d candidates survive"
                 % (report.label or "(unlabeled)", len(report.candidates))]
        for i, c in enumerate(report.candidates):
            lines.append("candidate %d:" % (i + 1))
            for d in c.decisions:
                if d.rank:
                    lines.append("  d_%d at (%d,%d): rank %d" % (d.r, d.p, d.q, d.rank))
            for (p, q), v in c.entries:
                lines.append("  (%d,%d) = %s" % (p, q, v))
        return "\n".join(lines) + "\n"
    raise _bad_format(fmt)


def render_verification(results, fmt="text"):
    if fmt == "json":
        return _json([{"name": n, "ok": ok, "detail": detail}
                      for n, ok, detail in results])
    if fmt == "text":
        lines = []
        for n, ok, detail in results:
            lines.append("%s %-28s %s" % ("PASS" if ok else "FAIL", n, detail))
        passed = sum(1 for _, ok, _ in results if ok)
        lines.append("%d/%d checks passed" % (passed, len(results)))
        return "\n".join(lines) + "\n"
    if fmt == "latex":
        lines = ["\\begin{tabular}{lll}", "check & status & detail \\\\", "\\hline"]
        for n, ok, detail in results:
            lines.append("%s & %s & %s \\\\"
                         % (n.replace("_", "\\_"), "pass" if ok else "fail", detail))
        lines.append("\\end{tabular}")
        return "\n".join(lines) + "\n"
    raise _bad_format(fmt)
