"""Seeded inputs for the in-process workloads, and the references that check them.

Nothing here imports avor3: the inputs are plain JSON-ready data, and the
references (group orders, Euler characteristics, enumeration bounds) are
computed by independent code, so they can judge the program under test.

Both workloads are built from a fixed cycle of *slots*. A slot fixes the
size class of an input (group dimension, generator count and order; or the
page's enumeration-bound band); the seed only picks the concrete input
inside that class. Every seed therefore gives the same mix of costs, and a
run that covers whole cycles measures the same mix on every seed.
"""

from __future__ import annotations

import json
import random

# (dimension, generator count, group order, conjugate by a unimodular matrix,
#  carry a sign character). Orders are common outcomes of random signed
# permutation generators, so rejection sampling finds them quickly. The
# largest group has order 48, far under the closure cap of 10000.
GROUP_SLOTS = (
    (2, 1, 2, False, False),
    (2, 2, 4, True, False),
    (2, 2, 8, False, True),
    (3, 1, 2, False, True),
    (3, 1, 4, True, False),
    (3, 1, 6, False, False),
    (3, 2, 12, True, True),
    (3, 2, 24, False, False),
    (3, 2, 48, True, False),
    (4, 1, 4, False, True),
    (4, 1, 8, True, False),
    (4, 2, 24, False, True),
    (4, 2, 32, True, False),
    (5, 1, 12, False, False),
    (5, 2, 16, True, True),
)

# Pages: number of entries and the inclusive band of the enumeration bound
# (see enumeration_bound). The largest band stays three orders of magnitude
# under the resolver's cap of 10**6 assignments.
PAGE_SLOTS = (
    (6, 1, 4),
    (6, 5, 16),
    (8, 1, 8),
    (8, 9, 32),
    (8, 33, 128),
    (10, 1, 16),
    (10, 17, 64),
    (10, 65, 256),
    (12, 9, 64),
    (12, 65, 512),
    (12, 513, 1024),
    (14, 33, 256),
    (14, 257, 1024),
)

PAGE_GRID = 6  # entries sit at 0 <= p, q < PAGE_GRID


def slot_rng(seed, workload, index):
    """Independent generator for one input, so inputs never depend on run length."""
    return random.Random("%s/%d/%d" % (workload, seed, index))


# --- finite groups -----------------------------------------------------------

def _sp_mul(a, b):
    """Product of signed permutations (perm, signs), as matrices a @ b."""
    pa, sa = a
    pb, sb = b
    return (tuple(pb[pa[i]] for i in range(len(pa))),
            tuple(sa[i] * sb[pa[i]] for i in range(len(pa))))


def signed_perm_order(gens, cap=None):
    """Order of the group generated by signed permutations (reference closure).

    With `cap`, stops early and returns a number above it once the group is
    known to be larger.
    """
    n = len(gens[0][0])
    ident = (tuple(range(n)), (1,) * n)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                p = _sp_mul(m, g)
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
                    if cap is not None and len(seen) > cap:
                        return len(seen)
        frontier = nxt
    return len(seen)


def _sp_matrix(sp):
    perm, signs = sp
    n = len(perm)
    return [[signs[i] if j == perm[i] else 0 for j in range(n)] for i in range(n)]


def _perm_parity(perm):
    seen, parity = set(), 1
    for i in range(len(perm)):
        if i in seen:
            continue
        j, length = i, 0
        while j not in seen:
            seen.add(j)
            j = perm[j]
            length += 1
        parity *= -1 if length % 2 == 0 else 1
    return parity


def _character(kind, sp):
    """Value of a well-defined order-two character on a signed permutation."""
    perm, signs = sp
    sign_product = 1
    for s in signs:
        sign_product *= s
    if kind == "signs":
        return sign_product
    if kind == "parity":
        return _perm_parity(perm)
    return sign_product * _perm_parity(perm)  # the determinant


def _mat_mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _unimodular_pair(rng, n, steps=3):
    """A random U in GL(n,Z) and its inverse, from elementary row operations."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    uinv = [row[:] for row in u]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        k = rng.choice((1, -1))
        e = [[int(r == c) for c in range(n)] for r in range(n)]
        einv = [row[:] for row in e]
        e[i][j], einv[i][j] = k, -k
        u, uinv = _mat_mul(e, u), _mat_mul(uinv, einv)
    return u, uinv


def make_group(seed, index):
    """The index-th random finite matrix group of a seed, as a rep-file dict."""
    dim, ngens, order, conjugate, signed = GROUP_SLOTS[index % len(GROUP_SLOTS)]
    rng = slot_rng(seed, "random-groups", index)
    while True:
        gens = []
        for _ in range(ngens):
            perm = list(range(dim))
            rng.shuffle(perm)
            gens.append((tuple(perm), tuple(rng.choice((1, -1)) for _ in range(dim))))
        if signed_perm_order(gens, cap=order) == order:
            break
    mats = [_sp_matrix(g) for g in gens]
    if conjugate:
        u, uinv = _unimodular_pair(rng, dim)
        mats = [_mat_mul(_mat_mul(u, m), uinv) for m in mats]
    rep = {"dimension": dim, "generators": mats}
    if signed:
        kind = rng.choice(("signs", "parity", "det"))
        rep["signs"] = [_character(kind, g) for g in gens]
    return {"rep": rep, "order": order}


# --- spectral-sequence pages -------------------------------------------------

def weights_of(classes):
    out = []
    for c in classes:
        if "atom" in c:
            out.extend([0, 6] * c.get("mult", 1))
        else:
            out.extend([2 * c["tate"]] * c.get("mult", 1))
    return out


def class_dimension(classes):
    return len(weights_of(classes))


def page_euler(entries):
    return sum((-1) ** (e["p"] + e["q"]) * class_dimension(e["classes"]) for e in entries)


def enumeration_bound(page):
    """Upper bound on the assignments `resolve` can enumerate for this page.

    On page r the resolver tries, at each differential whose ends share
    weights, every per-weight rank up to the smaller multiplicity. Ranks only
    remove classes, so the multiplicities of the input page bound those of
    every later page, and the count of surviving states on page r is at most
    the product of the option counts of the pages before it.
    """
    weights = {}
    for e in page["entries"]:
        counts = weights.setdefault((e["p"], e["q"]), {})
        for w in weights_of(e["classes"]):
            counts[w] = counts.get(w, 0) + 1
    start = max(page.get("page", 1), 1)
    rs = sorted({p2 - p1 for (p1, q1) in weights for (p2, q2) in weights
                 if p2 - p1 >= start and q2 - q1 == 1 - (p2 - p1)})
    total, states = 1, 1
    for r in rs:
        options = 1
        for (p, q), src in weights.items():
            tgt = weights.get((p + r, q - r + 1))
            if tgt is None:
                continue
            for w in set(src) & set(tgt):
                options *= min(src[w], tgt[w]) + 1
        states *= options
        total += states
    return total


def _add_class(cells, pq, cls):
    cells.setdefault(pq, []).append(cls)


def _random_page(rng, n_entries):
    """A first-quadrant page: a pure skeleton, cancelling pairs and noise.

    Pure classes (weight p + q) can never meet along a differential, so the
    interesting work comes from planted pairs of equal weight one total
    degree apart, which a differential may or may not cancel, plus a few
    arbitrary Tate classes and copies of the atom F.
    """
    grid = [(p, q) for p in range(PAGE_GRID) for q in range(PAGE_GRID)]
    cells = {}
    while len(cells) < n_entries:
        kind = rng.random()
        p, q = rng.choice(grid)
        if kind < 0.4 and (p + q) % 2 == 0:
            _add_class(cells, (p, q), {"tate": (p + q) // 2, "mult": rng.randint(1, 2)})
        elif kind < 0.9:
            r = rng.randint(1, 3)
            if p + r < PAGE_GRID and 0 <= q - r + 1 < PAGE_GRID:
                tate = rng.randint(0, 5)
                mult = rng.randint(1, 2)
                _add_class(cells, (p, q), {"tate": tate, "mult": mult})
                _add_class(cells, (p + r, q - r + 1), {"tate": tate, "mult": mult})
        elif kind < 0.95:
            _add_class(cells, (p, q), {"tate": rng.randint(0, 5), "mult": 1})
        else:
            _add_class(cells, (p, q), {"atom": "F"})
    entries = [{"p": p, "q": q, "classes": cells[(p, q)]} for p, q in sorted(cells)]
    return {"label": "", "page": 1, "entries": entries, "knowns": []}


def make_page(seed, index):
    """The index-th random page of a seed, with its enumeration bound."""
    n_entries, lo, hi = PAGE_SLOTS[index % len(PAGE_SLOTS)]
    rng = slot_rng(seed, "random-pages", index)
    while True:
        page = _random_page(rng, n_entries)
        if len(page["entries"]) != n_entries:
            continue
        bound = enumeration_bound(page)
        if lo <= bound <= hi:
            page["label"] = "seed%d-page%d" % (seed, index)
            return {"page": page, "bound": bound}


def make_inputs(workload, seed, count):
    make = make_group if workload == "random-groups" else make_page
    return [make(seed, i) for i in range(count)]


def canonical(obj):
    """Byte form used to compare inputs and outputs."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
