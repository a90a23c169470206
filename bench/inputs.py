"""Seeded input generation for the weakhopf benchmark.

The benchmark writes every instance and module file itself, from Cayley
tables and groupoid specifications, so the program under test receives only
plain input files.  Each generated instance carries the facts the oracle
needs (Hopf or not, base dimension, antipode), derived from the family and
not from the program.

A seed never changes the cost class of a workload: every pass holds the
same families with the same carrier dimensions, and the seed chooses only
whether each swarm instance is dualised, a relabelling of every basis and
the order of the ops.  That keeps the spread between seeds small while
another seed still gives other files and another mix.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional


@dataclass(frozen=True)
class Instance:
    """An instance document plus the answers the oracle expects for it."""

    name: str
    doc: dict
    hopf: bool
    base_dim: int
    antipode: Optional[dict]  # {(row, col): value}, when known

    @property
    def n(self):
        return self.doc["dim"]

    def text(self) -> str:
        return json.dumps(self.doc, sort_keys=True, indent=2) + "\n"


def _rows(entries):
    return sorted([*key, str(Fraction(v))] for key, v in entries.items())


def _doc(name, n, m, e, delta, eps, grading=None):
    doc = {"name": name, "dim": n, "m": _rows(m), "e": _rows(e),
           "delta": _rows(delta), "eps": _rows(eps), "tau": "flip"}
    if grading is not None:
        doc["grading"] = list(grading)
    return doc


def monoid(name, table) -> Instance:
    """Monoid algebra with group-like coproduct; Hopf iff the monoid is a group."""
    n = len(table)
    unit = next(u for u in range(n)
                if all(table[u][j] == j == table[j][u] for j in range(n)))
    inverse = {a: b for a in range(n) for b in range(n)
               if table[a][b] == unit == table[b][a]}
    hopf = len(inverse) == n
    doc = _doc(name, n,
               m={(i, j, table[i][j]): 1 for i in range(n) for j in range(n)},
               e={(unit,): 1},
               delta={(i, i, i): 1 for i in range(n)},
               eps={(i,): 1 for i in range(n)})
    antipode = {(inverse[a], a): 1 for a in range(n)} if hopf else None
    return Instance(name, doc, hopf, 1, antipode)


def arrow_basis(objects, arrows):
    """Ordered object pairs in a common component, the library's basis order."""
    comp = list(range(objects))
    for s, t in arrows:
        old, new = comp[s], comp[t]
        comp = [new if c == old else c for c in comp]
    return [(u, v) for u in range(objects) for v in range(objects)
            if comp[u] == comp[v]]


def groupoid(name, objects, arrows=()) -> Instance:
    """Groupoid algebra: composition-or-zero product, group-like coproduct."""
    basis = arrow_basis(objects, arrows)
    index = {a: k for k, a in enumerate(basis)}
    n = len(basis)
    doc = _doc(name, n,
               m={(i, j, index[(u, z)]): 1
                  for i, (u, v) in enumerate(basis)
                  for j, (w, z) in enumerate(basis) if v == w},
               e={(index[(u, u)],): 1 for u in range(objects)},
               delta={(i, i, i): 1 for i in range(n)},
               eps={(i,): 1 for i in range(n)})
    antipode = {(index[(v, u)], i): 1 for i, (u, v) in enumerate(basis)}
    return Instance(name, doc, True, objects, antipode)


def super_line() -> Instance:
    """Exterior algebra on one odd generator with the graded flip."""
    doc = _doc("SL", 2,
               m={(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1},
               e={(0,): 1},
               delta={(0, 0, 0): 1, (1, 1, 0): 1, (1, 0, 1): 1},
               eps={(0,): 1},
               grading=(0, 1))
    return Instance("SL", doc, True, 1, {(0, 0): 1, (1, 1): -1})


def _table(doc, key):
    return {tuple(row[:-1]): Fraction(row[-1]) for row in doc[key]}


def dual(inst: Instance) -> Instance:
    """Transpose every structure map, swapping (m, e) with (delta, eps)."""
    d = inst.doc
    m, e, delta, eps = (_table(d, k) for k in ("m", "e", "delta", "eps"))
    name = f"dual({inst.name})"
    doc = _doc(name, d["dim"],
               m={(j, k, i): c for (i, j, k), c in delta.items()},
               e=eps,
               delta={(k, i, j): c for (i, j, k), c in m.items()},
               eps=e,
               grading=d.get("grading"))
    antipode = None if inst.antipode is None else \
        {(c, r): v for (r, c), v in inst.antipode.items()}
    return Instance(name, doc, inst.hopf, inst.base_dim, antipode)


def relabel(inst: Instance, perm) -> Instance:
    """The isomorphic instance whose basis vector perm[i] is the old b_i."""
    d = inst.doc
    doc = _doc(d["name"], d["dim"],
               **{k: {tuple(perm[i] for i in key): c
                      for key, c in _table(d, k).items()}
                  for k in ("m", "e", "delta", "eps")},
               grading=None if "grading" not in d else
               [g for _, g in sorted(zip(perm, d["grading"]))])
    antipode = None if inst.antipode is None else \
        {(perm[r], perm[c]): v for (r, c), v in inst.antipode.items()}
    return Instance(inst.name, doc, inst.hopf, inst.base_dim, antipode)


def cyclic(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def klein():
    return [[i ^ j for j in range(4)] for i in range(4)]


def max_monoid(n):
    return [[max(i, j) for j in range(n)] for i in range(n)]


FAMILIES = {
    "Z2": lambda: monoid("Z2", cyclic(2)),
    "Z3": lambda: monoid("Z3", cyclic(3)),
    "Z4": lambda: monoid("Z4", cyclic(4)),
    "V4": lambda: monoid("V4", klein()),
    "K2": lambda: groupoid("K2", 2),
    "K3": lambda: groupoid("K3", 3),
    "K4": lambda: groupoid("K4", 4),
    "G2": lambda: groupoid("G2", 2, ((0, 1),)),
    "NZ": lambda: monoid("NZ", max_monoid(2)),
    "M2": lambda: monoid("M2", [[0, 0], [0, 1]]),
    "M3": lambda: monoid("M3", max_monoid(3)),
    "M4": lambda: monoid("M4", max_monoid(4)),
    "SL": super_line,
    "Z6": lambda: monoid("Z6", cyclic(6)),
    "Z7": lambda: monoid("Z7", cyclic(7)),
    "M7": lambda: monoid("M7", max_monoid(7)),
    "G2K2": lambda: groupoid("G2K2", 4, ((0, 1),)),
}


def variant(family: str, rng: random.Random) -> Instance:
    """The family's instance or its dual, with a seeded basis relabelling.

    Duals and relabellings keep the carrier dimension, the verdict and about
    the cost, so a seed changes the files and the mix of instances but not
    the cost class of a pass.
    """
    inst = FAMILIES[family]()
    if rng.random() < 0.5:
        inst = dual(inst)
    perm = list(range(inst.n))
    rng.shuffle(perm)
    return relabel(inst, perm)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

# fixed rungs; the seed is unused
LADDER = ("Z7", "M7", "G2K2", "DZ6")

SWARM_FAMILIES = ("Z2", "Z3", "Z4", "V4", "K2", "K3", "K4", "G2",
                  "NZ", "M2", "M3", "M4", "SL")
SWARM_COMMANDS = ("check", "galois", "antipode")

# (family, d, dualised): K_omega(d) over the family, or over its dual, has a
# carrier of dimension n * d, between 8 and 16.
HOPFMOD_SLOTS = (("Z2", 8, False), ("K2", 4, True), ("SL", 4, False),
                 ("Z3", 3, True), ("K3", 3, False), ("Z4", 2, True),
                 ("V4", 2, False), ("G2", 2, True), ("K4", 2, False))


def ladder():
    """The rungs, in the order of LADDER."""
    return [FAMILIES["Z7"](), FAMILIES["M7"](), FAMILIES["G2K2"](),
            dual(FAMILIES["Z6"]())]


def swarm(seed: int):
    """Every swarm family once, each maybe dualised and relabelled, in a
    seeded order."""
    rng = random.Random(f"swarm-{seed}")
    out = [variant(family, rng) for family in SWARM_FAMILIES]
    rng.shuffle(out)
    return out


def hopfmod(seed: int):
    """(instance, d, module document) triples in a seeded order, one per slot.

    Each slot's module is moved along its own fixed change of basis; the
    seed then relabels the basis of the instance and of the carrier.  A
    relabelling only permutes the entries of the structure maps, whereas
    another change of basis gives entries of other sizes: on a carrier of
    16 that alone moved an op's time by up to a third.
    """
    rng = random.Random(f"hopfmod-{seed}")
    out = []
    for family, d, dualised in HOPFMOD_SLOTS:
        inst = FAMILIES[family]()
        if dualised:
            inst = dual(inst)
        module = twisted_k_omega(inst, d, random.Random(f"basis-{family}-{d}"))
        h_perm = rng.sample(range(inst.n), inst.n)
        m_perm = rng.sample(range(module["dim"]), module["dim"])
        out.append((relabel(inst, h_perm), d,
                    relabel_module(module, h_perm, m_perm)))
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# modules
# ---------------------------------------------------------------------------

def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col) if x) for col in zip(*b)]
            for row in a]


def change_of_basis(size, rng: random.Random):
    """An integer matrix P with det +-1 and its exact inverse Q.

    P is a row permutation of L.U: U is unit upper triangular and dense with
    entries +-2^k, L is unit lower bidiagonal with +-1.  Both are products of
    elementary row operations row_i += k * row_j, so Q is built alongside P
    without elimination.  The signs and the row order come from rng.
    """
    p = [[int(i == j) for j in range(size)] for i in range(size)]
    q = [row[:] for row in p]
    upper = [(i, i + 1, (-2, 2)) for i in reversed(range(size - 1))]
    lower = [(i + 1, i, (-1, 1)) for i in reversed(range(size - 1))]
    for i, j, choices in upper + lower:
        k = rng.choice(choices)
        p[i] = [a + k * b for a, b in zip(p[i], p[j])]   # P <- E P
        for row in q:                                     # Q <- Q E^-1
            row[j] -= k * row[i]
    perm = list(range(size))
    rng.shuffle(perm)
    return [p[r] for r in perm], [[row[r] for r in perm] for row in q]


def twisted_k_omega(inst: Instance, d: int, rng: random.Random) -> dict:
    """Module document for K_omega(d) = (H (x) V, m (x) id, delta (x) id),
    moved along a change of basis P of its carrier drawn from rng."""
    n = inst.n
    c = n * d
    m, delta = _table(inst.doc, "m"), _table(inst.doc, "delta")
    # act[i] is the matrix of h(b_i (x) -); coact[i] the b_i-component of theta
    act = [[[0] * c for _ in range(c)] for _ in range(n)]
    coact = [[[0] * c for _ in range(c)] for _ in range(n)]
    for s in range(d):
        for (i, a, k), v in m.items():
            act[i][k * d + s][a * d + s] += v
        for (a, j, k), v in delta.items():
            coact[j][k * d + s][a * d + s] += v
    p, q = change_of_basis(c, rng)
    h_rows, theta_rows = {}, {}
    for i in range(n):
        h_i = _matmul(_matmul(p, act[i]), q)
        t_i = _matmul(_matmul(p, coact[i]), q)
        for r in range(c):
            for col in range(c):
                if h_i[r][col]:
                    h_rows[(i, col, r)] = h_i[r][col]
                if t_i[r][col]:
                    theta_rows[(i, r, col)] = t_i[r][col]
    return {"name": f"K_omega({d})@{inst.name}", "dim": c,
            "h": _rows(h_rows), "theta": _rows(theta_rows)}


def relabel_module(module: dict, h_perm, m_perm) -> dict:
    """The module over relabel(inst, h_perm) whose carrier vector m_perm[r]
    is the old m_r; the entries are those of module, permuted."""
    def move(rows, perms):
        return sorted([*(perm[i] for perm, i in zip(perms, row[:-1])), row[-1]]
                      for row in rows)
    return {**module,
            "h": move(module["h"], (h_perm, m_perm, m_perm)),
            "theta": move(module["theta"], (h_perm, m_perm, m_perm))}
