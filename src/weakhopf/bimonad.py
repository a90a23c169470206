"""Instance bundle and axiom checkers for weak braided bimonads.

Checks never abort on a failing law; each law becomes a report entry whose
witness is the lexicographically first disagreeing matrix entry.  Downstream
constructions refuse instances with failing reports instead.

Stable identity ids are documented in the README.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from . import tensorexpr as tx
from .errors import (ArityMismatch, DimensionMismatch, InconsistencyError,
                     PrerequisiteAxiomFailed, TauPrimeRequired)
from .exactmat import first_difference
from .tensorexpr import TensorMap, compose, identity_map, lift, tensor


@dataclass(frozen=True)
class AxiomEntry:
    axiom_id: str
    holds: bool
    witness: Optional[tuple] = None  # (row, col) of first disagreement
    informational: bool = False

    def to_jsonable(self):
        return {
            "id": self.axiom_id,
            "holds": self.holds,
            "witness": list(self.witness) if self.witness is not None else None,
            "informational": self.informational,
        }


@dataclass
class AxiomReport:
    entries: list = field(default_factory=list)

    def add(self, entry: AxiomEntry):
        self.entries.append(entry)

    def extend(self, other: "AxiomReport"):
        self.entries.extend(other.entries)

    @property
    def passed(self) -> bool:
        return all(e.holds for e in self.entries if not e.informational)

    def failed_ids(self):
        return [e.axiom_id for e in self.entries if not e.holds and not e.informational]

    def gate(self):
        """The prerequisite gate: PrerequisiteAxiomFailed naming the failed
        ids if any entry fails."""
        failed = self.failed_ids()
        if failed:
            raise PrerequisiteAxiomFailed(failed)

    def require(self, context: str):
        """The gate of a theorem-backed report: InconsistencyError
        "<context>: <failed ids>" if any entry fails."""
        failed = self.failed_ids()
        if failed:
            raise InconsistencyError(f"{context}: {', '.join(failed)}")

    def to_jsonable(self):
        return [e.to_jsonable() for e in self.entries]


def compare(axiom_id, lhs, rhs, informational=False) -> AxiomEntry:
    """Report entry for lhs = rhs; both sides are TensorMaps of equal profile.
    A map equals itself without its matrix being built, as both sides of an
    interchange law are when nabla is the identity."""
    if lhs.dom != rhs.dom or lhs.cod != rhs.cod:
        raise DimensionMismatch(
            f"{axiom_id}: comparing {lhs.dom}->{lhs.cod} with {rhs.dom}->{rhs.cod}"
        )
    witness = None if lhs is rhs else first_difference(lhs.mat, rhs.mat)
    return AxiomEntry(axiom_id, witness is None, witness, informational)


def compare_all(axiom_id, pairs) -> AxiomEntry:
    """One entry covering several equalities; witness from the first failure."""
    for lhs, rhs in pairs:
        entry = compare(axiom_id, lhs, rhs)
        if not entry.holds:
            return entry
    return AxiomEntry(axiom_id, True, None)


# ---------------------------------------------------------------------------
# instance bundle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeakBraidedBimonad:
    """(H, m, e, delta, eps) with the weak Yang-Baxter pair (tau, tau_prime).

    tau_prime defaults to tau itself when tau is an involution.  nabla =
    tau . tau_prime is derived from the pair on first read and kept, so
    ``dataclasses.replace``, which makes a new value, derives it afresh.
    When the product is the identity, nabla is held as ``identity_map``,
    which has no steps, so a composite through it multiplies nothing.
    """
    m: TensorMap      # (n, n) -> (n,)
    e: TensorMap      # () -> (n,)
    delta: TensorMap  # (n,) -> (n, n)
    eps: TensorMap    # (n,) -> ()
    tau: TensorMap
    tau_prime: Optional[TensorMap] = None
    name: str = ""
    expected: Optional[dict] = None

    def __post_init__(self):
        tau = self.tau
        if self.tau_prime is None:
            one = identity_map(tau.dom)
            if compose([tau, tau]) != one:
                raise TauPrimeRequired(
                    "tau is not an involution; supply tau_prime explicitly"
                )
            object.__setattr__(self, "tau_prime", tau)
            # the product is checked already: nabla is the identity
            self.__dict__["nabla"] = one

    @cached_property
    def nabla(self) -> TensorMap:
        nabla = compose([self.tau_prime, self.tau])
        one = identity_map(nabla.dom)
        return one if nabla == one else nabla

    @property
    def n(self):
        return self.m.cod[0]

    def id1(self):
        return identity_map((self.n,))

    def convolve(self, f: TensorMap, g: TensorMap) -> TensorMap:
        """The convolution product f * g = m . (f (x) g) . delta of two
        endomaps of H."""
        if f.dom != f.cod or g.dom != g.cod or f.dom != g.dom:
            raise ArityMismatch(
                "convolution needs two endomaps of the same carrier")
        return compose([self.delta, tensor(f, g), self.m])


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------

def action_laws(ids, m, e, act, right=False) -> list:
    """The assoc and unit entries, under ids, of the action act of the
    algebra (m, e): act is (a, x) -> x, or (x, a) -> x when right is set.
    A law whose id is None is left out."""
    t = (lambda f, g: tensor(g, f)) if right else tensor
    one, idx = identity_map(m.cod), identity_map(act.cod)
    laws = [lambda: (compose([t(m, idx), act]), compose([t(one, act), act])),
            lambda: (compose([t(e, idx), act]), idx)]
    return [compare(i, *law()) for i, law in zip(ids, laws) if i is not None]


def coaction_laws(ids, delta, eps, coact, right=False) -> list:
    """The coassoc and counit entries, under ids, of the coaction coact of
    the coalgebra (delta, eps): coact is x -> (c, x), or x -> (x, c) when
    right is set.  A law whose id is None is left out."""
    t = (lambda f, g: tensor(g, f)) if right else tensor
    one, idx = identity_map(delta.dom), identity_map(coact.dom)
    laws = [lambda: (compose([coact, t(delta, idx)]),
                     compose([coact, t(one, coact)])),
            lambda: (compose([coact, t(eps, idx)]), idx)]
    return [compare(i, *law()) for i, law in zip(ids, laws) if i is not None]


def check_algebra(bim: WeakBraidedBimonad) -> AxiomReport:
    """H as its own left module, and the unit law of it as a right one."""
    m, e = bim.m, bim.e
    return AxiomReport(
        action_laws(("alg.assoc", "alg.unit-left"), m, e, m)
        + action_laws((None, "alg.unit-right"), m, e, m, right=True))


def check_coalgebra(bim: WeakBraidedBimonad) -> AxiomReport:
    """H as its own left comodule, and the counit law of it as a right one."""
    delta, eps = bim.delta, bim.eps
    return AxiomReport(
        coaction_laws(("coa.coassoc", "coa.counit-left"), delta, eps, delta)
        + coaction_laws((None, "coa.counit-right"), delta, eps, delta,
                        right=True))


def check_weak_yb(bim: WeakBraidedBimonad) -> AxiomReport:
    """The weak YB laws.  With tau_prime = tau each tau-prime law is its tau
    law over again, so the tau entry is reported under both ids."""
    tau, tp, nabla = bim.tau, bim.tau_prime, bim.nabla
    nl, nr = lift(nabla, 0, 1), lift(nabla, 1, 0)

    def laws(name, t, u):
        tl, tr = lift(t, 0, 1), lift(t, 1, 0)
        return [
            compare(f"yb.reg-{name}", compose([t, u, t]), t),
            compare(f"yb.yang-baxter-{name}",
                    compose([tl, tr, tl]), compose([tr, tl, tr])),
            compare(f"yb.interchange-{name}-left",
                    compose([nr, tl]), compose([tl, nr])),
            compare(f"yb.interchange-{name}-right",
                    compose([nl, tr]), compose([tr, nl])),
        ]

    first = laws("tau", tau, tp)
    if tp is tau:
        second = [dataclasses.replace(
            e, axiom_id=e.axiom_id.replace("-tau", "-tau-prime", 1))
            for e in first]
    else:
        second = laws("tau-prime", tp, tau)
    commute = compare("yb.reg-commute", nabla, compose([tau, tp]))
    report = AxiomReport()
    for entry in (first[0], second[0], commute, first[1], second[1],
                  *first[2:], *second[2:]):
        report.add(entry)
    return report


def check_weak_braided_bimonad(bim: WeakBraidedBimonad) -> AxiomReport:
    m, e, delta, eps = bim.m, bim.e, bim.delta, bim.eps
    tau, tp, nabla = bim.tau, bim.tau_prime, bim.nabla
    one = bim.id1()
    report = AxiomReport()
    report.add(compare_all("wbb1", [
        (compose([nabla, m]), m),
        (compose([delta, nabla]), delta),
    ]))
    report.add(compare_all("wbb2", [
        (compose([tensor(one, e), nabla]), compose([tensor(e, one), tau])),
        (compose([nabla, tensor(one, eps)]), compose([tau, tensor(eps, one)])),
        (compose([tensor(e, one), nabla]), compose([tensor(one, e), tau])),
        (compose([nabla, tensor(eps, one)]), compose([tau, tensor(one, eps)])),
    ]))
    report.add(compare_all("wbb3", [
        (compose([tau, lift(delta, 0, 1)]),
         compose([lift(delta, 1, 0), lift(tau, 0, 1), lift(tau, 1, 0)])),
        (compose([lift(m, 0, 1), tau]),
         compose([lift(tau, 1, 0), lift(tau, 0, 1), lift(m, 1, 0)])),
    ]))
    report.add(compare_all("wbb4", [
        (compose([tau, lift(delta, 1, 0)]),
         compose([lift(delta, 0, 1), lift(tau, 1, 0), lift(tau, 0, 1)])),
        (compose([lift(m, 1, 0), tau]),
         compose([lift(tau, 0, 1), lift(tau, 1, 0), lift(m, 0, 1)])),
    ]))
    report.add(compare("wbb5",
                       compose([m, delta]),
                       compose([tensor(delta, delta), lift(tau, 1, 1),
                                tensor(m, m)])))
    report.add(compare_all("wbb6", _counit_chains(m, delta, eps, tp)))
    # the unit chains are the counit chains of H*, transposed back
    t = tx.transpose
    unit = _counit_chains(t(delta), t(m), t(e), t(tp))
    report.add(compare_all("wbb7", [(t(lhs), t(rhs)) for lhs, rhs in unit]))
    return report


def _counit_chains(m, delta, eps, tp):
    """wbb6 as (lhs, rhs) pairs: eps . m . (m (x) id) equals
    (eps (x) eps) . (m (x) m) . (id (x) delta (x) id), also with
    id (x) tp (x) id after the delta."""
    mid = compose([lift(m, 0, 1), m, eps])
    return [
        (compose([lift(delta, 1, 1), tensor(m, m), tensor(eps, eps)]), mid),
        (compose([lift(delta, 1, 1), lift(tp, 1, 1), tensor(m, m),
                  tensor(eps, eps)]), mid),
    ]


def check_instance(bim: WeakBraidedBimonad) -> dict:
    """All component reports keyed by section name."""
    return {
        "algebra": check_algebra(bim),
        "coalgebra": check_coalgebra(bim),
        "weak_yb": check_weak_yb(bim),
        "wbb": check_weak_braided_bimonad(bim),
    }


def require_instance(bim: WeakBraidedBimonad):
    report = AxiomReport()
    for part in check_instance(bim).values():
        report.extend(part)
    report.gate()
