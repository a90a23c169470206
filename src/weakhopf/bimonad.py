"""Instance bundle and axiom checkers for weak braided bimonads.

Checks never abort on a failing law; each law becomes a report entry whose
witness is the lexicographically first disagreeing matrix entry.  Downstream
constructions refuse instances with failing reports instead.

Stable identity ids are documented in the README.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import tensorexpr as tx
from .errors import DimensionMismatch, PrerequisiteAxiomFailed, TauPrimeRequired
from .exactmat import is_zero
from .tensorexpr import TensorMap, compose, convolution, identity_map, lift, tensor


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

    def entry(self, axiom_id: str) -> AxiomEntry:
        for e in self.entries:
            if e.axiom_id == axiom_id:
                return e
        raise KeyError(axiom_id)

    def to_jsonable(self):
        return [e.to_jsonable() for e in self.entries]


def first_difference(a, b):
    """First (row, col) where the matrices differ, or None."""
    for i, (ra, rb) in enumerate(zip(a.rowmaps, b.rowmaps)):
        if ra == rb:
            continue
        cols = [j for j in ra.keys() | rb.keys()
                if not is_zero(ra.get(j, 0) - rb.get(j, 0))]
        if cols:
            return (i, min(cols))
    return None


def compare(axiom_id, lhs, rhs, informational=False) -> AxiomEntry:
    """Report entry for lhs = rhs; both sides are TensorMaps of equal profile."""
    if lhs.dom != rhs.dom or lhs.cod != rhs.cod:
        raise DimensionMismatch(
            f"{axiom_id}: comparing {lhs.dom}->{lhs.cod} with {rhs.dom}->{rhs.cod}"
        )
    witness = first_difference(lhs.mat, rhs.mat)
    return AxiomEntry(axiom_id, witness is None, witness, informational)


def compare_all(axiom_id, pairs, informational=False) -> AxiomEntry:
    """One entry covering several equalities; witness from the first failure."""
    for lhs, rhs in pairs:
        entry = compare(axiom_id, lhs, rhs, informational)
        if not entry.holds:
            return entry
    return AxiomEntry(axiom_id, True, None, informational)


# ---------------------------------------------------------------------------
# instance bundle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Algebra:
    dim: int
    m: TensorMap  # (n, n) -> (n,)
    e: TensorMap  # () -> (n,)


@dataclass(frozen=True)
class Coalgebra:
    dim: int
    delta: TensorMap  # (n,) -> (n, n)
    eps: TensorMap    # (n,) -> ()


@dataclass(frozen=True)
class WeakYBPair:
    tau: TensorMap
    tau_prime: TensorMap
    nabla: TensorMap  # cached tau . tau_prime

    @staticmethod
    def make(tau: TensorMap, tau_prime: Optional[TensorMap] = None) -> "WeakYBPair":
        """tau_prime defaults to tau when tau is an involution."""
        if tau_prime is None:
            if not tx.maps_equal(compose([tau, tau]), identity_map(tau.dom)):
                raise TauPrimeRequired(
                    "tau is not an involution; supply tau_prime explicitly"
                )
            tau_prime = tau
        nabla = compose([tau_prime, tau])
        return WeakYBPair(tau=tau, tau_prime=tau_prime, nabla=nabla)


@dataclass(frozen=True)
class WeakBraidedBimonad:
    alg: Algebra
    coa: Coalgebra
    yb: WeakYBPair
    name: str = ""
    expected: Optional[dict] = None

    @property
    def n(self):
        return self.alg.dim

    @property
    def m(self):
        return self.alg.m

    @property
    def e(self):
        return self.alg.e

    @property
    def delta(self):
        return self.coa.delta

    @property
    def eps(self):
        return self.coa.eps

    @property
    def tau(self):
        return self.yb.tau

    @property
    def tau_prime(self):
        return self.yb.tau_prime

    @property
    def nabla(self):
        return self.yb.nabla

    def id1(self):
        return identity_map((self.n,))

    def convolve(self, f: TensorMap, g: TensorMap) -> TensorMap:
        return convolution(f, g, self.m, self.delta)

    def conv_unit(self) -> TensorMap:
        """e . eps, the identity of the convolution monoid."""
        return compose([self.eps, self.e])


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------

def check_algebra(alg: Algebra) -> AxiomReport:
    m, e = alg.m, alg.e
    one = identity_map((alg.dim,))
    report = AxiomReport()
    report.add(compare("alg.assoc",
                       compose([lift(m, 0, 1), m]),
                       compose([lift(m, 1, 0), m])))
    report.add(compare("alg.unit-left", compose([tensor(e, one), m]), one))
    report.add(compare("alg.unit-right", compose([tensor(one, e), m]), one))
    return report


def check_coalgebra(coa: Coalgebra) -> AxiomReport:
    delta, eps = coa.delta, coa.eps
    one = identity_map((coa.dim,))
    report = AxiomReport()
    report.add(compare("coa.coassoc",
                       compose([delta, lift(delta, 0, 1)]),
                       compose([delta, lift(delta, 1, 0)])))
    report.add(compare("coa.counit-left", compose([delta, tensor(eps, one)]), one))
    report.add(compare("coa.counit-right", compose([delta, tensor(one, eps)]), one))
    return report


def check_weak_yb(yb: WeakYBPair) -> AxiomReport:
    tau, tp, nabla = yb.tau, yb.tau_prime, yb.nabla
    report = AxiomReport()
    report.add(compare("yb.reg-tau", compose([tau, tp, tau]), tau))
    report.add(compare("yb.reg-tau-prime", compose([tp, tau, tp]), tp))
    report.add(compare("yb.reg-commute", compose([tp, tau]), compose([tau, tp])))

    def yang_baxter(axiom_id, t):
        tl, tr = lift(t, 0, 1), lift(t, 1, 0)
        return compare(axiom_id, compose([tl, tr, tl]), compose([tr, tl, tr]))

    report.add(yang_baxter("yb.yang-baxter-tau", tau))
    report.add(yang_baxter("yb.yang-baxter-tau-prime", tp))
    nl, nr = lift(nabla, 0, 1), lift(nabla, 1, 0)
    for axiom_id, t in (("yb.interchange-tau", tau), ("yb.interchange-tau-prime", tp)):
        tl, tr = lift(t, 0, 1), lift(t, 1, 0)
        report.add(compare(axiom_id + "-left",
                           compose([nr, tl]), compose([tl, nr])))
        report.add(compare(axiom_id + "-right",
                           compose([nl, tr]), compose([tr, nl])))
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
    counit_lhs = compose([lift(delta, 1, 1), tensor(m, m), tensor(eps, eps)])
    counit_mid = compose([lift(m, 0, 1), m, eps])
    counit_rhs = compose([lift(delta, 1, 1), lift(tp, 1, 1),
                          tensor(m, m), tensor(eps, eps)])
    report.add(compare_all("wbb6", [
        (counit_lhs, counit_mid),
        (counit_rhs, counit_mid),
    ]))
    unit_lhs = compose([tensor(e, e), tensor(delta, delta), lift(m, 1, 1)])
    unit_mid = compose([e, delta, lift(delta, 0, 1)])
    unit_rhs = compose([tensor(e, e), tensor(delta, delta), lift(tp, 1, 1),
                        lift(m, 1, 1)])
    report.add(compare_all("wbb7", [
        (unit_lhs, unit_mid),
        (unit_rhs, unit_mid),
    ]))
    return report


def check_instance(bim: WeakBraidedBimonad) -> dict:
    """All component reports keyed by section name."""
    return {
        "algebra": check_algebra(bim.alg),
        "coalgebra": check_coalgebra(bim.coa),
        "weak_yb": check_weak_yb(bim.yb),
        "wbb": check_weak_braided_bimonad(bim),
    }


def instance_passes(bim: WeakBraidedBimonad) -> bool:
    return all(r.passed for r in check_instance(bim).values())


def require_instance(bim: WeakBraidedBimonad):
    failed = []
    for report in check_instance(bim).values():
        failed.extend(report.failed_ids())
    if failed:
        raise PrerequisiteAxiomFailed(failed)
