"""The base object H^xibar: splitting, Frobenius data, actions, pi-splitting.

The base carrier is the abstract r-dimensional space of the splitting
(q, iota) of xibar, not a subspace of H; all base maps are conjugated through
(q, iota):

    m_base     = q . m . (iota (x) iota)
    e_base     = q . e
    delta_base = (q (x) q) . delta . iota
    eps_base   = eps . iota
    upsilon    = (q (x) q) . delta . e
"""

from __future__ import annotations

from dataclasses import dataclass

from .bimonad import (AxiomReport, WeakBraidedBimonad, action_laws,
                      coaction_laws, compare)
from .entwining import EntwiningData
from .errors import InconsistencyError
from .exactmat import rank, same_column_span
from .tensorexpr import (TensorMap, compose, equaliser, identity_map, split,
                         tensor)


@dataclass(frozen=True)
class BaseObject:
    q: TensorMap        # (n,) -> (r,)
    iota: TensorMap     # (r,) -> (n,)
    m_base: TensorMap   # (r, r) -> (r,)
    e_base: TensorMap   # () -> (r,)
    delta_base: TensorMap  # (r,) -> (r, r)
    eps_base: TensorMap    # (r,) -> ()
    upsilon: TensorMap     # () -> (r, r)

    @property
    def r(self):
        return self.q.cod[0]


@dataclass(frozen=True)
class ActionData:
    rho_l: TensorMap   # (r, n) -> (n,)
    rho_r: TensorMap   # (n, r) -> (n,)
    theta_l: TensorMap  # (n,) -> (r, n)
    theta_r: TensorMap  # (n,) -> (n, r)
    report: AxiomReport


def build_base(bim: WeakBraidedBimonad, ent: EntwiningData) -> BaseObject:
    """Split xibar and conjugate the (co)monad structure onto the base.

    Asserts the split (co)equaliser shapes: iota equalises delta with
    (chi (x) id).delta (also in the unit-precomposed form), the agreement
    locus of that pair is exactly the image of iota, and q coequalises m
    with m.(chibar (x) id) with cokernel of the correct dimension.
    """
    n = bim.n
    one = bim.id1()
    q, iota = split(ent.xibar)

    m, e, delta, eps = bim.m, bim.e, bim.delta, bim.eps
    base = BaseObject(
        q=q, iota=iota,
        m_base=compose([tensor(iota, iota), m, q]),
        e_base=compose([e, q]),
        delta_base=compose([iota, delta, tensor(q, q)]),
        eps_base=compose([iota, eps]),
        upsilon=compose([e, delta, tensor(q, q)]),
    )

    # split equaliser of (delta, (chi (x) id).delta) through iota
    upper = compose([iota, delta])
    lower = compose([iota, delta, tensor(ent.chi, one)])
    report = AxiomReport()
    report.add(compare("base.equaliser-chain", lower, upper))
    chain = compose([tensor(e, one), tensor(delta, one), tensor(one, m)])
    report.add(compare("base.equaliser-unit-form",
                       compose([iota, chain]), upper))
    locus = equaliser(compose([delta, tensor(ent.chi, one)]), delta)
    if not same_column_span(locus.mat, iota.mat):
        raise InconsistencyError("base.equaliser-locus: kernel span != image(iota)")

    # split coequaliser of (m, m.(chibar (x) id)) through q
    co_d = compose([tensor(ent.chibar, one), m]).mat - m.mat
    report.add(compare("base.coequaliser-chain",
                       compose([tensor(ent.chibar, one), m, q]),
                       compose([m, q])))
    if rank(co_d) != n - base.r:
        raise InconsistencyError("base.coequaliser-rank: cokernel dim != r")
    report.require("build_base")
    return base


def check_frobenius_separable(base: BaseObject) -> AxiomReport:
    """Frobenius square, separability, and the upsilon identities."""
    r = base.r
    one = identity_map((r,))
    mb, eb, db, epsb, ups = (base.m_base, base.e_base, base.delta_base,
                             base.eps_base, base.upsilon)
    report = AxiomReport(
        action_laws(("base.alg.assoc", "base.alg.unit-left"), mb, eb, mb)
        + action_laws((None, "base.alg.unit-right"), mb, eb, mb, right=True)
        + coaction_laws(("base.coa.coassoc", "base.coa.counit-left"),
                        db, epsb, db)
        + coaction_laws((None, "base.coa.counit-right"), db, epsb, db,
                        right=True))
    frob = compose([mb, db])
    report.add(compare("base.frobenius-left",
                       frob, compose([tensor(db, one), tensor(one, mb)])))
    report.add(compare("base.frobenius-right",
                       frob, compose([tensor(one, db), tensor(mb, one)])))
    report.add(compare("base.separable", compose([db, mb]), one))
    report.add(compare("base.upsilon-unit", compose([ups, mb]), eb))
    report.add(compare("base.upsilon-left",
                       db, compose([tensor(ups, one), tensor(one, mb)])))
    report.add(compare("base.upsilon-right",
                       db, compose([tensor(one, ups), tensor(mb, one)])))
    return report


def build_actions(bim: WeakBraidedBimonad, base: BaseObject) -> ActionData:
    """H as H^xibar-bimodule and -bicomodule, with all laws verified."""
    one = bim.id1()
    idr = identity_map((base.r,))
    m, delta = bim.m, bim.delta
    rho_l = compose([tensor(base.iota, one), m])
    rho_r = compose([tensor(one, base.iota), m])
    theta_l = compose([delta, tensor(base.q, one)])
    theta_r = compose([delta, tensor(one, base.q)])

    alg = base.m_base, base.e_base
    coa = base.delta_base, base.eps_base
    report = AxiomReport([
        *action_laws(("act.left-assoc", "act.left-unit"), *alg, rho_l),
        *action_laws(("act.right-assoc", "act.right-unit"), *alg, rho_r,
                     right=True),
        compare("act.bimodule",
                compose([tensor(rho_l, idr), rho_r]),
                compose([tensor(idr, rho_r), rho_l])),
        *coaction_laws(("coact.left-coassoc", "coact.left-counit"), *coa,
                       theta_l),
        *coaction_laws(("coact.right-coassoc", "coact.right-counit"), *coa,
                       theta_r, right=True),
        compare("coact.bicomodule",
                compose([theta_l, tensor(idr, theta_r)]),
                compose([theta_r, tensor(theta_l, idr)])),
        compare("act.q-module-morphism",
                compose([tensor(one, base.iota), m, base.q]),
                compose([tensor(base.q, idr), base.m_base])),
    ])
    report.require("build_actions")
    return ActionData(rho_l=rho_l, rho_r=rho_r, theta_l=theta_l, theta_r=theta_r,
                      report=report)


def check_pi_splitting(bim: WeakBraidedBimonad, base: BaseObject,
                       acts: ActionData) -> AxiomReport:
    """Splitting witness for the change-of-base coequaliser pair.

    Specialised at the left regular module (H, rho_l), the pair is
    (rho_r (x) id_H, id_H (x) rho_l) on H (x) H^xibar (x) H and

        pi = (rho_r (x) id (x) id) . (id (x) delta_base (x) id)
                                   . (id (x) e_base (x) id).

    pi.section asserts (rho_r (x) id) . pi = id (needs separability);
    pi.coequalise asserts the split-pair equation for the other leg.
    """
    one = bim.id1()
    idr = identity_map((base.r,))
    pi = compose([
        tensor(one, base.e_base, one),
        tensor(one, base.delta_base, one),
        tensor(acts.rho_r, idr, one),
    ])
    d_act = tensor(one, acts.rho_l)   # id_H (x) rho_l
    d_mul = tensor(acts.rho_r, one)   # rho_r (x) id_H
    report = AxiomReport()
    report.add(compare("pi.section",
                       compose([pi, d_mul]), identity_map((bim.n, bim.n))))
    report.add(compare("pi.coequalise",
                       compose([d_mul, pi, d_act]),
                       compose([d_act, pi, d_act])))
    return report
