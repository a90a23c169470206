"""Mixed bimodules (Hopf modules), induced idempotents, coinvariants, round trip.

Carriers are explicit finite-dimensional spaces with structure matrices; all
functor-level statements are evaluated objectwise.  Induced structures on
quotients are built by factor-and-verify, mirroring the galois policy.  The
induced monad at a comodule is the induced comonad on H*, transposed back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import exactmat
from .baseobject import BaseObject
from .bimonad import (AxiomEntry, AxiomReport, WeakBraidedBimonad,
                      action_laws, coaction_laws, compare)
from .entwining import EntwiningData
from .errors import (
    FactorizationFailed,
    InconsistencyError,
    PrerequisiteAxiomFailed,
    RoundTripFailed,
)
from .hopf import Antipode
from .instances import dual_instance
from .tensorexpr import (TensorMap, coequaliser, compose, equaliser,
                         factor_through, identity_map, split, tensor,
                         transpose)


@dataclass(frozen=True)
class MixedBimodule:
    dim: int
    h: TensorMap
    theta: TensorMap
    name: str = ""


@dataclass(frozen=True)
class InducedComonad:
    idempotent: TensorMap          # Gamma on H(carrier)
    p: TensorMap                   # its splitting: H(carrier) -> G
    i: TensorMap                   # G -> H(carrier)
    action: TensorMap              # H-action on the split object
    delta_component: TensorMap     # G -> GG
    eps_component: TensorMap       # G -> carrier
    report: AxiomReport


@dataclass(frozen=True)
class InducedMonad:
    idempotent: TensorMap          # Gamma' on H(carrier)
    p: TensorMap                   # its splitting: H(carrier) -> T
    i: TensorMap                   # T -> H(carrier)
    coaction: TensorMap            # coaction on the split object
    m_component: TensorMap         # TT -> T
    e_component: TensorMap         # carrier -> T
    report: AxiomReport


@dataclass(frozen=True)
class Coinvariants:
    dim: int
    inclusion: TensorMap           # (dim,) -> (d,)
    projection: Optional[TensorMap]  # retraction from the beta splitting
    report: AxiomReport


def check_module(bim: WeakBraidedBimonad, h: TensorMap) -> AxiomReport:
    """The module laws of the action h: (n, d) -> (d,)."""
    return AxiomReport(action_laws(("mod.assoc", "mod.unit"), bim.m, bim.e, h))


def check_comodule(bim: WeakBraidedBimonad, theta: TensorMap) -> AxiomReport:
    """The comodule laws of the coaction theta: (d,) -> (n, d)."""
    return AxiomReport(coaction_laws(("com.coassoc", "com.counit"),
                                     bim.delta, bim.eps, theta))


def check_mixed_bimodule(bim: WeakBraidedBimonad, ent: EntwiningData,
                         mod: MixedBimodule) -> AxiomReport:
    """Module laws, comodule laws, and the omega-compatibility square
    theta . h = (id (x) h) . (omega (x) id) . (id (x) theta)."""
    idd = identity_map((mod.dim,))
    one = bim.id1()
    report = AxiomReport()
    report.extend(check_module(bim, mod.h))
    report.extend(check_comodule(bim, mod.theta))
    report.add(compare("mix.omega-square",
                       compose([mod.h, mod.theta]),
                       compose([tensor(one, mod.theta),
                                tensor(ent.omega, idd),
                                tensor(one, mod.h)])))
    return report


def K_omega(bim: WeakBraidedBimonad, d: int) -> MixedBimodule:
    """The canonical mixed bimodule (H (x) V, m (x) id, delta (x) id) on a
    d-dimensional carrier V."""
    n = bim.n
    idd = identity_map((d,))
    h = TensorMap((n, n * d), (n * d,), tensor(bim.m, idd).mat)
    theta = TensorMap((n * d,), (n, n * d), tensor(bim.delta, idd).mat)
    return MixedBimodule(dim=n * d, h=h, theta=theta, name=f"K_omega({d})")


def induced_comonad_on_module(bim: WeakBraidedBimonad, ent: EntwiningData,
                              h: TensorMap) -> InducedComonad:
    """Split the comonad idempotent Gamma at the module (a, h) and verify the
    induced comonad component laws at this object (counit laws and
    coassociativity, plus module-morphism facts for both components)."""
    check_module(bim, h).gate()
    gamma, p, i, act, delta0, eps0, laws = _induced_comonad(
        bim, ent.omega, h)
    report = AxiomReport()
    for axiom_id, lhs, rhs in laws:
        report.add(compare(axiom_id, lhs, rhs))
    return InducedComonad(idempotent=gamma, p=p, i=i, action=act,
                          delta_component=delta0, eps_component=eps0,
                          report=report)


def _induced_comonad(bim, omega, h0):
    """Gamma at the module h0 split, the action on the split object, the
    comonad components and the (id, lhs, rhs) laws at this object."""
    one = bim.id1()

    def level(h):
        # Gamma = (id (x) h) . (omega (x) id) . (e (x) id (x) id) on H(carrier)
        idd = identity_map(h.cod)
        gamma = compose([tensor(bim.e, one, idd), tensor(omega, idd),
                         tensor(one, h)])
        p, i = split(gamma)  # raises NotIdempotent: fatal
        # on the split object: p . (id (x) h) . (omega (x) id) . (id (x) i)
        act = compose([tensor(one, i), tensor(omega, idd), tensor(one, h), p])
        return gamma, p, i, act

    gamma0, p0, i0, act1 = level(h0)
    _, p1, i1, act2 = level(act1)
    _, p2, i2, _ = level(act2)

    idd0, idg1 = identity_map(h0.cod), identity_map(act1.cod)
    eps0 = compose([i0, tensor(bim.eps, idd0)])   # G -> carrier
    delta0 = compose([i0, tensor(bim.delta, idd0), tensor(one, p0), p1])
    delta1 = compose([i1, tensor(bim.delta, idg1), tensor(one, p1), p2])
    g_of_delta0 = compose([i1, tensor(one, delta0), p2])
    g_of_eps0 = compose([i1, tensor(one, eps0), p0])
    eps_at_g = compose([i1, tensor(bim.eps, idg1)])

    laws = [
        ("ind.action-assoc", compose([tensor(bim.m, idg1), act1]),
         compose([tensor(one, act1), act1])),
        ("ind.action-unit", compose([tensor(bim.e, idg1), act1]), idg1),
        ("ind.counit-left", compose([delta0, eps_at_g]), idg1),
        ("ind.counit-right", compose([delta0, g_of_eps0]), idg1),
        ("ind.coassoc", compose([delta0, delta1]),
         compose([delta0, g_of_delta0])),
        ("ind.delta-module-morphism", compose([act1, delta0]),
         compose([tensor(one, delta0), act2])),
        ("ind.eps-module-morphism", compose([act1, eps0]),
         compose([tensor(one, eps0), h0])),
    ]
    return gamma0, p0, i0, act1, delta0, eps0, laws


# each comonad law on H* at (a, theta^T), transposed, is a monad law at the
# comodule (a, theta)
_MONAD_LAW_IDS = {
    "ind.action-assoc": "ind.coaction-coassoc",
    "ind.action-unit": "ind.coaction-counit",
    "ind.counit-left": "ind.unit-left",
    "ind.counit-right": "ind.unit-right",
    "ind.coassoc": "ind.assoc",
    "ind.delta-module-morphism": "ind.m-comodule-morphism",
    "ind.eps-module-morphism": "ind.e-comodule-morphism",
}


def induced_monad_on_comodule(bim: WeakBraidedBimonad, ent: EntwiningData,
                              theta: TensorMap) -> InducedMonad:
    """Split the monad idempotent Gamma' at (a, theta) and verify the induced
    monad component laws at this object.

    Gamma' is the transpose of Gamma at the module (a, theta^T) of H*, whose
    omega is omega^T, so the induced comonad there, transposed back, is the
    induced monad: its coaction, m and e components and laws.  The splitting
    is the transpose (i^T, p^T) of the one of Gamma, and each law compares
    the transposed-back sides.
    """
    check_comodule(bim, theta).gate()
    gamma, p, i, act, delta0, eps0, laws = _induced_comonad(
        dual_instance(bim), transpose(ent.omega), transpose(theta))
    report = AxiomReport()
    for axiom_id, lhs, rhs in laws:
        report.add(compare(_MONAD_LAW_IDS[axiom_id], transpose(lhs),
                           transpose(rhs)))
    return InducedMonad(
        idempotent=transpose(gamma), p=transpose(i), i=transpose(p),
        coaction=transpose(act), m_component=transpose(delta0),
        e_component=transpose(eps0), report=report)


def coinvariants(bim: WeakBraidedBimonad, ent: EntwiningData,
                 antipode: Optional[Antipode], mod: MixedBimodule,
                 laws: Optional[AxiomReport] = None) -> Coinvariants:
    """Equaliser of theta and (id (x) h) . (delta (x) id) . (e (x) id).

    With an antipode, additionally verify that beta = h . (S (x) id) . theta
    is idempotent, that its splitting computes the same subspace, and the
    split-witness identities of the adjunction units/counits.  The split
    image, of independent columns, is the equaliser when it lies in the
    kernel of the difference and has its dimension.  ``laws`` is the
    check_mixed_bimodule report of mod if the caller has it already.
    """
    if laws is None:
        laws = check_mixed_bimodule(bim, ent, mod)
    laws.gate()
    idd = identity_map((mod.dim,))
    one = bim.id1()
    canonical = compose([
        tensor(bim.e, idd), tensor(bim.delta, idd), tensor(one, mod.h),
    ])
    report = AxiomReport()
    if antipode is None:
        inclusion = equaliser(mod.theta, canonical)
        return Coinvariants(dim=inclusion.dom[0], inclusion=inclusion,
                            projection=None, report=report)
    beta = compose([mod.theta, tensor(antipode.map, idd), mod.h])
    idem = compare("coinv.beta-idem", compose([beta, beta]), beta)
    report.add(idem)
    if not idem.holds:
        raise InconsistencyError("coinv.beta-idem failed with an antipode")
    q_map, i_map = split(beta)
    diff = mod.theta.mat - canonical.mat
    report.add(AxiomEntry(
        "coinv.beta-span",
        not any(exactmat.mul(diff, i_map.mat).rowmaps)
        and i_map.dom[0] == mod.dim - exactmat.rank(diff), None))
    report.add(compare("coinv.prop75-square",
                       compose([mod.theta, tensor(one, beta), mod.h]), idd))
    report.add(compare("coinv.prop76-splitwitness",
                       compose([mod.theta, tensor(one, q_map),
                                tensor(one, i_map), mod.h]), idd))
    return Coinvariants(dim=i_map.dom[0], inclusion=i_map,
                        projection=q_map, report=report)


def induce_from_base(bim: WeakBraidedBimonad, base: BaseObject,
                     g: TensorMap):
    """H (x)_{base} N with its induced action and coaction (factor-and-verify),
    for the base module N with action g: (r, d) -> (d,)."""
    one = bim.id1()
    idn = identity_map(g.cod)
    rho_r = compose([tensor(one, base.iota), bim.m])
    l_n = coequaliser(tensor(rho_r, idn), tensor(one, g))
    h_q = factor_through(compose([tensor(bim.m, idn), l_n]), tensor(one, l_n),
                         "induced module action")
    theta_q = factor_through(
        compose([tensor(bim.delta, idn), tensor(one, l_n)]), l_n,
        "induced module coaction")
    induced = MixedBimodule(dim=l_n.cod[0], h=h_q, theta=theta_q,
                            name=f"induced({g.cod[0]})")
    return induced, l_n


def fundamental_roundtrip(bim: WeakBraidedBimonad, ent: EntwiningData,
                          base: BaseObject, antipode: Antipode,
                          mod: MixedBimodule,
                          coin: Optional[Coinvariants] = None) -> AxiomReport:
    """Round trip M -> coinvariants N -> induced H (x)_{base} N -> M.

    The comparison map is induced by h . (id (x) inclusion); it must be
    bijective (RoundTripFailed otherwise).  The symmetric leg starts from the
    computed base module N and checks that the unit map into the coinvariants
    of the induced module is an isomorphism of base modules.  ``coin`` is
    ``coinvariants(bim, ent, antipode, mod)`` if the caller has it already.
    """
    if antipode is None:
        raise PrerequisiteAxiomFailed(["hopf.antipode-missing"])
    one = bim.id1()
    if coin is None:
        coin = coinvariants(bim, ent, antipode, mod)
    report = AxiomReport()
    report.extend(coin.report)

    idr = identity_map((base.r,))
    idn = identity_map((coin.dim,))
    # the action of the base on N = coinvariants, before it is projected
    acting = compose([tensor(base.iota, coin.inclusion), mod.h])
    g = compose([acting, coin.projection])
    report.add(compare("rt.N-action-lands", acting,
                       compose([g, coin.inclusion])))
    report.extend(AxiomReport(action_laws(("rt.N-assoc", "rt.N-unit"),
                                          base.m_base, base.e_base, g)))

    induced, l_n = induce_from_base(bim, base, g)
    induced_laws = check_mixed_bimodule(bim, ent, induced)
    report.extend(induced_laws)

    # comparison map: factor h . (id (x) inclusion) through the quotient;
    # l_n is the cokernel of the relations of N, so it factors exactly when
    # it respects them
    phi = compose([tensor(one, coin.inclusion), mod.h])
    try:
        comp = factor_through(phi, l_n, "comparison map")
    except FactorizationFailed as exc:
        raise RoundTripFailed(str(exc), rank_defect=-1) from None
    comp_rank = exactmat.rank(comp.mat)
    bijective = induced.dim == mod.dim and comp_rank == mod.dim
    report.add(AxiomEntry("rt.comparison-bijective", bijective,
                          None if bijective else (comp_rank, 0)))
    if not bijective:
        raise RoundTripFailed("comparison map is not bijective",
                              rank_defect=max(mod.dim, induced.dim) - comp_rank)
    report.add(compare("rt.comparison-module",
                       compose([tensor(one, comp), mod.h]),
                       compose([induced.h, comp])))
    report.add(compare("rt.comparison-comodule",
                       compose([comp, mod.theta]),
                       compose([induced.theta, tensor(one, comp)])))

    # symmetric leg: N -> induced -> coinvariants, unit map is a base iso
    coin2 = coinvariants(bim, ent, antipode, induced, laws=induced_laws)
    unit = compose([tensor(bim.e, idn), l_n])
    _, unit_in = exactmat.solve(coin2.inclusion.mat, unit.mat)
    lands = unit_in is not None
    report.add(AxiomEntry("rt.unit-lands", lands, None))
    if not lands:
        raise RoundTripFailed("unit map does not land in the coinvariants",
                              rank_defect=-1)
    unit_rank = exactmat.rank(unit_in)
    iso = coin2.dim == coin.dim and unit_rank == coin.dim
    report.add(AxiomEntry("rt.unit-iso", iso,
                          None if iso else (unit_rank, 0)))
    if not iso:
        raise RoundTripFailed("unit map is not an isomorphism onto the "
                              "coinvariants of the induced module",
                              rank_defect=max(coin.dim, coin2.dim) - unit_rank)
    unit_map = TensorMap((coin.dim,), (coin2.dim,), unit_in)
    g2 = compose([tensor(base.iota, coin2.inclusion), induced.h,
                  coin2.projection])
    report.add(compare("rt.unit-base-morphism",
                       compose([g, unit_map]),
                       compose([tensor(idr, unit_map), g2])))
    return report
