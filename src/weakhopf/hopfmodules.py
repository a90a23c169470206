"""Mixed bimodules (Hopf modules), induced idempotents, coinvariants, round trip.

Carriers are explicit finite-dimensional spaces with structure matrices; all
functor-level statements are evaluated objectwise.  Induced structures on
quotients are built by factor-and-verify, mirroring the galois policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import exactmat
from .baseobject import BaseObject
from .bimonad import AxiomEntry, AxiomReport, WeakBraidedBimonad, compare
from .entwining import EntwiningData
from .errors import (
    FactorizationFailed,
    InconsistencyError,
    PrerequisiteAxiomFailed,
    RoundTripFailed,
)
from .exactmat import kernel_basis, same_column_span, split_idempotent
from .galois import _factor_through_surjection
from .hopf import Antipode
from .tensorexpr import TensorMap, compose, identity_map, tensor


@dataclass(frozen=True)
class HModule:
    dim: int
    h: TensorMap  # (n, d) -> (d,)


@dataclass(frozen=True)
class HComodule:
    dim: int
    theta: TensorMap  # (d,) -> (n, d)


@dataclass(frozen=True)
class MixedBimodule:
    dim: int
    h: TensorMap
    theta: TensorMap
    name: str = ""


@dataclass(frozen=True)
class BaseModule:
    dim: int
    g: TensorMap  # (r, d) -> (d,)


@dataclass(frozen=True)
class InducedComonad:
    idempotent: TensorMap          # Gamma on H(carrier)
    splitting: exactmat.Splitting
    action: TensorMap              # H-action on the split object
    delta_component: TensorMap     # G -> GG
    eps_component: TensorMap       # G -> carrier
    report: AxiomReport


@dataclass(frozen=True)
class InducedMonad:
    idempotent: TensorMap
    splitting: exactmat.Splitting
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


def check_module(bim: WeakBraidedBimonad, mod: HModule) -> AxiomReport:
    idd = identity_map((mod.dim,))
    one = bim.id1()
    report = AxiomReport()
    report.add(compare("mod.assoc",
                       compose([tensor(bim.m, idd), mod.h]),
                       compose([tensor(one, mod.h), mod.h])))
    report.add(compare("mod.unit", compose([tensor(bim.e, idd), mod.h]), idd))
    return report


def check_comodule(bim: WeakBraidedBimonad, com: HComodule) -> AxiomReport:
    idd = identity_map((com.dim,))
    one = bim.id1()
    report = AxiomReport()
    report.add(compare("com.coassoc",
                       compose([com.theta, tensor(bim.delta, idd)]),
                       compose([com.theta, tensor(one, com.theta)])))
    report.add(compare("com.counit",
                       compose([com.theta, tensor(bim.eps, idd)]), idd))
    return report


def check_mixed_bimodule(bim: WeakBraidedBimonad, ent: EntwiningData,
                         mod: MixedBimodule) -> AxiomReport:
    """Module laws, comodule laws, and the omega-compatibility square
    theta . h = (id (x) h) . (omega (x) id) . (id (x) theta)."""
    idd = identity_map((mod.dim,))
    one = bim.id1()
    report = AxiomReport()
    report.extend(check_module(bim, HModule(mod.dim, mod.h)))
    report.extend(check_comodule(bim, HComodule(mod.dim, mod.theta)))
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


def _gamma_at_module(bim, ent, h: TensorMap, d: int) -> TensorMap:
    # Gamma = (id (x) h) . (omega (x) id) . (e (x) id (x) id) on H(carrier)
    one = bim.id1()
    idd = identity_map((d,))
    return compose([
        tensor(bim.e, one, idd), tensor(ent.omega, idd), tensor(one, h),
    ])


def _action_on_split(bim, ent, h, d, p_map, i_map):
    # p . (id (x) h) . (omega (x) id) . (id (x) i)
    one = bim.id1()
    idd = identity_map((d,))
    return compose([
        tensor(one, i_map), tensor(ent.omega, idd), tensor(one, h), p_map,
    ])


def _split_maps(split, dom_dims):
    g = split.rank
    p_map = TensorMap(dom_dims, (g,), split.p)
    i_map = TensorMap((g,), dom_dims, split.i)
    return p_map, i_map


def induced_comonad_on_module(bim: WeakBraidedBimonad, ent: EntwiningData,
                              mod: HModule) -> InducedComonad:
    """Split the comonad idempotent Gamma at (a, h) and verify the induced
    comonad component laws at this object (counit laws and coassociativity,
    plus module-morphism facts for both components)."""
    law_report = check_module(bim, mod)
    if not law_report.passed:
        raise PrerequisiteAxiomFailed(law_report.failed_ids())
    n = bim.n
    one = bim.id1()

    def level(h, d):
        gamma = _gamma_at_module(bim, ent, h, d)
        split = split_idempotent(gamma.mat)  # raises NotIdempotent: fatal
        p_map, i_map = _split_maps(split, (n, d))
        act = _action_on_split(bim, ent, h, d, p_map, i_map)
        return gamma, split, p_map, i_map, act

    d0, h0 = mod.dim, mod.h
    gamma0, split0, p0, i0, act1 = level(h0, d0)
    g1 = split0.rank
    _, split1, p1, i1, act2 = level(act1, g1)
    g2 = split1.rank
    _, split2, p2, i2, _ = level(act2, g2)

    idd0, idg1 = identity_map((d0,)), identity_map((g1,))
    eps0 = compose([i0, tensor(bim.eps, idd0)])   # G -> carrier
    delta0 = compose([i0, tensor(bim.delta, idd0), tensor(one, p0), p1])
    delta1 = compose([i1, tensor(bim.delta, idg1), tensor(one, p1), p2])
    g_of_delta0 = compose([i1, tensor(one, delta0), p2])
    g_of_eps0 = compose([i1, tensor(one, eps0), p0])
    eps_at_g = compose([i1, tensor(bim.eps, idg1)])

    report = AxiomReport()
    report.add(compare("ind.action-assoc",
                       compose([tensor(bim.m, idg1), act1]),
                       compose([tensor(one, act1), act1])))
    report.add(compare("ind.action-unit",
                       compose([tensor(bim.e, idg1), act1]), idg1))
    report.add(compare("ind.counit-left", compose([delta0, eps_at_g]), idg1))
    report.add(compare("ind.counit-right", compose([delta0, g_of_eps0]), idg1))
    report.add(compare("ind.coassoc",
                       compose([delta0, delta1]),
                       compose([delta0, g_of_delta0])))
    report.add(compare("ind.delta-module-morphism",
                       compose([act1, delta0]),
                       compose([tensor(one, delta0), act2])))
    report.add(compare("ind.eps-module-morphism",
                       compose([act1, eps0]),
                       compose([tensor(one, eps0), h0])))
    return InducedComonad(idempotent=gamma0, splitting=split0, action=act1,
                          delta_component=delta0, eps_component=eps0,
                          report=report)


def _gamma_prime_at_comodule(bim, ent, theta: TensorMap, d: int) -> TensorMap:
    # Gamma' = (eps (x) id (x) id) . (omega (x) id) . (id (x) theta)
    one = bim.id1()
    idd = identity_map((d,))
    return compose([
        tensor(one, theta), tensor(ent.omega, idd), tensor(bim.eps, one, idd),
    ])


def induced_monad_on_comodule(bim: WeakBraidedBimonad, ent: EntwiningData,
                              com: HComodule) -> InducedMonad:
    """Split the monad idempotent Gamma' at (a, theta) and verify the induced
    monad component laws at this object."""
    law_report = check_comodule(bim, com)
    if not law_report.passed:
        raise PrerequisiteAxiomFailed(law_report.failed_ids())
    n = bim.n
    one = bim.id1()

    def level(theta, d):
        gamma = _gamma_prime_at_comodule(bim, ent, theta, d)
        split = split_idempotent(gamma.mat)
        p_map, i_map = _split_maps(split, (n, d))
        # coaction on the split object: (id (x) p) . (omega (x) id)
        #                                 . (id (x) theta) . i
        idd = identity_map((d,))
        coact = compose([
            i_map, tensor(one, theta), tensor(ent.omega, idd), tensor(one, p_map),
        ])
        return gamma, split, p_map, i_map, coact

    d0, theta0 = com.dim, com.theta
    gamma0, split0, p0, i0, coact1 = level(theta0, d0)
    t1 = split0.rank
    _, split1, p1, i1, coact2 = level(coact1, t1)
    t2 = split1.rank
    _, split2, p2, i2, _ = level(coact2, t2)

    idt1 = identity_map((t1,))
    e0 = compose([tensor(bim.e, identity_map((d0,))), p0])   # carrier -> T
    m0 = compose([i1, tensor(one, i0), tensor(bim.m, identity_map((d0,))), p0])
    m1 = compose([i2, tensor(one, i1), tensor(bim.m, idt1), p1])
    t_of_m0 = compose([i2, tensor(one, m0), p1])
    t_of_e0 = compose([i0, tensor(one, e0), p1])
    e_at_t = compose([tensor(bim.e, idt1), p1])

    report = AxiomReport()
    report.add(compare("ind.coaction-coassoc",
                       compose([coact1, tensor(bim.delta, idt1)]),
                       compose([coact1, tensor(one, coact1)])))
    report.add(compare("ind.coaction-counit",
                       compose([coact1, tensor(bim.eps, idt1)]), idt1))
    report.add(compare("ind.unit-left", compose([e_at_t, m0]), idt1))
    report.add(compare("ind.unit-right", compose([t_of_e0, m0]), idt1))
    report.add(compare("ind.assoc",
                       compose([t_of_m0, m0]),
                       compose([m1, m0])))
    report.add(compare("ind.m-comodule-morphism",
                       compose([m0, coact1]),
                       compose([coact2, tensor(one, m0)])))
    report.add(compare("ind.e-comodule-morphism",
                       compose([e0, coact1]),
                       compose([theta0, tensor(one, e0)])))
    return InducedMonad(idempotent=gamma0, splitting=split0, coaction=coact1,
                        m_component=m0, e_component=e0, report=report)


def coinvariants(bim: WeakBraidedBimonad, ent: EntwiningData,
                 antipode: Optional[Antipode],
                 mod: MixedBimodule) -> Coinvariants:
    """Equaliser of theta and (id (x) h) . (delta (x) id) . (e (x) id).

    With an antipode, additionally verify that beta = h . (S (x) id) . theta
    is idempotent, that its splitting computes the same subspace, and the
    split-witness identities of the adjunction units/counits.
    """
    law_report = check_mixed_bimodule(bim, ent, mod)
    if not law_report.passed:
        raise PrerequisiteAxiomFailed(law_report.failed_ids())
    idd = identity_map((mod.dim,))
    one = bim.id1()
    canonical = compose([
        tensor(bim.e, idd), tensor(bim.delta, idd), tensor(one, mod.h),
    ])
    basis = kernel_basis(mod.theta.mat - canonical.mat)
    dim = basis.cols
    inclusion = TensorMap((dim,), (mod.dim,), basis)
    report = AxiomReport()
    projection = None
    if antipode is not None:
        beta = compose([mod.theta, tensor(antipode.map, idd), mod.h])
        idem = compare("coinv.beta-idem", compose([beta, beta]), beta)
        report.add(idem)
        if not idem.holds:
            raise InconsistencyError("coinv.beta-idem failed with an antipode")
        split = split_idempotent(beta.mat)
        report.add(AxiomEntry("coinv.beta-span",
                              same_column_span(split.i, basis), None))
        q_map = TensorMap((mod.dim,), (split.rank,), split.p)
        i_map = TensorMap((split.rank,), (mod.dim,), split.i)
        report.add(compare("coinv.prop75-square",
                           compose([mod.theta, tensor(one, beta), mod.h]), idd))
        report.add(compare("coinv.prop76-splitwitness",
                           compose([mod.theta, tensor(one, q_map),
                                    tensor(one, i_map), mod.h]), idd))
        inclusion = i_map
        projection = q_map
        dim = split.rank
    return Coinvariants(dim=dim, inclusion=inclusion, projection=projection,
                        report=report)


def induce_from_base(bim: WeakBraidedBimonad, base: BaseObject,
                      nb: BaseModule):
    """H (x)_{base} N with its induced action and coaction (factor-and-verify)."""
    one = bim.id1()
    idn = identity_map((nb.dim,))
    rho_r = compose([tensor(one, base.iota), bim.m])
    diff = tensor(rho_r, idn).mat - tensor(one, nb.g).mat
    proj, t = exactmat.cokernel_projection(diff)
    l_n = TensorMap((bim.n, nb.dim), (t,), proj)
    h_q = _factor_through_surjection(compose([tensor(bim.m, idn), l_n]),
                                     tensor(one, l_n), "induced module action")
    theta_q = _factor_through_surjection(
        compose([tensor(bim.delta, idn), tensor(one, l_n)]), l_n,
        "induced module coaction")
    induced = MixedBimodule(dim=t, h=h_q, theta=theta_q,
                            name=f"induced({nb.dim})")
    return induced, l_n


def fundamental_roundtrip(bim: WeakBraidedBimonad, ent: EntwiningData,
                          base: BaseObject, antipode: Antipode,
                          mod: MixedBimodule) -> AxiomReport:
    """Round trip M -> coinvariants N -> induced H (x)_{base} N -> M.

    The comparison map is induced by h . (id (x) inclusion); it must be
    bijective (RoundTripFailed otherwise).  The symmetric leg starts from the
    computed base module N and checks that the unit map into the coinvariants
    of the induced module is an isomorphism of base modules.
    """
    if antipode is None:
        raise PrerequisiteAxiomFailed(["hopf.antipode-missing"])
    one = bim.id1()
    coin = coinvariants(bim, ent, antipode, mod)
    report = AxiomReport()
    report.extend(coin.report)

    idr = identity_map((base.r,))
    idn = identity_map((coin.dim,))
    g = compose([tensor(base.iota, coin.inclusion), mod.h, coin.projection])
    report.add(compare("rt.N-action-lands",
                       compose([tensor(base.iota, coin.inclusion), mod.h]),
                       compose([tensor(base.iota, coin.inclusion), mod.h,
                                coin.projection, coin.inclusion])))
    report.add(compare("rt.N-assoc",
                       compose([tensor(base.m_base, idn), g]),
                       compose([tensor(idr, g), g])))
    report.add(compare("rt.N-unit", compose([tensor(base.e_base, idn), g]), idn))

    nb = BaseModule(dim=coin.dim, g=g)
    induced, l_n = induce_from_base(bim, base, nb)
    report.extend(check_mixed_bimodule(bim, ent, induced))

    # comparison map: factor h . (id (x) inclusion) through the quotient;
    # l_n is the cokernel of the relations of N, so it factors exactly when
    # it respects them
    phi = compose([tensor(one, coin.inclusion), mod.h])
    try:
        comp = _factor_through_surjection(phi, l_n, "comparison map")
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
    coin2 = coinvariants(bim, ent, antipode, induced)
    unit = compose([tensor(bim.e, idn), l_n])
    unit_in = exactmat.solve(coin2.inclusion.mat, unit.mat)
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
