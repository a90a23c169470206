"""Tensor product over the base, cotensor, Galois maps, and q-tilde.

H (x)_{base} H is a coequaliser and the cotensor an equaliser.  A map out of
the coequaliser is found by ``tensorexpr.factor_through``, which composes
with the deterministic section of the projection and verifies the
factorization identity afterwards; a failed verification raises
FactorizationFailed, never a silent acceptance.  gamma_prime, the map into
the cotensor, is the transpose of such a factorisation through the
transposed inclusion, so inclusions are never solved for.  Invertibility
means square and full rank over the rationals.  The rank of gamma comes from
one elimination of [gamma | B], B = pbar . (id (x) e), whose right block is
then gamma^-1 B, the part of gamma^-1 that the antipode
S = q_tilde . gamma^-1 B needs.

    gamma       : H (x)_{base} H  -> Gbar     with  gamma . l = pbar . sigma
    gamma_prime : Tbar -> H (x)^{base} H      with  can . gamma_prime
                                                      = sigmabar . ibar_prime
    q_tilde     : H (x)_{base} H  -> H        with  q_tilde . l = m . (xibar (x) id)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import exactmat
from .baseobject import ActionData
from .bimonad import AxiomReport, WeakBraidedBimonad, action_laws, compare
from .entwining import EntwiningData
from .errors import InconsistencyError
from .tensorexpr import (TensorMap, coequaliser, compose, equaliser,
                         factor_through, identity_map, lift, tensor,
                         transpose)


@dataclass(frozen=True)
class GaloisData:
    l: TensorMap            # (n, n) -> (t,), quotient projection
    tensor_dim: int
    can: TensorMap          # (c,) -> (n, n), cotensor inclusion
    cotensor_dim: int
    gamma: TensorMap        # (t,) -> (gbar,)
    # (n,) -> (t,): gamma^-1 . pbar . (id (x) e) when gamma is invertible
    gamma_inv_b: Optional[TensorMap]
    gamma_prime: TensorMap  # (tbar,) -> (c,)
    q_tilde: TensorMap      # (t,) -> (n,)
    gamma_invertible: bool
    gamma_rank: int
    gamma_prime_invertible: bool
    gamma_prime_rank: int
    report: AxiomReport

    @property
    def gbar_dim(self):
        return self.gamma.cod[0]

    @property
    def tbar_dim(self):
        return self.gamma_prime.dom[0]


def build_gamma(bim: WeakBraidedBimonad, ent: EntwiningData, l: TensorMap):
    """gamma with gamma . l = pbar . sigma, plus the report entry of the
    precomposition identity pbar . delta = gamma . l . (id (x) e)."""
    one = bim.id1()
    gamma = factor_through(
        compose([ent.sigma, ent.pbar]), l, "gamma",
        "pbar.sigma does not annihilate the tensor relations "
        "(instance is not a weak braided bimonad)")
    fund0 = compare("gal.fund0",
                    compose([bim.delta, ent.pbar]),
                    compose([tensor(one, bim.e), l, gamma]))
    if not fund0.holds:
        raise InconsistencyError("gal.fund0: pbar.delta != gamma.l.(id (x) e)")
    return gamma, fund0


def build_cotensor_and_gamma_prime(bim: WeakBraidedBimonad, ent: EntwiningData,
                                   acts: ActionData):
    """Cotensor as the equaliser can of (theta_r (x) id, id (x) theta_l)
    and gamma_prime with can . gamma_prime = sigmabar . ibar_prime, the
    transpose of the factorisation of the transposed target through the
    surjection can^T, from comodule-side maps only."""
    one = bim.id1()
    can = equaliser(tensor(acts.theta_r, one), tensor(one, acts.theta_l))
    gamma_dual = factor_through(
        transpose(compose([ent.ibar_prime, ent.sigmabar])), transpose(can),
        "gamma_prime", "sigmabar.ibar_prime does not land in the cotensor")
    return can, transpose(gamma_dual)


def build_q_tilde(bim: WeakBraidedBimonad, ent: EntwiningData, l: TensorMap):
    """q_tilde with q_tilde . l = m . (xibar (x) id), a right-module morphism
    for the induced quotient action zeta."""
    one = bim.id1()
    target = compose([tensor(ent.xibar, one), bim.m])
    q_tilde = factor_through(target, l, "q_tilde")
    # induced right H-action on the quotient: zeta . (l (x) id) = l . (id (x) m)
    zeta = factor_through(compose([lift(bim.m, 1, 0), l]), tensor(l, one),
                          "zeta")
    entry = compare("gal.qtilde-module",
                    compose([zeta, q_tilde]),
                    compose([tensor(q_tilde, one), bim.m]))
    if not entry.holds:
        raise InconsistencyError("gal.qtilde-module: q_tilde is not a module map")
    return q_tilde, zeta


def build_galois(bim: WeakBraidedBimonad, ent: EntwiningData,
                 acts: ActionData) -> GaloisData:
    """Assemble the full Galois data with the module-structure identities."""
    one = bim.id1()
    # H (x)_{base} H: the coequaliser of (rho_r (x) id, id (x) rho_l)
    l = coequaliser(tensor(acts.rho_r, one), tensor(one, acts.rho_l))
    gamma, fund0 = build_gamma(bim, ent, l)
    can, gamma_prime = build_cotensor_and_gamma_prime(bim, ent, acts)
    q_tilde, zeta = build_q_tilde(bim, ent, l)

    # right H-module structure on Gbar and gamma as a module morphism
    gbar_act = compose([tensor(ent.ibar, one), lift(bim.m, 1, 0), ent.pbar])
    report = AxiomReport([
        fund0,
        *action_laws(("gal.gbar-assoc", "gal.gbar-unit"), bim.m, bim.e,
                     gbar_act, right=True),
        compare("gal.gamma-module-morphism",
                compose([zeta, gamma]),
                compose([tensor(gamma, one), gbar_act])),
    ])
    b_map = compose([tensor(one, bim.e), ent.pbar])
    gamma_rank, inv_b = exactmat.solve(gamma.mat, b_map.mat)
    gamma_invertible = gamma_rank == gamma.mat.rows == gamma.mat.cols
    gamma_inv_b = TensorMap(b_map.dom, gamma.dom, inv_b) \
        if gamma_invertible else None
    gp_mat = gamma_prime.mat
    gp_rank = exactmat.rank(gp_mat)
    data = GaloisData(
        l=l, tensor_dim=l.cod[0], can=can, cotensor_dim=can.dom[0],
        gamma=gamma, gamma_inv_b=gamma_inv_b, gamma_prime=gamma_prime,
        q_tilde=q_tilde,
        gamma_invertible=gamma_invertible, gamma_rank=gamma_rank,
        gamma_prime_invertible=gp_rank == gp_mat.rows == gp_mat.cols,
        gamma_prime_rank=gp_rank,
        report=report,
    )
    report.require("build_galois")
    return data


def check_remark_inverses(bim: WeakBraidedBimonad, ent: EntwiningData,
                          gal: GaloisData, antipode) -> AxiomReport:
    """The explicit inverse formulas built from the antipode:

        gamma^-1       = l . (id (x) m) . (id (x) S (x) id) . (delta (x) id) . ibar
        gamma_prime^-1 = pbar_prime . (m (x) id) . (id (x) S (x) id)
                                      . (id (x) delta) . can

    Both are asserted to be two-sided inverses.
    """
    one = bim.id1()
    s_map = antipode.map
    gamma_inv = compose([
        ent.ibar, lift(bim.delta, 0, 1), tensor(one, s_map, one),
        lift(bim.m, 1, 0), gal.l,
    ])
    gp_inv = compose([
        gal.can, lift(bim.delta, 1, 0), tensor(one, s_map, one),
        lift(bim.m, 0, 1), ent.pbar_prime,
    ])
    report = AxiomReport()
    report.add(compare("remark.gamma-left",
                       compose([gal.gamma, gamma_inv]),
                       identity_map(gal.gamma.dom)))
    report.add(compare("remark.gamma-right",
                       compose([gamma_inv, gal.gamma]),
                       identity_map(gal.gamma.cod)))
    report.add(compare("remark.gamma-prime-left",
                       compose([gal.gamma_prime, gp_inv]),
                       identity_map(gal.gamma_prime.dom)))
    report.add(compare("remark.gamma-prime-right",
                       compose([gp_inv, gal.gamma_prime]),
                       identity_map(gal.gamma_prime.cod)))
    return report

