"""Tensor product over the base, cotensor, Galois maps, and q-tilde.

Factor-through-quotient is implemented by composing with the deterministic
section of the projection and verifying the factorization identity
afterwards; a failed verification raises FactorizationFailed, never a silent
acceptance.  The cotensor and gamma_prime are the transposes of a tensor
over the base and its gamma, so inclusions are never solved for.
Invertibility means square and full rank over the rationals.

    gamma       : H (x)_{base} H  -> Gbar     with  gamma . l = pbar . sigma
    gamma_prime : Tbar -> H (x)^{base} H      with  can . gamma_prime
                                                      = sigmabar . ibar_prime
    q_tilde     : H (x)_{base} H  -> H        with  q_tilde . l = m . (xibar (x) id)
"""

from __future__ import annotations

from dataclasses import dataclass

from . import exactmat
from .baseobject import ActionData, BaseObject
from .bimonad import AxiomReport, WeakBraidedBimonad, compare
from .entwining import EntwiningData
from .errors import FactorizationFailed, InconsistencyError, NotInvertible
from .exactmat import Mat, cokernel_projection
from .tensorexpr import (TensorMap, compose, identity_map, lift, tensor,
                         transpose)


@dataclass(frozen=True)
class GaloisData:
    l: TensorMap            # (n, n) -> (t,), quotient projection
    tensor_dim: int
    can: TensorMap          # (c,) -> (n, n), cotensor inclusion
    cotensor_dim: int
    gamma: TensorMap        # (t,) -> (gbar,)
    gamma_prime: TensorMap  # (tbar,) -> (c,)
    q_tilde: TensorMap      # (t,) -> (n,)
    zeta: TensorMap         # (t, n) -> (t,), induced right action on the quotient
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


def _factor_through_surjection(
        target: TensorMap, proj: TensorMap, what: str,
        failure: str = "map does not factor through quotient") -> TensorMap:
    """Unique g with g . proj = target, computed via the section of proj.

    For proj the cokernel of some relations, g . proj = target holds exactly
    when target vanishes on them; otherwise FactorizationFailed(failure).
    """
    sec = exactmat.section(proj.mat)
    if sec is None:
        raise FactorizationFailed(f"{what}: projection is not surjective")
    g = TensorMap(proj.cod, target.cod, exactmat.mul(target.mat, sec))
    if exactmat.mul(g.mat, proj.mat) != target.mat:
        raise FactorizationFailed(f"{what}: {failure}")
    return g


def _invertibility(mat: Mat):
    r = exactmat.rank(mat)
    return (mat.rows == mat.cols and r == mat.rows), r


def tensor_relations(bim: WeakBraidedBimonad, acts: ActionData) -> Mat:
    """rho_r (x) id - id (x) rho_l; H (x)_{base} H is its cokernel."""
    one = bim.id1()
    return tensor(acts.rho_r, one).mat - tensor(one, acts.rho_l).mat


def build_tensor_over_base(bim: WeakBraidedBimonad, relations: Mat):
    """Coequaliser of (rho_r (x) id, id (x) rho_l); returns (l, t)."""
    proj, t = cokernel_projection(relations)
    return TensorMap((bim.n, bim.n), (t,), proj), t


def build_gamma(bim: WeakBraidedBimonad, ent: EntwiningData, l: TensorMap):
    """gamma with gamma . l = pbar . sigma, plus the report entry of the
    precomposition identity pbar . delta = gamma . l . (id (x) e)."""
    one = bim.id1()
    pbar = ent.pbar()
    gamma = _factor_through_surjection(
        compose([ent.sigma, pbar]), l, "gamma",
        "pbar.sigma does not annihilate the tensor relations "
        "(instance is not a weak braided bimonad)")
    fund0 = compare("gal.fund0",
                    compose([bim.delta, pbar]),
                    compose([tensor(one, bim.e), l, gamma]))
    if not fund0.holds:
        raise InconsistencyError("gal.fund0: pbar.delta != gamma.l.(id (x) e)")
    return gamma, fund0


def build_cotensor_and_gamma_prime(bim: WeakBraidedBimonad, ent: EntwiningData,
                                   acts: ActionData):
    """Cotensor as kernel of (theta_r (x) id - id (x) theta_l), its inclusion
    can and gamma_prime with can . gamma_prime = sigmabar . ibar_prime,
    built as the transposes of the tensor over the base of the transposed
    co-relations and of gamma there, from comodule-side maps only."""
    one = bim.id1()
    corelations = (tensor(transpose(acts.theta_r), one).mat
                   - tensor(one, transpose(acts.theta_l)).mat)
    l_dual, c = build_tensor_over_base(bim, corelations)
    gamma_dual = _factor_through_surjection(
        transpose(compose([ent.ibar_prime(), ent.sigmabar])), l_dual,
        "gamma_prime", "sigmabar.ibar_prime does not land in the cotensor")
    return transpose(l_dual), transpose(gamma_dual), c


def build_q_tilde(bim: WeakBraidedBimonad, base: BaseObject, l: TensorMap):
    """q_tilde with q_tilde . l = m . (xibar (x) id), a right-module morphism
    for the induced quotient action zeta."""
    one = bim.id1()
    xibar = base.xibar_map()
    target = compose([tensor(xibar, one), bim.m])
    q_tilde = _factor_through_surjection(target, l, "q_tilde")
    # induced right H-action on the quotient: zeta . (l (x) id) = l . (id (x) m)
    zeta = _factor_through_surjection(compose([lift(bim.m, 1, 0), l]),
                                      tensor(l, one), "zeta")
    entry = compare("gal.qtilde-module",
                    compose([zeta, q_tilde]),
                    compose([tensor(q_tilde, one), bim.m]))
    if not entry.holds:
        raise InconsistencyError("gal.qtilde-module: q_tilde is not a module map")
    return q_tilde, zeta


def build_galois(bim: WeakBraidedBimonad, ent: EntwiningData, base: BaseObject,
                 acts: ActionData) -> GaloisData:
    """Assemble the full Galois data with the module-structure identities."""
    one = bim.id1()
    l, t = build_tensor_over_base(bim, tensor_relations(bim, acts))
    gamma, fund0 = build_gamma(bim, ent, l)
    can, gamma_prime, c = build_cotensor_and_gamma_prime(bim, ent, acts)
    q_tilde, zeta = build_q_tilde(bim, base, l)

    report = AxiomReport()
    report.add(fund0)
    # right H-module structure on Gbar and gamma as a module morphism
    gbar_act = compose([tensor(ent.ibar(), one), lift(bim.m, 1, 0), ent.pbar()])
    idg = identity_map((ent.gbar_dim,))
    report.add(compare("gal.gbar-assoc",
                       compose([tensor(gbar_act, one), gbar_act]),
                       compose([tensor(idg, bim.m), gbar_act])))
    report.add(compare("gal.gbar-unit",
                       compose([tensor(idg, bim.e), gbar_act]), idg))
    report.add(compare("gal.gamma-module-morphism",
                       compose([zeta, gamma]),
                       compose([tensor(gamma, one), gbar_act])))
    gamma_ok, gamma_rank = _invertibility(gamma.mat)
    gp_ok, gp_rank = _invertibility(gamma_prime.mat)
    data = GaloisData(
        l=l, tensor_dim=t, can=can, cotensor_dim=c,
        gamma=gamma, gamma_prime=gamma_prime, q_tilde=q_tilde, zeta=zeta,
        gamma_invertible=gamma_ok, gamma_rank=gamma_rank,
        gamma_prime_invertible=gp_ok, gamma_prime_rank=gp_rank,
        report=report,
    )
    failed = report.failed_ids()
    if failed:
        raise InconsistencyError("build_galois: " + ", ".join(failed))
    return data


def check_remark_inverses(bim: WeakBraidedBimonad, ent: EntwiningData,
                          base: BaseObject, gal: GaloisData,
                          antipode) -> AxiomReport:
    """The explicit inverse formulas built from the antipode:

        gamma^-1       = l . (id (x) m) . (id (x) S (x) id) . (delta (x) id) . ibar
        gamma_prime^-1 = pbar_prime . (m (x) id) . (id (x) S (x) id)
                                      . (id (x) delta) . can

    Both are asserted to be two-sided inverses.
    """
    one = bim.id1()
    s_map = antipode.map
    gamma_inv = compose([
        ent.ibar(), lift(bim.delta, 0, 1), tensor(one, s_map, one),
        lift(bim.m, 1, 0), gal.l,
    ])
    gp_inv = compose([
        gal.can, lift(bim.delta, 1, 0), tensor(one, s_map, one),
        lift(bim.m, 0, 1), ent.pbar_prime(),
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


def gamma_inverse(gal: GaloisData) -> TensorMap:
    """Exact inverse of gamma; raises NotInvertible with the rank."""
    if not gal.gamma_invertible:
        raise NotInvertible(gal.gamma_rank,
                            dims=(gal.gamma.mat.rows, gal.gamma.mat.cols))
    return TensorMap(gal.gamma.cod, gal.gamma.dom, exactmat.invert(gal.gamma.mat))
