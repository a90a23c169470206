"""Entwining maps induced by a weak braided bimonad and their identity suite.

All derived maps are cached in :class:`EntwiningData`; the H^3 composites
dominate runtime and every axiom check reuses them.

Matrix realizations (diagram order, leftmost factor most significant):

    omega    = (m (x) id) . (id (x) tau) . (delta (x) id)
    omegabar = (id (x) m) . (tau (x) id) . (id (x) delta)
    sigma    = (id (x) m) . (delta (x) id)
    sigmabar = (m (x) id) . (id (x) delta)
    xi    = (eps (x) id) . omega . (e (x) id)
    xibar = (id (x) eps) . omegabar . (id (x) e)
    chi   = (id (x) eps) . sigma . (e (x) id)
    chibar= (eps (x) id) . sigmabar . (id (x) e)
    kappa = (id (x) m) . (omega (x) id) . (e (x) id (x) id)
    kappa_prime = (eps (x) id (x) id) . (omega (x) id) . (id (x) delta)

kappa is the comonad idempotent at the free module (H, m); kappa_prime is the
monad idempotent at the cofree comodule (H, delta), whose splitting receives
the second Galois map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .bimonad import AxiomReport, WeakBraidedBimonad, compare, compare_all
# bound here for bench/test_bench.py, which traces names imported by name
from .bimonad import require_instance  # noqa: F401
from .errors import NotIdempotent
from .tensorexpr import TensorMap, compose, identity_map, lift, split, tensor


@dataclass(frozen=True)
class EntwiningData:
    omega: TensorMap
    omegabar: TensorMap
    sigma: TensorMap
    sigmabar: TensorMap
    xi: TensorMap
    xibar: TensorMap
    chi: TensorMap
    chibar: TensorMap
    kappa: TensorMap
    kappa_prime: TensorMap
    # the splittings of kappa and kappa_prime through Gbar and Tbar, None
    # when the map is not idempotent
    pbar: Optional[TensorMap]        # (n, n) -> (gbar,)
    ibar: Optional[TensorMap]        # (gbar,) -> (n, n)
    pbar_prime: Optional[TensorMap]  # (n, n) -> (tbar,)
    ibar_prime: Optional[TensorMap]  # (tbar,) -> (n, n)

    @property
    def gbar_dim(self):
        return self.pbar.cod[0]

    @property
    def tbar_dim(self):
        return self.pbar_prime.cod[0]


def build_entwining(bim: WeakBraidedBimonad) -> EntwiningData:
    """Construct all entwining maps and split kappa and kappa_prime.

    No axiom is checked here, so that a broken instance can still be
    diagnosed through the identity suite; a kappa map that is not idempotent
    gets the splitting (None, None).  ``Pipeline(bim).entwining`` is the
    gated form: it refuses an instance whose axioms fail and raises
    NotIdempotent for a missing splitting.
    """
    m, e, delta, eps, tau = bim.m, bim.e, bim.delta, bim.eps, bim.tau
    one = bim.id1()
    id2 = identity_map((bim.n, bim.n))

    omega = compose([lift(delta, 0, 1), lift(tau, 1, 0), lift(m, 0, 1)])
    omegabar = compose([lift(delta, 1, 0), lift(tau, 0, 1), lift(m, 1, 0)])
    sigma = compose([lift(delta, 0, 1), lift(m, 1, 0)])
    sigmabar = compose([lift(delta, 1, 0), lift(m, 0, 1)])
    xi = compose([tensor(e, one), omega, tensor(eps, one)])
    xibar = compose([tensor(one, e), omegabar, tensor(one, eps)])
    chi = compose([tensor(e, one), sigma, tensor(one, eps)])
    chibar = compose([tensor(one, e), sigmabar, tensor(eps, one)])
    kappa = compose([tensor(e, id2), lift(omega, 0, 1), lift(m, 1, 0)])
    kappa_prime = compose([lift(delta, 1, 0), lift(omega, 0, 1), tensor(eps, id2)])

    def try_split(f):
        try:
            return split(f)
        except NotIdempotent:
            return None, None

    pbar, ibar = try_split(kappa)
    pbar_prime, ibar_prime = try_split(kappa_prime)
    return EntwiningData(
        omega=omega, omegabar=omegabar, sigma=sigma, sigmabar=sigmabar,
        xi=xi, xibar=xibar, chi=chi, chibar=chibar,
        kappa=kappa, kappa_prime=kappa_prime,
        pbar=pbar, ibar=ibar, pbar_prime=pbar_prime, ibar_prime=ibar_prime,
    )


def check_weak_entwining(ent: EntwiningData, bim: WeakBraidedBimonad) -> AxiomReport:
    """Weak-entwining axioms for both the omega and the omegabar side; the
    omegabar laws are the omega laws with every tensor product mirrored."""
    m, e, delta, eps = bim.m, bim.e, bim.delta, bim.eps
    one = bim.id1()

    def laws(side, w, xi, mirrored):
        lf = (lambda f, a, b: lift(f, b, a)) if mirrored else lift
        tn = (lambda f, g: tensor(g, f)) if mirrored else tensor
        return [
            compare(f"ent.{side}.i-mult", compose([lf(m, 0, 1), w]),
                    compose([lf(w, 1, 0), lf(w, 0, 1), lf(m, 1, 0)])),
            compare(f"ent.{side}.i-comult", compose([w, lf(delta, 0, 1)]),
                    compose([lf(delta, 1, 0), lf(w, 0, 1), lf(w, 1, 0)])),
            compare(f"ent.{side}.ii-unit", compose([tn(e, one), w]),
                    compose([delta, tn(one, xi)])),
            compare(f"ent.{side}.ii-counit", compose([w, tn(eps, one)]),
                    compose([tn(one, xi), m])),
            compare(f"ent.{side}.compat", compose([m, delta]),
                    compose([lf(delta, 1, 0), lf(w, 0, 1), lf(m, 1, 0)])),
        ]

    first = laws("m", ent.omega, ent.xi, False)
    second = laws("c", ent.omegabar, ent.xibar, True)
    return AxiomReport(first[:4] + second[:4] + first[4:] + second[4:])


def check_derived_identities(ent: EntwiningData, bim: WeakBraidedBimonad) -> AxiomReport:
    """The always/compatibility identities around kappa and the idempotent
    suite for xi, xibar, chi, chibar.

    The convolution identities 1*xi = 1 and xibar*1 = 1 are not asserted by
    the theory; they are reported informationally.
    """
    m, e, delta, eps = bim.m, bim.e, bim.delta, bim.eps
    one = bim.id1()
    conv = bim.convolve
    w = ent.omega
    xi, xibar, chi, chibar = ent.xi, ent.xibar, ent.chi, ent.chibar
    kappa = ent.kappa
    report = AxiomReport()
    report.add(compare("c-diag.kappa-unit",
                       compose([tensor(one, e), kappa]),
                       compose([tensor(e, one), w])))
    report.add(compare("c-diag.kappa-counit",
                       compose([kappa, tensor(eps, one)]),
                       compose([tensor(xi, one), m])))
    report.add(compare("c-diag.xi-conv-idem", conv(xi, xi), xi))
    report.add(compare("c-diag.kappa-idem", compose([kappa, kappa]), kappa))
    report.add(compare("c-diag.kappa-omega", compose([w, kappa]), w))
    report.add(compare("c-diag.kappa-delta", compose([delta, kappa]), delta))
    report.add(compare("c-diag.kappa-sigma", compose([ent.sigma, kappa]), ent.sigma))
    report.add(compare("c-diag.xi-conv-one", conv(xi, one), one))
    report.add(compare("c-diag.xibar-conv-idem", conv(xibar, xibar), xibar))
    report.add(compare("c-diag.one-conv-xibar", conv(one, xibar), one))
    report.add(compare("info.one-conv-xi", conv(one, xi), one, informational=True))
    report.add(compare("info.xibar-conv-one", conv(xibar, one), one,
                       informational=True))

    pairs = []
    for f in (xi, xibar, chi, chibar):
        pairs.append((compose([f, f]), f))
        pairs.append((compose([e, f]), e))
        pairs.append((compose([f, eps]), eps))
    report.add(compare_all("avr.1", pairs))
    report.add(compare_all("avr.2", [
        (compose([tensor(one, xi), m, xi]), compose([m, xi])),
        (compose([tensor(xibar, one), m, xibar]), compose([m, xibar])),
    ]))
    report.add(compare_all("avr.3", [
        (compose([xi, delta, tensor(one, xi)]), compose([xi, delta])),
        (compose([xibar, delta, tensor(xibar, one)]), compose([xibar, delta])),
    ]))
    report.add(compare_all("avr.4", [
        (compose([tensor(e, one), ent.sigma]), compose([delta, tensor(chi, one)])),
        (compose([tensor(one, e), ent.sigmabar]),
         compose([delta, tensor(one, chibar)])),
    ]))
    report.add(compare_all("avr.5", [
        (compose([ent.sigma, tensor(one, eps)]), compose([tensor(one, chi), m])),
        (compose([ent.sigmabar, tensor(eps, one)]),
         compose([tensor(chibar, one), m])),
    ]))
    report.add(compare_all("avr.6", [
        (compose([chi, xi]), xi),
        (compose([chibar, xi]), chibar),
        (compose([xi, chi]), chi),
        (compose([xi, chibar]), xi),
        (compose([chi, xibar]), chi),
        (compose([chibar, xibar]), xibar),
        (compose([xibar, chi]), xibar),
        (compose([xibar, chibar]), chibar),
    ]))
    return report
