"""The derivation chain of one instance as lazy, cached stages.

    axioms -> entwining -> base -> actions -> galois -> linear -> antipode
           -> verdict, and roundtrip(module)

A stage is computed the first time it is read and kept, so a caller reads
the stages it needs and none is built twice.  ``axioms`` is the only call of
:func:`bimonad.check_instance`; every later stage raises
PrerequisiteAxiomFailed from those cached reports, so the axiom gate runs
once per Pipeline.  A Pipeline belongs to the caller that creates it: there
is no cache shared across Pipelines, and its stages go with it.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional

from . import bimonad, hopf
from .baseobject import ActionData, BaseObject, build_actions, build_base
from .bimonad import AxiomReport, WeakBraidedBimonad
from .entwining import EntwiningData, build_entwining
from .errors import EquivalenceViolation, NotIdempotent, PrerequisiteAxiomFailed
from .galois import GaloisData, build_galois
from .hopfmodules import K_omega, MixedBimodule, fundamental_roundtrip


class Pipeline:
    def __init__(self, bim: WeakBraidedBimonad):
        self.bim = bim

    @cached_property
    def axioms(self) -> dict:
        """Reports of the instance's own axioms, keyed by section name."""
        return bimonad.check_instance(self.bim)

    @cached_property
    def failed_axioms(self) -> list:
        return [i for report in self.axioms.values() for i in report.failed_ids()]

    def require(self):
        """The axiom gate: PrerequisiteAxiomFailed naming every failed axiom."""
        if self.failed_axioms:
            raise PrerequisiteAxiomFailed(self.failed_axioms)

    @cached_property
    def entwining_maps(self) -> EntwiningData:
        """The entwining maps without the gate, to diagnose broken instances."""
        return build_entwining(self.bim)

    @cached_property
    def entwining(self) -> EntwiningData:
        self.require()
        ent = self.entwining_maps
        if ent.kappa_split is None or ent.kappa_prime_split is None:
            raise NotIdempotent("kappa or kappa_prime is not idempotent")
        return ent

    @cached_property
    def base(self) -> BaseObject:
        return build_base(self.bim, self.entwining)

    @cached_property
    def actions(self) -> ActionData:
        return build_actions(self.bim, self.base)

    @cached_property
    def galois(self) -> GaloisData:
        return build_galois(self.bim, self.entwining, self.base, self.actions)

    @cached_property
    def linear(self) -> hopf.LinearSolveResult:
        return hopf.solve_antipode_linear(self.bim, self.entwining)

    @cached_property
    def antipode(self) -> Optional[hopf.Antipode]:
        """Built from the inverse Galois map when gamma is invertible, else
        the one the linear solve found, if any."""
        if self.galois.gamma_invertible:
            return hopf.construct_antipode_from_galois(
                self.bim, self.entwining, self.base, self.galois)
        return self.linear.antipode

    @cached_property
    def verdict(self) -> hopf.FundamentalVerdict:
        """Hopf-ness decided three ways, which must agree: (a) an antipode
        exists (linear solve), (d) gamma and (e) gamma_prime are invertible.

        Disagreement raises EquivalenceViolation.  On a positive verdict the
        Hopf-module round trip runs on the canonical test module K_omega(1).
        """
        gal, linear, antipode = self.galois, self.linear, self.antipode
        antipode_report = None if antipode is None else \
            hopf.check_antipode(self.bim, self.entwining, antipode.map)
        verdicts = {"gamma": gal.gamma_invertible,
                    "gamma_prime": gal.gamma_prime_invertible}
        if linear.status != "inconclusive":
            verdicts["antipode"] = linear.status == "found"
        if len(set(verdicts.values())) > 1:
            raise EquivalenceViolation(
                "Fundamental-Theorem verdicts disagree: "
                + ", ".join(f"{k}={v}" for k, v in sorted(verdicts.items())))
        roundtrip_report = self.roundtrip(K_omega(self.bim, 1)) \
            if gal.gamma_invertible else None
        return hopf.FundamentalVerdict(
            hopf=gal.gamma_invertible,
            antipode=antipode,
            gamma_invertible=gal.gamma_invertible,
            gamma_rank=gal.gamma_rank,
            gamma_prime_invertible=gal.gamma_prime_invertible,
            gamma_prime_rank=gal.gamma_prime_rank,
            linear_status=linear.status,
            antipode_report=antipode_report,
            roundtrip_report=roundtrip_report,
        )

    def roundtrip(self, module: MixedBimodule) -> AxiomReport:
        """The Hopf-module round trip at module; not cached, as it depends
        on the module."""
        return fundamental_roundtrip(self.bim, self.entwining, self.base,
                                     self.antipode, module)
