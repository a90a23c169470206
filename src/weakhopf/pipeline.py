"""The derivation chain of one instance as lazy, cached stages.

    axioms -> entwining -> base -> actions -> galois -> antipode -> linear
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
from .hopfmodules import (Coinvariants, K_omega, MixedBimodule,
                          fundamental_roundtrip)


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
        if ent.pbar is None or ent.pbar_prime is None:
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
        return build_galois(self.bim, self.entwining, self.actions)

    @cached_property
    def antipode(self) -> Optional[hopf.Antipode]:
        """Built from the inverse Galois map when gamma is invertible, else
        None."""
        if not self.galois.gamma_invertible:
            return None
        return hopf.construct_antipode_from_galois(
            self.bim, self.entwining, self.galois)

    @cached_property
    def linear(self) -> Optional[hopf.Antipode]:
        """The antipode from the linear solve, or None when there is none.

        The solve does not use gamma, and a weak antipode is unique, so it
        must equal :attr:`antipode`, or be None with it: (a) agrees with (d).
        Disagreement raises EquivalenceViolation.  The equality verifies the
        solved map, as :attr:`antipode` is checked.
        """
        solved = hopf.solve_antipode_linear(self.bim, self.entwining)
        built = self.antipode
        if (solved is None) != (built is None):
            raise EquivalenceViolation(
                "Fundamental-Theorem verdicts disagree: "
                f"antipode={solved is not None}, gamma={built is not None}")
        if solved is not None and solved.map != built.map:
            raise EquivalenceViolation(
                "the antipode from the linear solve differs from the one "
                "built from gamma")
        return solved

    @cached_property
    def verdict(self) -> hopf.FundamentalVerdict:
        """Hopf-ness decided three ways, which must agree: (a) an antipode
        exists (linear solve), (d) gamma and (e) gamma_prime are invertible.

        (a) is checked against (d) in :attr:`linear`, and (d) against (e)
        here; disagreement raises EquivalenceViolation.  On a positive
        verdict the Hopf-module round trip runs on the canonical test module
        K_omega(1).
        """
        gal, linear, antipode = self.galois, self.linear, self.antipode
        if gal.gamma_invertible != gal.gamma_prime_invertible:
            raise EquivalenceViolation(
                "Fundamental-Theorem verdicts disagree: "
                f"gamma={gal.gamma_invertible}, "
                f"gamma_prime={gal.gamma_prime_invertible}")
        roundtrip_report = self.roundtrip(K_omega(self.bim, 1)) \
            if gal.gamma_invertible else None
        return hopf.FundamentalVerdict(
            hopf=gal.gamma_invertible,
            antipode=antipode,
            gamma_invertible=gal.gamma_invertible,
            gamma_rank=gal.gamma_rank,
            gamma_prime_invertible=gal.gamma_prime_invertible,
            gamma_prime_rank=gal.gamma_prime_rank,
            linear_status="no_solution" if linear is None else "found",
            antipode_report=None if antipode is None else antipode.report,
            roundtrip_report=roundtrip_report,
        )

    def roundtrip(self, module: MixedBimodule,
                  coin: Optional[Coinvariants] = None) -> AxiomReport:
        """The Hopf-module round trip at module, from its coinvariants coin
        if the caller has them; not cached, as it depends on the module."""
        return fundamental_roundtrip(self.bim, self.entwining, self.base,
                                     self.antipode, module, coin)
