"""Exact-arithmetic instantiation and verification of weak braided bimonads
and weak braided Hopf monads on finite-dimensional vector spaces."""

from .bimonad import (
    AxiomEntry,
    AxiomReport,
    WeakBraidedBimonad,
    check_algebra,
    check_coalgebra,
    check_instance,
    check_weak_braided_bimonad,
    check_weak_yb,
)
from .baseobject import (
    ActionData,
    BaseObject,
    build_actions,
    build_base,
    check_frobenius_separable,
    check_pi_splitting,
)
from .entwining import (
    EntwiningData,
    build_entwining,
    check_derived_identities,
    check_weak_entwining,
)
from .exactmat import Mat
from .galois import GaloisData, build_galois, check_remark_inverses
from .hopf import (
    Antipode,
    FundamentalVerdict,
    check_antipode,
    construct_antipode_from_galois,
    fundamental_verdict,
    solve_antipode_linear,
)
from .hopfmodules import (
    K_omega,
    MixedBimodule,
    check_mixed_bimodule,
    coinvariants,
    fundamental_roundtrip,
    induced_comonad_on_module,
    induced_monad_on_comodule,
)
from .instances import (
    BUILTINS,
    GroupoidSpec,
    dual_instance,
    group_algebra,
    groupoid_algebra,
    groupoid_antipode,
    load,
    load_module,
    monoid_algebra,
    save,
    super_line,
)
from .pipeline import Pipeline
from .tensorexpr import TensorMap, compose, lift, parse_expr, tensor

__version__ = "0.1.0"
