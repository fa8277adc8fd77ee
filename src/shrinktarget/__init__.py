"""Entropy and Hausdorff-dimension bounds for shrinking target sets.

Library layout:

* :mod:`shrinktarget.rates` - shrinking rates phi, time sets S, targets Z and
  the decay exponents (tau_upper, tau_lower);
* :mod:`shrinktarget.systems` - integer-matrix torus maps, spectra and
  hyperbolicity profiles;
* :mod:`shrinktarget.symbolic` - shifts of finite type, sofic presentations,
  entropy, mixing gaps, cyclic decompositions and index sets;
* :mod:`shrinktarget.bounds` - every closed-form bound, with case dispatch
  and hypothesis checking; the exact values are the sandwiches on profiles
  whose Lipschitz constants equal their exponents;
* :mod:`shrinktarget.oracle` - desk-scale independent verification: the
  covering-sum critical exponent and its grid bracket, Moran estimates and
  explicit witness points for one-sided SFTs;
* :mod:`shrinktarget.cli` - batch front end over JSON configs; runnable
  example configs live in ``docs/examples/``.

The package holds what the CLI reaches; the exports below are the pieces a
script needs to reproduce a CLI row by hand.
"""

__version__ = "0.1.0"

from .rates import (  # noqa: F401
    AllTimes,
    Arithmetic,
    ConstantPoint,
    EventuallyPeriodic,
    Explicit,
    Exponential,
    PiecewiseExponential,
    PowerLaw,
    RateExponents,
    RateFunction,
    ShiftTarget,
    SymbolSequence,
    Tabulated,
    family_tau,
    tau_exponents,
)
from .systems import (  # noqa: F401
    HyperbolicityProfile,
    IntegerMatrixSystem,
    SpectralProfile,
    analyze_matrix,
    crude_profile_from_matrix,
    entropy_toral,
    sharp_profile_from_matrix,
)
from .symbolic import (  # noqa: F401
    IndexSet,
    PeriodDecomposition,
    ShiftOfFiniteType,
    SoficPresentation,
    index_set,
    indices_intersect,
    mixing_gap,
    period_decomposition,
    sft_entropy,
    sofic_entropy,
    word_counts_ending,
)
from .bounds import (  # noqa: F401
    BoundReport,
    CaseTag,
    bounds_expanding,
    bounds_general_profile,
    bounds_hyperbolic_set,
    bounds_one_sided_shift,
    bounds_two_sided_shift,
    covering_bounds,
)
from .oracle import (  # noqa: F401
    LimsupCylinderScheme,
    WitnessCertificate,
    WitnessPlan,
    construct_witness,
    critical_exponent,
    grid_cell,
    moran_dimension,
    plan_witness,
    verify_witness,
)
