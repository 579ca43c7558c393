"""Reference-contingent complexity: certified lower bounds on quantum
circuit complexity from exact states or finite measurement data."""

from importlib import import_module as _import_module

from .bounds import (
    BoundBreakdown,
    BoundConstants,
    bound_from_divergence,
    main_lower_bound,
    rcc,
    smoothed_lower_bound,
    solve_bootstrap,
)
from .entropy import (
    PurityCeiling,
    bernoulli_kl,
    binary_entropy,
    hypothesis_testing_divergence,
    leakage_adjusted_divergence,
    max_relative_to_reference,
    min_entropy,
    purity_upper_bound,
    relative_to_reference,
    shannon,
    spectral_skew,
    von_neumann,
)
from .errors import (
    CompleteLeakageError,
    ConfigError,
    ExclusiveSectorsError,
    LeakageError,
    ProtocolInvalidError,
    RccError,
    ValidationError,
)
from .harness import (
    RunConfig,
    coverage_experiment,
    pipeline,
    protocol_ground_truth,
    simulate_record,
    stream,
    sweep_windows,
)
from .operators import (
    BlockPartition,
    DensityOperator,
    Projector,
    SpectralDecomposition,
    eig_hermitian,
    pinch,
    project_renormalize,
    validate_density,
)
from .records import MeasurementRecord
from .reference import (
    ReferenceSet,
    block_reference,
    build_reference,
    misspecification_gap,
    sector_reference,
    stabilizer_reference,
)
from .windows import (
    ObservationWindow,
    ProcessTrace,
    RectEfficiency,
    RectPerformance,
    TimeBound,
    WindowFamily,
    info_work,
    process_time_bound,
    rect_efficiency,
    rect_identity_check,
    rect_performance_check,
    windowed_rcc,
)

__version__ = "0.1.0"

# names of the certifying layer; they resolve on first access (PEP 562), so
# that `import rcc` and the CLI commands that certify and plan nothing do not
# import `rcc.stats`, which loads scipy only at its first binomial tail
_STATS_NAMES = frozenset({
    "CertifiedBound",
    "CombinedBound",
    "bonferroni",
    "clopper_pearson_lower",
    "clopper_pearson_upper",
    "combine_bounds",
    "dephase_protocol",
    "ht_protocol",
    "ht_sample_plan",
    "witness_protocol",
    "witness_sample_plan",
})


def __getattr__(name: str):
    if name == "stats" or name in _STATS_NAMES:
        stats = _import_module(f"{__name__}.stats")
        return stats if name == "stats" else getattr(stats, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), "stats", *_STATS_NAMES})
