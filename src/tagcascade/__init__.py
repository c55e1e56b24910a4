"""tagcascade: adoption-threshold measurement and diffusion simulation
for tag cascades in timestamped social-network event logs."""

from .errors import (
    CascadeError,
    DataError,
    DegenerateSampleError,
    InsufficientTailError,
    MalformedRowError,
    NoAdoptionError,
    SnapshotFormatError,
    UndefinedCorrelationError,
    UndefinedDensityError,
    UndefinedThresholdError,
    UnknownIdError,
    UnsupportedModelError,
    UsageError,
)
from .events import (
    Dataset,
    FollowerGraph,
    build_dataset,
    density,
    directed_density,
    giant_component,
    neighbors_at,
    parse_timestamp,
)
from .exposure import (
    ExposureRecord,
    ExposureTable,
    ThresholdTable,
    UserThreshold,
    all_exposures,
    exposure_at_adoption,
    population_thresholds,
    threshold_summary,
    user_threshold,
)
from .powerlaw import PowerLawFit, fit_power_law
from .simulate import (
    CascadeParams,
    LearningParams,
    RecoveryReport,
    SimConfig,
    SimRun,
    ThresholdParams,
    ThresholdSpec,
    erdos_renyi,
    gen_graph,
    preferential_attachment,
    recover_thresholds,
    run_independent_cascade,
    run_model,
    run_social_learning,
    run_threshold_model,
)
from .snapshot import load_snapshot, save_snapshot
from .stats import (
    AdoptionCurve,
    CorrelationReport,
    DensityCurve,
    adoption_curve,
    popularity_samples,
    popularity_threshold_correlation,
    smooth_distribution,
    tag_popularity,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
