"""Support recovery for first-order VAR models with latent processes.

The package estimates which latent-path coefficient matrices are nonzero
(``linear measurements``) from observed time series and reconstructs the
unobserved part of the network from them.
"""

from .errors import (
    AmbiguousDistance,
    CapExceeded,
    CyclicLatent,
    InconsistentRecovery,
    InsufficientData,
    LatentVarError,
    NonStationary,
    NotIdentifiable,
    ScaleExceeded,
    SingularCovariance,
)
from .estimate import (
    BoundPriors,
    EstimationReport,
    autocov,
    block_toeplitz,
    extract_support,
    fit_coefficients,
    fit_from_autocovariances,
    prop1_bound,
    recoverability_check,
    select_lag,
)
from .model import (
    BlockTransitionMatrix,
    CanonicalForm,
    LatentVarModel,
    LinearMeasurements,
    UnobservedNetwork,
    canonical_form,
    complete_census,
    consistent,
    default_names,
    latent_path_counts,
    network_of,
    nilpotency_index,
    path_census,
    single_path_per_length,
    true_linear_measurements,
)
from .recover import (
    DEFAULT_CAP,
    NodeProfile,
    check,
    connected_classes,
    distance_matrix,
    dtr,
    init_graph,
    merge,
    nm,
    node_profiles,
    oracle_minimal,
    recover_tree,
    unique_parents,
)
from .simulate import (
    DrgConfig,
    TimeSeriesPanel,
    compute_ml_ratio,
    gen_drg,
    population_autocov,
    population_covariance,
    simulate,
)

__version__ = "0.1.0"
