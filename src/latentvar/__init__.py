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
    select_lag,
)
from .model import (
    BlockTransitionMatrix,
    LatentVarModel,
    LinearMeasurements,
    UnobservedNetwork,
    canonical_form,
    complete_census,
    consistent,
    default_names,
    network_of,
    nilpotency_index,
    true_linear_measurements,
)
from .recover import (
    dtr,
    nm,
    oracle_minimal,
    recover_tree,
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
