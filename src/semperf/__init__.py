"""semperf: spectral-element work kernel plus the Gamma speedup model."""

from .basis import SpectralBasis, build_gll_basis
from .errors import (
    CalibrationDegenerateError,
    OverDecompositionError,
    SemperfError,
)
from .gamma import (
    CalibrationInput,
    GammaFit,
    MachineProfile,
    TimeDecomposition,
    analyze_usage_histogram,
    calibrate,
    gamma_from_efficiency,
    gamma_from_times,
    normalize_node_usage,
    predict_time,
)
from .harness import (
    CampaignSpec,
    RunRecord,
    run_campaign,
    run_degree_sweep,
    run_strong_scaling,
    run_time_budget,
    run_weak_scaling,
)
from .kernel import (
    CaseConfig,
    ElementField,
    FlopCounter,
    apply_element_laplacian,
    tensor_derivative,
)
from .partition import (
    AppProfile,
    PartitionPlan,
    partition_elements,
    words_per_step,
)
from .profiles import REFERENCE_STRONG_CASE, builtin_profiles
from .solver import run_work_unit, step_flops
from .transport import loopback_transport

__version__ = "0.1.0"
