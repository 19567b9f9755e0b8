"""Robust TDoA indoor positioning with reference rotation and Andrews-sine
outlier rejection, plus a parametric multipath ToA emulator and a
Monte-Carlo benchmark harness."""

from .channel import (
    BandProfile,
    LinkState,
    MeasurementSet,
    MultipathComponent,
    SampledWaveform,
    emulate_measurement_set,
    estimate_toa_from_waveform,
    make_multipath_components,
    raised_cosine_pulse,
    synthesize_received_waveform,
    toa_noise_std,
    waveform_noise_std,
)
from .config import BiasModel, ScenarioConfig, load_config
from .errors import ConfigError, GeometryError
from .geometry import (
    SPEED_OF_LIGHT_M_S,
    BaseStation,
    Position2D,
    euclidean_distance,
    true_first_toa,
)
from .harness import (
    MethodSummary,
    TrialBatch,
    TrialRecord,
    export_results,
    run_batch,
    summarize,
)
from .irls import (
    IrlsSettings,
    PositionEstimate,
    andrews_weight,
    irls_position,
    weighted_average,
)
from .lsq import (
    CandidateEstimate,
    SolverSettings,
    solve_all_references,
    solve_single_reference,
)
from .presets import PRESET_NAMES, get_preset
from .tdoa import RangeDifferenceSet, compute_tdoas

__version__ = "0.1.0"

__all__ = [
    "SPEED_OF_LIGHT_M_S",
    "BandProfile",
    "BaseStation",
    "BiasModel",
    "CandidateEstimate",
    "ConfigError",
    "GeometryError",
    "IrlsSettings",
    "LinkState",
    "MeasurementSet",
    "MethodSummary",
    "MultipathComponent",
    "Position2D",
    "PositionEstimate",
    "PRESET_NAMES",
    "RangeDifferenceSet",
    "SampledWaveform",
    "ScenarioConfig",
    "SolverSettings",
    "TrialBatch",
    "TrialRecord",
    "andrews_weight",
    "compute_tdoas",
    "emulate_measurement_set",
    "estimate_toa_from_waveform",
    "euclidean_distance",
    "export_results",
    "get_preset",
    "irls_position",
    "load_config",
    "make_multipath_components",
    "raised_cosine_pulse",
    "run_batch",
    "solve_all_references",
    "solve_single_reference",
    "summarize",
    "synthesize_received_waveform",
    "toa_noise_std",
    "true_first_toa",
    "waveform_noise_std",
    "weighted_average",
]
