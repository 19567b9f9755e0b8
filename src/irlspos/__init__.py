"""Robust TDoA indoor positioning with reference rotation and Andrews-sine
outlier rejection, plus a statistical ToA emulator and a Monte-Carlo
benchmark harness.

The names below are the library's API: ``irls_position``, ``run_batch``
and the types they take and return, plus the ranging noise model
``toa_noise_std``. Two parts are imported from their modules instead. The
one ToA emulator, ``irlspos.harness.emulate_trial_measurements``, makes a
scenario trial's epoch. The layer that ``irls_position`` runs below its
epoch checks trusts its inputs: ``compute_tdoas`` forms every reference's
``RangeDifferenceSet`` in one pass, and ``solve_single_reference`` and
``solve_all_references`` solve them.

``import irlspos``, loading a scenario and an ``irls_position`` fix run on
plain floats and do not import numpy. The solver's lstsq fallback imports
it when called. The harness names
(``run_batch``, ``export_results``, ``summarize``, ``TrialBatch``,
``TrialRecord`` and ``MethodSummary``) are resolved from
:mod:`irlspos.harness` on first access, since that module imports numpy
when it loads. A ``TrialBatch`` holds its results as columns, one row per
trial, and builds its ``TrialRecord`` view, ``per_trial``, on each read."""

from .channel import BandProfile, MeasurementSet, toa_noise_std
from .config import BiasModel, ScenarioConfig, load_config
from .errors import ConfigError, GeometryError
from .geometry import (
    SPEED_OF_LIGHT_M_S,
    BaseStation,
    Position2D,
    euclidean_distance,
)
from .irls import (
    IrlsSettings,
    PositionEstimate,
    andrews_weight,
    irls_position,
    weighted_average,
)
from .lsq import CandidateEstimate, SolverSettings
from .presets import PRESET_NAMES, get_preset

__version__ = "0.1.0"

# resolved on first use by __getattr__: the harness is the one module that
# needs numpy at import
_HARNESS_NAMES = frozenset(
    {"MethodSummary", "TrialBatch", "TrialRecord", "export_results", "run_batch", "summarize"}
)

__all__ = [
    "SPEED_OF_LIGHT_M_S",
    "BandProfile",
    "BaseStation",
    "BiasModel",
    "CandidateEstimate",
    "ConfigError",
    "GeometryError",
    "IrlsSettings",
    "MeasurementSet",
    "MethodSummary",
    "Position2D",
    "PositionEstimate",
    "PRESET_NAMES",
    "ScenarioConfig",
    "SolverSettings",
    "TrialBatch",
    "TrialRecord",
    "andrews_weight",
    "euclidean_distance",
    "export_results",
    "get_preset",
    "irls_position",
    "load_config",
    "run_batch",
    "summarize",
    "toa_noise_std",
    "weighted_average",
]


def __getattr__(name: str):
    if name in _HARNESS_NAMES:
        from . import harness

        return getattr(harness, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
