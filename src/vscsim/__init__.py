"""Vehicular secrecy-capacity toolkit.

Analytic link-secrecy models for highway and urban geometries, random
eavesdropper fields, an SNR-only secrecy estimate (VSC) with clustering
protocols built on it, and a reproducible simulation harness with CSV
output.
"""

from .channel import (
    ChannelParams,
    FadingModel,
    capacity_bits,
    clamped,
    fading_secrecy_pair,
    gaussian_wiretap_secrecy,
    link_capacities,
    link_snr,
    path_loss_coeff_sq,
    sample_fading,
    secrecy_bits,
    shannon_capacity,
)
from .cluster import (
    AdjustableHighwayLink,
    ClusterHistory,
    ClusterState,
    NegotiationResult,
    RelayOption,
    SecrecyKnobs,
    VehicleIdentity,
    form_cluster,
    history_fallback,
    make_identity,
    rsc_negotiate,
    sc_select,
    select_consensus_candidates,
    validate_identity,
)
from .config import ConfigError, RunConfig, build_config, load_config, validate_config
from .highway import HighwayWorld, run_highway_experiment, run_perturbation_study
from .intersection import IntersectionResult, Trajectory, make_case, run_intersection_case
from .kinematics import VehicleState, braking_distance, coupled_distance, safety_distance
from .presets import get_preset, list_presets
from .runner import build_table, run
from .scenarios import (
    HighwayScenario,
    RelayScenario,
    UrbanScenario,
    highway_secrecy,
    relay_secrecy,
    urban_fixed_secrecy,
    urban_moving_secrecy,
)
from .stochastic import (
    ErgodicConfig,
    ErgodicEstimate,
    PppField,
    Rect,
    average_secrecy,
    ergodic_secrecy_mc,
    poisson_pmf,
    ppp_secrecy,
    sample_field,
    square_region,
)
from .sweeps import SweepSpec, run_sweep
from .tables import ARTIFACT_VERSION, ResultTable, emit_plot_data, read_csv, write_csv
from .units import Point2D, db_to_linear, distance, kmh_to_ms, linear_to_db, ms_to_kmh
from .vsc import (
    CsiRecord,
    VscResult,
    compute_vsc,
    read_csi_csv,
    security_verdict,
    window_vscs,
    windowed_stream,
    write_csi_csv,
)

__version__ = ARTIFACT_VERSION
