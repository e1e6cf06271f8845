"""Predictive ad-hoc routing with Q-learning route maintenance, plus a
deterministic discrete-event simulator and campaign runner."""

from .campaign import (
    CampaignConfig,
    PointResult,
    aggregate_point,
    apply_sweep,
    derive_run_seed,
    emit_csv,
    mean_ci,
    parse_config,
    prediction_accuracy_study,
    run_campaign,
)
from .channel import (
    LinkBudget,
    budget_for_radius,
    compute_r_tx,
    default_budget,
    mean_rx_power,
    nakagami_gain,
    receive,
)
from .chirp import (
    CHIRP_SIZE,
    Chirp,
    ChirpValidationError,
    MalformedFrameError,
    decode_chirp,
    encode_chirp,
    seq_newer,
)
from .errors import ConfigError
from .kinematics import (
    KinematicState,
    MobilityConfig,
    Vec3,
    make_random_waypoint_state,
    predict_position,
    predict_slope,
    predict_waypoint,
    prediction_error,
    step_random_waypoint,
)
from .routing import (
    CohesionHistory,
    Discard,
    Forward,
    NeighborRecord,
    QTable,
    RoutingParams,
    RoutingState,
    compute_let,
)
from .simulator import (
    RunMetrics,
    Scenario,
    Simulation,
    greedy_next_hop,
    optimal_pdr_bound,
    run,
    stable_seed,
)

__version__ = "0.1.0"
