"""Hybrid linear/RBF controller lab.

A blended controller pi(x) = r(x) G(x) + (1 - r(x)) H(x) built from an
LQR-designed linear part and a trainable RBF part, with the swing-up
environments, gain synthesis, episodic policy search, and the transient
response / robustness analyses around it.
"""

from .analysis import (
    ResponseMetrics,
    RobustnessCurve,
    extract_metrics,
    impulse_response,
    robustness_sweep,
    step_response,
)
from .envs import (
    CartPole,
    CostSpec,
    EnvParams,
    Environment,
    MountainCar,
    Pendulum,
    Trajectory,
    linearize_numerical,
    make_env,
    reward,
    rollout_return,
    rollout_returns,
    simulate,
)
from .errors import (
    HybridctlError,
    NumericalDivergenceError,
    PolicyParseError,
    PolicyVersionError,
    RiccatiConvergenceError,
    SynthesisError,
)
from .lqr import (
    CostWeights,
    GainMatrix,
    LinearSystem,
    ObservationEmbedding,
    lqr_gain,
    solve_care,
    to_linear_policy,
)
from .policy import (
    HybridPolicy,
    LinearPolicy,
    RbfPolicy,
    RelevanceParams,
    deserialize,
    hybrid_action,
    jacobian_state,
    load_policy,
    property_report,
    relevance,
    save_policy,
    scaled_distance,
    serialize,
)
from .trainer import (
    TrainConfig,
    TrainReport,
    baseline_hybrid,
    hold_at_target,
    linear_only_hybrid,
    make_hybrid,
    train,
)

__version__ = "0.1.0"
