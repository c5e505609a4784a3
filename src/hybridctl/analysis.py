"""Transient-response metrics and robustness sweeps.

Impulse and step responses start the closed loop exactly at the operating
point and inject an additive external force (one step, or sustained).  The
monitored state (pole angle, or car position for the mountain car) is then
reduced to the three classic figures:

* steady-state error: mean deviation from the target over the last 10% of
  the trajectory;
* overshoot: largest excursion past the target opposite to the initial
  deviation (zero when the response never crosses the target - reports mark
  that case "not defined: monotone approach");
* settling time: first timestep after which the signal stays inside the
  tolerance band forever.  The band is 2% of the peak deviation with an
  absolute floor of 0.1 degree / 1 mm.

Angle metrics are reported in degrees.  Robustness sweeps rescale one
physical parameter ('mass' or 'g'), roll the fixed policy out from seeded
jittered starts in the operating region, and record mean +- std cumulative
reward per scale factor; rollouts that diverge contribute the reward they
accumulated up to the divergence cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .envs import (CostSpec, Environment, Trajectory, jittered_start,
                   rollout_returns, simulate)

SETTLE_BAND_FRACTION = 0.02
ANGLE_BAND_FLOOR_DEG = 0.1
POSITION_BAND_FLOOR_M = 1e-3
FACTOR_RANGE = (0.5, 5.0)

OVERSHOOT_UNDEFINED_NOTE = "not defined: monotone approach"


@dataclass
class ResponseMetrics:
    """Transient-response summary of one monitored signal."""

    steady_state_error: float
    overshoot: float
    settling_time: int  # timesteps; equals the horizon when not settled
    settled: bool
    crossed_target: bool  # False = monotone approach, overshoot undefined
    units: str  # "deg" or "m"
    band: float  # tolerance band actually used, same units
    diverged: bool = False

    def overshoot_label(self) -> str:
        return repr(float(self.overshoot)) if self.crossed_target else OVERSHOOT_UNDEFINED_NOTE


@dataclass
class RobustnessCurve:
    """Mean +- std cumulative reward against a parameter scale factor."""

    parameter: str
    factors: np.ndarray
    mean_reward: np.ndarray
    std_reward: np.ndarray
    n_seeds: int

    def to_csv(self, path, header_comments: list[str] | None = None) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for comment in header_comments or []:
                fh.write(f"# {comment}\n")
            fh.write("factor,mean_reward,std_reward\n")
            for f, m, s in zip(self.factors, self.mean_reward, self.std_reward):
                fh.write(f"{repr(float(f))},{repr(float(m))},{repr(float(s))}\n")


def extract_metrics(trajectory: np.ndarray, target: float, band: float) -> ResponseMetrics:
    """Reduce a monitored 1-d signal to response metrics.

    Pure function of (signal - target), so shifting trajectory and target by
    the same constant leaves every metric unchanged.  Units are whatever the
    caller supplied; the returned record is tagged by the response builders.
    """
    signal = np.asarray(trajectory, dtype=float).reshape(-1)
    if signal.size == 0:
        raise ValueError("cannot extract metrics from an empty trajectory")
    if band <= 0:
        raise ValueError("tolerance band must be positive")
    dev = signal - float(target)
    n = dev.shape[0]
    sse = float(np.mean(dev[-max(1, n // 10):]))

    moved = np.nonzero(np.abs(dev) > 1e-15)[0]
    if moved.size == 0:
        return ResponseMetrics(steady_state_error=0.0, overshoot=0.0,
                               settling_time=0, settled=True,
                               crossed_target=False, units="", band=band)
    direction = np.sign(dev[moved[0]])
    overshoot = float(max(0.0, np.max(-direction * dev)))

    outside = np.abs(dev) > band
    if not np.any(outside):
        settling, settled = 0, True
    else:
        last_outside = int(np.nonzero(outside)[0][-1])
        settled = last_outside < n - 1
        settling = last_outside + 1 if settled else n
    return ResponseMetrics(steady_state_error=sse, overshoot=overshoot,
                           settling_time=settling, settled=settled,
                           crossed_target=overshoot > 0.0, units="", band=band)


def _monitored_signal(traj: Trajectory, env: Environment) -> tuple[np.ndarray, str, float]:
    signal = traj.monitored(env)
    if env.monitored_is_angle:
        return np.rad2deg(signal), "deg", ANGLE_BAND_FLOOR_DEG
    return signal, "m", POSITION_BAND_FLOOR_M


def _band_for(dev: np.ndarray, floor: float) -> float:
    peak = float(np.max(np.abs(dev))) if dev.size else 0.0
    return max(SETTLE_BAND_FRACTION * peak, floor)


def default_impulse_magnitude(env: Environment) -> float:
    """Per-environment impulse size, scaled down where a full-u_max kick
    would leave the trusted neighbourhood of the linear controller."""
    fraction = {"pendulum": 1.0, "cartpole": 0.25, "mountaincar": 0.5}.get(env.name, 0.5)
    return fraction * env.params.u_max


def default_step_magnitude(env: Environment) -> float:
    return 0.1 * env.params.u_max


def impulse_response(policy, env: Environment, magnitude: float | None = None,
                     horizon: int | None = None,
                     cost: CostSpec | None = None) -> tuple[Trajectory, ResponseMetrics]:
    """Closed-loop response to a one-step additive disturbance force at t=0.

    The system starts exactly at the operating point; the disturbance adds
    to the (already clipped) control for a single timestep.  Divergence is
    flagged in the metrics rather than raised.
    """
    magnitude = default_impulse_magnitude(env) if magnitude is None else float(magnitude)
    return _response(policy, env, lambda t: magnitude if t == 0 else 0.0,
                     horizon, cost, settle_to_final=False)


def step_response(policy, env: Environment, magnitude: float | None = None,
                  horizon: int | None = None,
                  cost: CostSpec | None = None) -> tuple[Trajectory, ResponseMetrics]:
    """Closed-loop response to a sustained additive disturbance force.

    Under a constant disturbance the loop settles to a shifted equilibrium,
    so the metrics are measured relative to that new steady offset (the mean
    of the final 10% of the signal), per standard step-response practice.
    """
    magnitude = default_step_magnitude(env) if magnitude is None else float(magnitude)
    return _response(policy, env, lambda t: magnitude, horizon, cost,
                     settle_to_final=True)


def _response(policy, env: Environment, disturbance, horizon: int | None,
              cost: CostSpec | None,
              settle_to_final: bool) -> tuple[Trajectory, ResponseMetrics]:
    """Roll out from the operating point under ``disturbance(t)`` and measure
    the monitored signal against the operating point, or against the mean of
    its final 10% when ``settle_to_final``."""
    horizon = env.params.horizon if horizon is None else int(horizon)
    traj = simulate(env, policy.action, env.operating_state(), horizon,
                    cost=cost if cost is not None else env.default_cost(),
                    disturbance=disturbance, truncate_on_divergence=True)
    signal, units, floor = _monitored_signal(traj, env)
    target = float(np.mean(signal[-max(1, signal.shape[0] // 10):])) \
        if settle_to_final else 0.0
    metrics = extract_metrics(signal, target, _band_for(signal - target, floor))
    metrics.units = units
    if traj.diverged:
        metrics.diverged = True
        metrics.settled = False
        metrics.settling_time = horizon
    return traj, metrics


def check_sweep_setting(name: str, value) -> None:
    """Raise ValueError unless ``value`` is valid for sweep setting ``name``:
    "factors" (a sequence), "seeds" (a count), "horizon" or "jitter"."""
    if name == "factors":
        factors = np.asarray(value, dtype=float)
        if factors.size == 0:
            raise ValueError("need at least one scale factor")
        if not np.all(np.isfinite(factors)):
            raise ValueError("scale factors must be finite")
        if np.any(np.diff(factors) <= 0):
            raise ValueError("scale factors must be strictly increasing")
        if factors[0] < FACTOR_RANGE[0] or factors[-1] > FACTOR_RANGE[1]:
            raise ValueError(f"scale factors must lie within "
                             f"[{FACTOR_RANGE[0]}, {FACTOR_RANGE[1]}]")
    if name == "seeds" and value < 1:
        raise ValueError("need at least one seed")
    if name == "horizon" and int(value) < 1:
        raise ValueError("robustness horizon must be at least 1")
    if name == "jitter" and not np.isfinite(value):
        raise ValueError("robustness jitter must be finite")
    if name == "jitter" and not value >= 0.0:
        raise ValueError("robustness jitter must be nonnegative")


def robustness_sweep(policy, env: Environment, parameter: str,
                     factors, seeds, cost: CostSpec | None = None,
                     horizon: int = 200, jitter: float = 0.01) -> RobustnessCurve:
    """Cumulative-reward curve of a fixed policy under model mismatch.

    For each scale factor the chosen physical parameter is rescaled and the
    policy (never retrained) is rolled out from seeded jittered starts in
    the operating region.  All factors x seeds run as one batch of rows,
    each with its own model, and every rollout's return is bit-identical to
    that rollout run alone.  Identical seed lists give bit-identical curves.
    """
    factors = np.asarray(list(factors), dtype=float)
    check_sweep_setting("factors", factors)
    if parameter not in ("mass", "g"):
        raise ValueError("parameter must be 'mass' or 'g'")
    seed_list = list(range(int(seeds))) if np.isscalar(seeds) else [int(s) for s in seeds]
    check_sweep_setting("seeds", len(seed_list))
    check_sweep_setting("horizon", horizon)
    check_sweep_setting("jitter", jitter)
    cost = cost if cost is not None else env.default_cost()

    # one batch: row i * len(seed_list) + j is factor i, seed j
    scaled = env.scaled(parameter, np.repeat(factors, len(seed_list)))
    starts = [jittered_start(scaled.operating_state(), s, jitter) for s in seed_list]
    returns = rollout_returns(scaled, policy, np.tile(starts, (factors.size, 1)),
                              horizon, cost)
    per_factor = returns.reshape(factors.size, len(seed_list))
    means = np.array([r.mean() for r in per_factor])
    stds = np.array([r.std() for r in per_factor])
    return RobustnessCurve(parameter=parameter, factors=factors,
                           mean_reward=means, std_reward=stds,
                           n_seeds=len(seed_list))


def write_metrics_table(path, entries, header_comments: list[str] | None = None) -> None:
    """Metrics table CSV; one row per (env, controller) aggregate.

    ``entries`` is an iterable of (env_name, controller_name, metrics_list).
    Deterministic responses yield zero stds; the layout still carries both
    columns so tables from repeated stochastic evaluations line up.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for comment in header_comments or []:
            fh.write(f"# {comment}\n")
        fh.write("env,controller,sse_mean,sse_std,overshoot_mean,overshoot_std,"
                 "settle_mean,settle_std\n")
        for env_name, controller, metrics_list in entries:
            sse = np.array([m.steady_state_error for m in metrics_list], dtype=float)
            osh = np.array([m.overshoot for m in metrics_list], dtype=float)
            st = np.array([m.settling_time for m in metrics_list], dtype=float)
            row = [env_name, controller,
                   repr(float(sse.mean())), repr(float(sse.std())),
                   repr(float(osh.mean())), repr(float(osh.std())),
                   repr(float(st.mean())), repr(float(st.std()))]
            fh.write(",".join(row) + "\n")
