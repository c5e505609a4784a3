"""Episodic policy search for the RBF part of a hybrid controller.

A plain cross-entropy method: sample Gaussian perturbations of the trainable
parameters (RBF output weights, and log-lambda when enabled), score each
candidate by its mean episodic return, refit the sampling distribution to
the elites, repeat.  The linear part (W, b) and the operating point are
never touched; lambda is parameterized in log-space so it stays positive.

Determinism: one seeded generator drives everything, candidate 0 of every
population is the unperturbed mean, candidates are scored in a single
vectorized pass and reduced in fixed index order, so identical configs give
bit-identical runs regardless of machine load.

Every candidate in an iteration is scored on the same freshly drawn set of
initial states (episode start plus small jitter) - common random numbers
keep the elite ranking from rewarding lucky starts.

Layout: the RBF exponent of the whole batch is one matrix product,
expanded as (s obs).(s c) - 0.5 ||s obs||^2 - 0.5 ||s c||^2 and clamped at 0
(``_rbf_exponent``), with the scaled centers and their norms computed once
per call.  Each row goes through numpy's one-row product, so a candidate's
score does not depend on the rest of the population.  The expansion rounds
differently from the difference form that ``RbfPolicy.features`` evaluates,
so scores differ from the evaluator's in the last bits; the relevance d(x)
keeps the exact difference form, and exp, tanh and the blend run in place.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields

import numpy as np

from .envs import CostSpec, Environment, reward, simulate
from .policy import (HybridPolicy, LinearPolicy, RbfPolicy, RelevanceParams, _rowwise_matmul,
                     clone_policy)

# Initial-state jitter (per state dimension) used for candidate evaluation.
INIT_JITTER = 0.05
# log-lambda entries are perturbed at this fraction of the weight std: a
# full-size kick in log-space swings the relevance radii by e^+-sigma, which
# destabilizes the elite ranking long before the weights have settled.
LAMBDA_STD_FACTOR = 0.2


@dataclass
class TrainConfig:
    population: int = 32
    elite_frac: float = 0.25
    init_std: float = 3.0
    std_decay: float = 0.95
    iterations: int = 60
    episodes_per_candidate: int = 3
    horizon: int = 400
    seed: int = 0
    train_lambda: bool = True

    def __post_init__(self):
        for f in fields(self):
            self.check_field(f.name, getattr(self, f.name))

    @staticmethod
    def check_field(name: str, value) -> None:
        """Raise ValueError unless ``value`` is valid for field ``name``."""
        if name == "population" and value < 4:
            raise ValueError("population must be at least 4")
        if name == "elite_frac" and not 0.0 < value < 1.0:
            raise ValueError("elite_frac must lie strictly between 0 and 1")
        if name == "init_std" and not np.isfinite(value):
            raise ValueError("init_std must be finite")
        if name == "init_std" and not value > 0:
            raise ValueError("init_std must be positive")
        if name == "std_decay" and not 0.0 < value <= 1.0:
            raise ValueError("std_decay must lie in (0, 1]")
        if name in ("iterations", "episodes_per_candidate", "horizon") and value < 1:
            raise ValueError(f"{name} must be at least 1")

    @property
    def n_elite(self) -> int:
        return max(1, int(round(self.population * self.elite_frac)))


@dataclass
class TrainReport:
    """Per-iteration progress plus exact interaction-time accounting."""

    rows: list[tuple[int, float, float, float]] = field(default_factory=list)
    best_return: float = -np.inf
    episodes_evaluated: int = 0
    sim_time_s: float = 0.0
    wall_clock_s: float = 0.0
    checkpoint_ref: str | None = None

    @property
    def iterations(self) -> int:
        return len(self.rows)

    def to_csv(self, path, header_comments: list[str] | None = None) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for comment in header_comments or []:
                fh.write(f"# {comment}\n")
            fh.write("iter,best_return,mean_return,sim_time_s\n")
            for it, best, mean, sim_t in self.rows:
                fh.write(f"{it},{repr(float(best))},{repr(float(mean))},{repr(float(sim_t))}\n")


def default_rbf(env: Environment, n_centers: int = 50,
                rng: np.random.Generator | None = None,
                weight_scale: float | None = None) -> RbfPolicy:
    """Freshly initialized RBF controller for an environment.

    Centers are sampled uniformly over the reachable observation box;
    length-scales are a third of the box span per dimension; output weights
    are drawn about mean 1 with std 0.01 and then scaled small so the early
    policy is mild near its centers.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    lo, hi = env.obs_box()
    centers = rng.uniform(lo, hi, size=(n_centers, lo.shape[0]))
    scales = 3.0 / (hi - lo)
    u_max = env.params.u_max
    if weight_scale is None:
        weight_scale = u_max / (2.0 * n_centers)
    weights = rng.normal(1.0, 0.01, size=(n_centers, 1)) * weight_scale
    return RbfPolicy(centers=centers, scales=scales, weights=weights, u_max=u_max)


def make_hybrid(env: Environment, linear: LinearPolicy,
                n_centers: int = 50, lam: np.ndarray | float = 1.0,
                rng: np.random.Generator | None = None) -> HybridPolicy:
    """Hybrid policy around a synthesized linear controller; lambda defaults
    to the identity relevance metric."""
    a = env.target_obs()
    lam_vec = np.full(a.shape[0], float(lam)) if np.isscalar(lam) else np.asarray(lam, float)
    return HybridPolicy(
        linear=linear,
        nonlinear=default_rbf(env, n_centers=n_centers, rng=rng),
        relevance=RelevanceParams(a=a, lam=lam_vec),
        env_name=env.name,
    )


# lambda pins for the two degenerate hybrids: with d(x) = sum lam (x-a)^2,
# lam -> 0 makes the blend weight r -> 1 everywhere (pure linear), while a
# huge lam kills the linear part everywhere except at the operating point.
LINEAR_ONLY_LAMBDA = 1e-12
PURE_RBF_LAMBDA = 1e8


def linear_only_hybrid(env: Environment, linear: LinearPolicy) -> HybridPolicy:
    """Degenerate hybrid that evaluates to the linear controller: the RBF
    part has zero weights and lambda is pinned near zero."""
    a = env.target_obs()
    d = a.shape[0]
    rbf = RbfPolicy(centers=a.reshape(1, -1), scales=np.ones(d),
                    weights=np.zeros((1, 1)), u_max=env.params.u_max)
    rel = RelevanceParams(a=a, lam=np.full(d, LINEAR_ONLY_LAMBDA))
    return HybridPolicy(linear=linear, nonlinear=rbf, relevance=rel, env_name=env.name)


def baseline_hybrid(env: Environment, n_centers: int = 50,
                    rng: np.random.Generator | None = None) -> HybridPolicy:
    """Pure-H baseline: zero linear part, lambda pinned huge so the RBF alone
    acts everywhere away from the operating point.  Train with
    train_lambda=False so the pin stays."""
    a = env.target_obs()
    linear = LinearPolicy(W=np.zeros((1, a.shape[0])), b=np.zeros(1))
    return HybridPolicy(
        linear=linear,
        nonlinear=default_rbf(env, n_centers=n_centers, rng=rng),
        relevance=RelevanceParams(a=a, lam=np.full(a.shape[0], PURE_RBF_LAMBDA)),
        env_name=env.name,
    )


def _pack(policy: HybridPolicy, train_lambda: bool) -> np.ndarray:
    parts = [policy.nonlinear.weights.ravel()]
    if train_lambda:
        parts.append(np.log(policy.relevance.lam))
    return np.concatenate(parts)


def _unpack(theta: np.ndarray, template: HybridPolicy, train_lambda: bool) -> HybridPolicy:
    out = clone_policy(template)
    n_w = template.nonlinear.weights.size
    out.nonlinear.weights = theta[:n_w].reshape(template.nonlinear.weights.shape).copy()
    if train_lambda:
        out.relevance.lam = np.exp(theta[n_w:]).copy()
    return out


def _rbf_exponent(centers: np.ndarray, scales: np.ndarray):
    """obs (..., D) -> -0.5 ||(obs - c_n) * s||^2 for every center, (..., N).

    Expanded as (s obs).(s c_n) - 0.5 ||s obs||^2 - 0.5 ||s c_n||^2 and
    clamped at 0, with the center terms computed once.  Each row is its own
    one-row product (``_rowwise_matmul``), so a row's value does not depend
    on the batch it is scored in."""
    sc = centers * scales
    sc_cols = sc.T.copy()
    half_cc = -0.5 * np.sum(sc * sc, axis=1)

    def exponent(obs: np.ndarray) -> np.ndarray:
        so = obs * scales
        out = _rowwise_matmul(so, sc_cols)
        out += -0.5 * np.sum(so * so, axis=-1)[..., None]
        out += half_cc
        return np.minimum(out, 0.0, out=out)

    return exponent


def _population_returns(thetas: np.ndarray, template: HybridPolicy,
                        env: Environment, cost: CostSpec, x0s: np.ndarray,
                        T: int, train_lambda: bool) -> np.ndarray:
    """Mean episodic return per candidate, all candidates advanced in lock
    step as one (population x episodes) batch.  Scalar control only."""
    if template.control_dim != 1:
        raise NotImplementedError("population evaluation assumes scalar control")
    P = thetas.shape[0]
    E, n = x0s.shape
    n_w = template.nonlinear.weights.size
    w_pop = thetas[:, :n_w].reshape(P, -1)  # (P, N), F = 1
    lam_pop = (np.exp(thetas[:, n_w:]) if train_lambda
               else np.broadcast_to(template.relevance.lam, (P, template.obs_dim)))
    exponent = _rbf_exponent(template.nonlinear.centers, template.nonlinear.scales)
    a = template.relevance.a
    w_lin = template.linear.W[0]
    b_lin = template.linear.b[0]
    u_max = template.nonlinear.u_max

    x = np.broadcast_to(x0s, (P, E, n)).copy()
    total = np.zeros((P, E))
    for _ in range(T):
        obs = env.observe(x)  # (P, E, D)
        feats = exponent(obs)
        np.exp(feats, out=feats)
        h = np.einsum("pen,pn->pe", feats, w_pop)  # u_max tanh(raw / u_max)
        h /= u_max
        np.tanh(h, out=h)
        h *= u_max
        g = obs @ w_lin + b_lin
        diff = obs - a
        diff *= diff
        r = np.einsum("ped,pd->pe", diff, lam_pop)  # 1 / (1 + d)^2
        r += 1.0
        r **= 2
        np.divide(1.0, r, out=r)
        np.multiply(r, g, out=g)  # r g + (1 - r) h, clipped
        np.multiply(np.subtract(1.0, r, out=r), h, out=h)
        g += h
        u = np.clip(g, -u_max, u_max, out=g)
        total += reward(obs, u, cost)
        x = env.step(x, u)
    return total.mean(axis=1)


def train(policy: HybridPolicy, config: TrainConfig, env: Environment,
          cost: CostSpec | None = None,
          on_improvement=None) -> tuple[HybridPolicy, TrainReport]:
    """Cross-entropy search over the RBF weights (and log-lambda).

    Returns the best-seen policy (the input is left untouched) and a report
    whose simulated-time column is exactly episodes x horizon x dt.  The
    best-seen return is non-decreasing by construction; a run that never
    improves still returns the best candidate it saw.
    """
    cost = cost if cost is not None else env.default_cost()
    rng = np.random.default_rng(config.seed)
    t_start = time.perf_counter()

    mean = _pack(policy, config.train_lambda)
    std_scale = np.ones(mean.shape)
    if config.train_lambda:
        std_scale[policy.nonlinear.weights.size:] = LAMBDA_STD_FACTOR
    std = config.init_std * std_scale
    best_theta = mean.copy()
    best_return = -np.inf
    report = TrainReport()

    for it in range(config.iterations):
        # episode 0 is the nominal initialization itself; the rest add small
        # jitter.  Scoring partly on the nominal start keeps the elite
        # ranking aligned with how trained policies are later evaluated.
        x0s = env.init_state() + INIT_JITTER * rng.standard_normal(
            (config.episodes_per_candidate, env.state_dim))
        x0s[0] = env.init_state()
        eps = rng.standard_normal((config.population - 1, mean.shape[0]))
        cands = np.vstack([mean, mean + eps * std])
        # elitist re-injection: the best-seen parameters compete every
        # iteration under the fresh common random numbers, so a catch that
        # the distribution drifted away from can re-seed the elites
        if it > 0:
            cands[1] = best_theta
        returns = _population_returns(cands, policy, env, cost, x0s,
                                      config.horizon, config.train_lambda)
        report.episodes_evaluated += config.population * config.episodes_per_candidate

        order = np.argsort(-returns, kind="stable")
        if returns[order[0]] > best_return:
            best_return = float(returns[order[0]])
            best_theta = cands[order[0]].copy()
            if on_improvement is not None:
                on_improvement(it, _unpack(best_theta, policy, config.train_lambda))
        elite = cands[order[: config.n_elite]]
        mean = elite.mean(axis=0)
        # Exploration never collapses faster than the decay schedule allows.
        std = np.maximum(elite.std(axis=0),
                         config.init_std * config.std_decay ** (it + 1) * std_scale)

        sim_time = report.episodes_evaluated * config.horizon * env.params.dt
        report.rows.append((it, best_return, float(returns.mean()), sim_time))

    report.best_return = best_return
    report.sim_time_s = report.episodes_evaluated * config.horizon * env.params.dt
    report.wall_clock_s = time.perf_counter() - t_start
    return _unpack(best_theta, policy, config.train_lambda), report


def hold_at_target(policy, env: Environment, T: int = 400,
                   angle_tol_deg: float = 5.0, position_tol: float = 0.05,
                   tail_frac: float = 0.2) -> bool:
    """Did the policy reach and hold the operating point?

    Simulates one episode from the nominal start and checks the monitored
    state over the final fraction of the horizon: within 5 degrees for angle
    targets, within 5 cm for position targets.
    """
    traj = simulate(env, policy.action, env.init_state(), T,
                    truncate_on_divergence=True)
    if traj.diverged:
        return False
    signal = np.abs(traj.monitored(env))
    tol = np.deg2rad(angle_tol_deg) if env.monitored_is_angle else position_tol
    tail = signal[int(np.ceil((1.0 - tail_frac) * len(signal))):]
    return bool(np.all(tail < tol))
