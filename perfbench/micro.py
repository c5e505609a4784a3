"""Fixed-shape microbenchmarks of single layers, run untraced.

Shapes match the two closed-loop paths: 96 rows (32 candidates x 3
episodes, the trainer's batch) and 1 row (the scalar ``simulate`` loop).
Each figure is the median per-call time in microseconds over several
samples of a calibrated loop.  A case whose public name no longer exists
is reported as absent.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import hybridctl
from hybridctl import config

SAMPLES = 9
MIN_SAMPLE_S = 0.01


def _per_call_us(fn) -> float:
    clock = time.perf_counter
    loops = 1
    while True:
        t0 = clock()
        for _ in range(loops):
            fn()
        if clock() - t0 >= MIN_SAMPLE_S:
            break
        loops *= 2
    samples = []
    for _ in range(SAMPLES):
        t0 = clock()
        for _ in range(loops):
            fn()
        samples.append((clock() - t0) / loops)
    return statistics.median(samples) * 1e6


def _cases(seed: int) -> dict:
    env = hybridctl.make_env("pendulum")
    weights = config.RunConfig(env_name="pendulum").make_weights(env)
    gain = hybridctl.lqr_gain(env.analytic_linearization(), weights)
    linear = hybridctl.to_linear_policy(gain, env.embedding())
    pol = hybridctl.make_hybrid(env, linear, rng=np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    lo, hi = env.obs_box()
    obs96 = rng.uniform(lo, hi, size=(96, env.obs_dim))
    obs1 = obs96[0].copy()
    x96 = rng.uniform([-np.pi, -8.0], [np.pi, 8.0], size=(96, env.state_dim))
    x1 = x96[0].copy()
    u_max = env.params.u_max
    u96 = rng.uniform(-u_max, u_max, size=96)
    u1 = float(u96[0])
    cost = env.default_cost()
    cartpole = hybridctl.make_env("cartpole")
    cp_system = cartpole.analytic_linearization()
    cp_weights = config.RunConfig(env_name="cartpole").make_weights(cartpole)
    text = hybridctl.serialize(pol)
    return {
        "policy.rbf_features.rows96_us": lambda: pol.nonlinear.features(obs96),
        "policy.rbf_features.rows1_us": lambda: pol.nonlinear.features(obs1),
        "policy.hybrid_action.rows96_us": lambda: hybridctl.hybrid_action(obs96, pol),
        "policy.hybrid_action.rows1_us": lambda: hybridctl.hybrid_action(obs1, pol),
        "envs.step.rows96_us": lambda: env.step(x96, u96),
        "envs.step.rows1_us": lambda: env.step(x1, u1),
        "envs.reward.rows96_us": lambda: hybridctl.reward(obs96, u96, cost),
        "lqr.solve_care_us": lambda: hybridctl.solve_care(cp_system, cp_weights),
        "policy.serialize_us": lambda: hybridctl.serialize(pol),
        "policy.deserialize_us": lambda: hybridctl.deserialize(text),
    }


def run(seed: int) -> tuple[dict[str, float], list[str]]:
    """Per-call microseconds per case, and the cases found absent."""
    values, absent = {}, []
    for name, fn in _cases(seed).items():
        try:
            fn()
        except (AttributeError, TypeError):
            values[name] = 0.0
            absent.append(name)
            continue
        values[name] = _per_call_us(fn)
    return values, absent
