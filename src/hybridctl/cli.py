"""Command-line front end.

Subcommands::

    hybridctl synthesize --config cfg.txt          gain + linear policy files
    hybridctl train      --config cfg.txt --mode hybrid|baseline
    hybridctl respond    --policy p.txt --kind impulse|step
    hybridctl robust     --policy p.txt --param mass|g --factors 0.5:5:10
    hybridctl verify     --policy p.txt

All commands are non-interactive.  Exit codes: 0 success, 1 computation
failure (synthesis, parsing, divergence), 2 usage errors.  Outputs land
under $HYBRIDCTL_OUT (default '.') joined with the config's out_dir, and
every artifact carries the config hash and seed, so re-running a command
with the same config reproduces the same bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from . import analysis, config as config_mod, envs, lqr, policy as policy_mod, trainer
from .errors import HybridctlError
from .svgplot import line_chart

OUT_ROOT_ENV = "HYBRIDCTL_OUT"

# respond --kind -> (response function, default disturbance magnitude)
RESPONSES = {
    "impulse": (analysis.impulse_response, analysis.default_impulse_magnitude),
    "step": (analysis.step_response, analysis.default_step_magnitude),
}


def _load_config(args) -> config_mod.RunConfig:
    overrides: dict[str, str] = {}
    if getattr(args, "env", None):
        overrides["env.name"] = args.env
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = str(args.seed)
    if getattr(args, "out", None):
        overrides["out_dir"] = args.out
    cfg = config_mod.load_run_config(getattr(args, "config", None), overrides)
    return cfg


def _out_dir(cfg: config_mod.RunConfig) -> Path:
    root = Path(os.environ.get(OUT_ROOT_ENV, "."))
    out = root / cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_matrix_csv(path, mat: np.ndarray, comments: list[str]) -> None:
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    with open(path, "w", encoding="utf-8") as fh:
        for comment in comments:
            fh.write(f"# {comment}\n")
        for row in mat:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def cmd_synthesize(args) -> int:
    cfg = _load_config(args)
    env = cfg.make_env()
    out = _out_dir(cfg)
    stamp = cfg.stamp(env)

    system = env.analytic_linearization()
    numerical = envs.linearize_numerical(env, env.operating_state(), 0.0)
    if cfg.lqr_b_scale != 1.0:
        system = lqr.LinearSystem(A=system.A, B=system.B * cfg.lqr_b_scale)
    weights = cfg.make_weights(env)
    gain = lqr.lqr_gain(system, weights)
    linear = lqr.to_linear_policy(gain, env.embedding())
    hybrid_file = trainer.linear_only_hybrid(env, linear)

    _write_matrix_csv(out / "gain.csv", gain.K, stamp)
    _write_matrix_csv(out / "riccati.csv", gain.P, stamp)
    policy_mod.save_policy(hybrid_file, out / "linear_policy.txt", comments=stamp)

    residual = lqr.riccati_residual(system, weights, gain.P)
    tol_ok = residual < lqr.RESIDUAL_RTOL * (1.0 + np.linalg.norm(gain.P, "fro"))
    lines = [f"# {stamp[0]}", f"environment: {env.name}",
             f"state matrix A:\n{system.A}", f"input matrix B:\n{system.B.ravel()}",
             f"gain K: {gain.K.ravel()}",
             f"closed-loop eigenvalues: {gain.closed_loop_eigs}",
             f"max Re eigenvalue: {np.max(gain.closed_loop_eigs.real):.6e}",
             f"riccati residual: {residual:.3e} ({'PASS' if tol_ok else 'FAIL'})",
             "", "analytic vs numerical linearization (relative, zeros absolute):"]
    analytic = env.analytic_linearization()
    ok = True
    for name, a_mat, n_mat in (("A", analytic.A, numerical.A),
                               ("B", analytic.B, numerical.B)):
        gap = np.abs(n_mat - a_mat)
        scale = np.where(np.abs(a_mat) > 1e-12, np.abs(a_mat), 1e-3)
        rel = float(np.max(gap / scale))
        entry_ok = rel < 1e-3
        ok = ok and entry_ok
        lines.append(f"  {name}: max scaled gap {rel:.3e} "
                     f"({'PASS' if entry_ok else 'FAIL'})")
    (out / "synthesis_report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"synthesized gain for {env.name}: K = {gain.K.ravel()}, "
          f"max Re eig = {np.max(gain.closed_loop_eigs.real):.4f}, "
          f"cross-check {'PASS' if ok else 'FAIL'}")
    if not ok:
        raise HybridctlError("numerical linearization disagrees with the analytic model")
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args)
    env = cfg.make_env()
    cost = cfg.make_cost(env)
    out = _out_dir(cfg)
    stamp = cfg.stamp(env)
    rng = np.random.default_rng(cfg.seed)

    if args.mode == "hybrid":
        linear_path = args.linear or (out / "linear_policy.txt")
        source = policy_mod.load_policy(linear_path)
        start = trainer.make_hybrid(env, source.linear, n_centers=cfg.n_centers,
                                    lam=cfg.lam_vector(env.obs_dim), rng=rng)
        train_cfg = cfg.train
    else:  # baseline: pure nonlinear policy, lambda pinned
        start = trainer.baseline_hybrid(env, n_centers=cfg.n_centers, rng=rng)
        train_cfg = dataclasses.replace(cfg.train, train_lambda=False)

    def checkpoint(iteration: int, snapshot: policy_mod.HybridPolicy) -> None:
        policy_mod.save_policy(snapshot, out / f"checkpoint_{iteration:04d}.txt",
                               comments=stamp + [f"iteration={iteration}"])

    best, report = trainer.train(start, train_cfg, env, cost,
                                 on_improvement=checkpoint)
    policy_file = out / f"policy_{args.mode}_seed{cfg.seed}.txt"
    policy_mod.save_policy(best, policy_file, comments=stamp)
    report.checkpoint_ref = str(policy_file)
    report.to_csv(out / "train_report.csv", header_comments=stamp)

    reached = trainer.hold_at_target(best, env)
    status = "target_reached" if reached else "target_not_reached"
    (out / "train_status.txt").write_text(
        f"# {stamp[0]}\nstatus={status}\nbest_return={report.best_return!r}\n"
        f"episodes={report.episodes_evaluated}\nsim_time_s={report.sim_time_s!r}\n"
        f"policy={policy_file}\n", encoding="utf-8")
    print(f"trained {args.mode} policy on {env.name}: best return "
          f"{report.best_return:.2f}, status {status}")
    return 0


def cmd_respond(args) -> int:
    if args.magnitude is not None and not np.isfinite(args.magnitude):
        raise ValueError("--magnitude: disturbance magnitude must be finite")
    if args.horizon is not None and args.horizon < 1:
        raise ValueError("--horizon: response horizon must be at least 1")
    cfg = _load_config(args)
    pol = policy_mod.load_policy(args.policy)
    if getattr(args, "env", None) is None and pol.env_name in envs.ENV_NAMES:
        cfg.env_name = pol.env_name
    env = cfg.make_env()
    cost = cfg.make_cost(env)
    out = _out_dir(cfg)

    magnitude = args.magnitude if args.magnitude is not None else cfg.respond_magnitude
    horizon = args.horizon if args.horizon is not None else cfg.respond_horizon
    response, default_magnitude = RESPONSES[args.kind]
    if magnitude is None:
        magnitude = default_magnitude(env)
    traj, metrics = response(pol, env, magnitude, horizon, cost)

    label = args.label or Path(args.policy).stem
    stamp = cfg.stamp(env) + [f"kind={args.kind} magnitude={magnitude!r} "
                           f"units={metrics.units} band={metrics.band!r}"]
    traj.to_csv(out / f"{args.kind}_trajectory.csv", env, header_comments=stamp)
    analysis.write_metrics_table(out / f"{args.kind}_metrics.csv",
                                 [(env.name, label, [metrics])],
                                 header_comments=stamp)
    signal = traj.monitored(env)
    if env.monitored_is_angle:
        signal = np.rad2deg(signal)
    times = np.arange(signal.shape[0]) * env.params.dt
    line_chart(out / f"{args.kind}_response.svg",
               [(label, times, signal)],
               title=f"{env.name} {args.kind} response",
               xlabel="time (s)",
               ylabel=f"{env.state_labels[env.monitored_index]} ({metrics.units})",
               comments=stamp)
    print(f"{args.kind} response of {label} on {env.name}: "
          f"sse={metrics.steady_state_error:.3e} {metrics.units}, "
          f"overshoot={metrics.overshoot_label()}, "
          f"settling={metrics.settling_time} steps, "
          f"settled={metrics.settled}, diverged={metrics.diverged}")
    return 0


def _parse_factors(spec: str) -> list[float]:
    """'0.5:5.0:10' -> 10 log-spaced factors; '0.5,1,2' -> explicit list."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError("factor range must be lo:hi:count")
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise ValueError("factor count must be >= 1")
        return [float(v) for v in np.geomspace(lo, hi, count)]
    return [float(v) for v in spec.replace(",", " ").split()]


def cmd_robust(args) -> int:
    cfg = _load_config(args)
    pol = policy_mod.load_policy(args.policy)
    if getattr(args, "env", None) is None and pol.env_name in envs.ENV_NAMES:
        cfg.env_name = pol.env_name
    env = cfg.make_env()
    cost = cfg.make_cost(env)
    out = _out_dir(cfg)

    factors = _parse_factors(args.factors) if args.factors else cfg.robust_factors
    seeds = args.seeds if args.seeds is not None else cfg.robust_seeds
    curve = analysis.robustness_sweep(pol, env, args.param, factors, seeds,
                                      cost=cost, horizon=cfg.robust_horizon,
                                      jitter=cfg.robust_jitter)
    label = args.label or Path(args.policy).stem
    stamp = cfg.stamp(env) + [f"param={args.param} seeds={curve.n_seeds} "
                           f"horizon={cfg.robust_horizon} jitter={cfg.robust_jitter!r}"]
    curve.to_csv(out / f"robust_{args.param}.csv", header_comments=stamp)
    line_chart(out / f"robust_{args.param}.svg",
               [(label, curve.factors, curve.mean_reward)],
               title=f"{env.name}: reward vs {args.param} scale",
               xlabel=f"{args.param} scale factor",
               ylabel="mean cumulative reward",
               comments=stamp)
    print(f"robustness of {label} on {env.name} over {args.param}: "
          + ", ".join(f"{f:g}x -> {m:.2f}+-{s:.2f}"
                      for f, m, s in zip(curve.factors, curve.mean_reward,
                                         curve.std_reward)))
    return 0


def cmd_verify(args) -> int:
    pol = policy_mod.load_policy(args.policy)
    results = policy_mod.property_report(pol, seed=args.seed or 0)
    failed = [r for r in results if not r.passed]
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
    if failed:
        print(f"{len(failed)} of {len(results)} properties failed", file=sys.stderr)
        return 1
    print(f"all {len(results)} properties hold")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridctl",
        description="Hybrid linear/RBF controller lab: synthesis, training, "
                    "transient-response and robustness analysis.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="run config file (key = value lines)")
        p.add_argument("--env", choices=envs.ENV_NAMES, help="environment override")
        p.add_argument("--seed", type=int, help="global seed override")
        p.add_argument("--out", help="output directory override")

    p_syn = sub.add_parser("synthesize", help="LQR gain + linear policy files")
    common(p_syn)
    p_syn.set_defaults(func=cmd_synthesize)

    p_train = sub.add_parser("train", help="episodic policy search")
    common(p_train)
    p_train.add_argument("--mode", choices=("hybrid", "baseline"), default="hybrid")
    p_train.add_argument("--linear", help="linear policy file (hybrid mode)")
    p_train.set_defaults(func=cmd_train)

    p_resp = sub.add_parser("respond", help="impulse/step response report")
    common(p_resp)
    p_resp.add_argument("--policy", required=True, help="policy file to evaluate")
    p_resp.add_argument("--kind", choices=tuple(RESPONSES), required=True)
    p_resp.add_argument("--magnitude", type=float, help="disturbance force")
    p_resp.add_argument("--horizon", type=int, help="response length (steps)")
    p_resp.add_argument("--label", help="controller label for reports")
    p_resp.set_defaults(func=cmd_respond)

    p_rob = sub.add_parser("robust", help="parameter-mismatch reward sweep")
    common(p_rob)
    p_rob.add_argument("--policy", required=True)
    p_rob.add_argument("--param", choices=("mass", "g"), required=True)
    p_rob.add_argument("--factors", help="lo:hi:count (log-spaced) or comma list")
    p_rob.add_argument("--seeds", type=int, help="number of seeded rollouts")
    p_rob.add_argument("--label", help="controller label for reports")
    p_rob.set_defaults(func=cmd_robust)

    p_ver = sub.add_parser("verify", help="structural property checks on a policy file")
    p_ver.add_argument("--policy", required=True)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (HybridctlError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
