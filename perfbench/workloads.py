"""Set-up, one timed pass, and the correctness gates of a workload.

Everything goes through the package's public entry points: ``hybridctl.cli``
in-process for synthesize/train/robust/respond/verify, and the public API
for the fresh hybrid written during set-up and for the pi(a) = G(a) check.
Names are looked up on their modules at call time, so the tracer's wrappers
are picked up.

Outputs of a pass land under its own directory (``HYBRIDCTL_OUT``) with the
same config files, so repeated passes of one seed must write byte-identical
CSVs.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import time
from pathlib import Path

import numpy as np

import hybridctl
from hybridctl import cli, config, policy, trainer

OUT_ENV = "HYBRIDCTL_OUT"
PARAMS = ("mass", "g")
KINDS = ("impulse", "step")
SWEEP_DIRS = {"start": "sweep_hybrid", "linear": "sweep_linear"}
C7_RTOL = 0.05


class Tally:
    """Operations attempted and failed, by kind.

    A failed gate makes the run incorrect; a train that misses the target is
    a failed operation but not an incorrect output.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.kinds: dict[str, int] = {}
        self.messages: list[str] = []

    def record(self, kind: str, ok: bool, what: str, gate: bool = True) -> bool:
        self.attempted += 1
        self.kinds[kind] = self.kinds.get(kind, 0) + 1
        if not ok:
            self.failed += 1
            self.incorrect += gate
            self.messages.append(f"{kind}: {what}")
        return ok


def call(argv: list[str], tally: Tally) -> bool:
    """Run one CLI command in-process; a nonzero exit or a crash fails it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception as exc:  # one crashing command fails that operation only
            rc = f"{type(exc).__name__}: {exc}"
    return tally.record("cli", rc == 0,
                        f"hybridctl {' '.join(argv)} -> {rc} {err.getvalue().strip()}")


def config_path(setup_dir: Path, env: str) -> Path:
    return setup_dir / f"{env}.cfg"


def start_policy(setup_dir: Path, env: str, source: str) -> Path:
    name = "linear_policy.txt" if source == "linear" else "start_hybrid.txt"
    return setup_dir / env / name


def trained_policy(pass_dir: Path, seed: int) -> Path:
    return pass_dir / "out" / f"policy_hybrid_seed{seed}.txt"


def respond_dir(env: str, source: str) -> str:
    return f"respond_{env}_{source}"


def setup(env_keys: dict, seed: int, setup_dir: Path, tally: Tally) -> None:
    """Per environment in ``env_keys`` (extra config lines): the config file,
    ``synthesize``, and the fresh hybrid that ``train`` would start from
    (same seed, same RBF initialisation)."""
    setup_dir.mkdir(parents=True, exist_ok=True)
    os.environ[OUT_ENV] = str(setup_dir)
    for env_name, keys in env_keys.items():
        path = config_path(setup_dir, env_name)
        lines = [f"env.name = {env_name}", "out_dir = out", f"seed = {seed}",
                 *(f"{k} = {v}" for k, v in keys.items())]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        call(["synthesize", "--config", str(path), "--out", env_name], tally)
        cfg = config.load_run_config(str(path))
        env = cfg.make_env()
        linear = policy.load_policy(start_policy(setup_dir, env_name, "linear"))
        start = trainer.make_hybrid(env, linear.linear, n_centers=cfg.n_centers,
                                    lam=cfg.lam_vector(env.obs_dim),
                                    rng=np.random.default_rng(cfg.seed))
        policy.save_policy(start, start_policy(setup_dir, env_name, "start"),
                           comments=cfg.stamp(env))


def _respond_horizon(cfg) -> int:
    return cfg.respond_horizon or cfg.make_env().params.horizon


def count_steps(wl, setup_dir: Path) -> dict[str, int]:
    """Env transitions one pass advances per phase, from the configuration."""
    def load(env):
        return config.load_run_config(str(config_path(setup_dir, env)))

    t = load(wl.train_env).train
    sweep = load("pendulum")
    return {
        "train": t.population * t.episodes_per_candidate * t.horizon * t.iterations,
        "sweep": (len(sweep.robust_factors) * wl.sweep_seeds * sweep.robust_horizon
                  * len(SWEEP_DIRS) * len(PARAMS)),
        "respond": sum(len(KINDS) * _respond_horizon(load(env)) for env, _ in wl.respond),
    }


def run_pass(wl, seed: int, setup_dir: Path, pass_dir: Path, tally: Tally) -> dict:
    """One timed pass: train, four robust calls, the respond calls."""
    clock = time.perf_counter
    os.environ[OUT_ENV] = str(pass_dir)
    times = {}

    t0 = clock()
    call(["train", "--config", str(config_path(setup_dir, wl.train_env)),
          "--mode", "hybrid",
          "--linear", str(start_policy(setup_dir, wl.train_env, "linear"))], tally)
    times["train_s"] = clock() - t0

    t0 = clock()
    for source, out in SWEEP_DIRS.items():
        for param in PARAMS:
            call(["robust", "--config", str(config_path(setup_dir, "pendulum")),
                  "--policy", str(start_policy(setup_dir, "pendulum", source)),
                  "--param", param, "--seeds", str(wl.sweep_seeds), "--out", out], tally)
    times["sweep_s"] = clock() - t0

    t0 = clock()
    for env, source in wl.respond:
        pol = (trained_policy(pass_dir, seed) if source == "trained"
               else start_policy(setup_dir, env, source))
        for kind in KINDS:
            call(["respond", "--config", str(config_path(setup_dir, env)),
                  "--policy", str(pol), "--kind", kind,
                  "--out", respond_dir(env, source)], tally)
    times["respond_s"] = clock() - t0
    return times


# -- correctness gates (run after the timed passes) ---------------------------

def _csv_rows(path: Path) -> list[list[float]]:
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines()
             if ln and not ln.startswith("#")]
    return [[float(v) for v in ln.split(",")] for ln in lines[1:]]


def _pi_at_a_is_linear(path: Path) -> bool:
    p = policy.load_policy(path)
    a = p.relevance.a
    return bool(np.array_equal(hybridctl.hybrid_action(a, p), p.linear.action(a)))


def _response_complete(path: Path, horizon: int) -> bool:
    rows = _csv_rows(path)
    return len(rows) == horizon and all(math.isfinite(v) for row in rows for v in row)


def _c7_pairs(pass_dir: Path, param: str) -> list[tuple[float, bool]]:
    """(factor, hybrid within 5% of linear) for one swept parameter."""
    hyb = _csv_rows(pass_dir / SWEEP_DIRS["start"] / f"robust_{param}.csv")
    lin = _csv_rows(pass_dir / SWEEP_DIRS["linear"] / f"robust_{param}.csv")
    if len(hyb) != len(lin) or not lin:
        raise ValueError("robust CSVs disagree on their factors")
    return [(h[0], abs(h[1] - l[1]) <= C7_RTOL * abs(l[1])) for h, l in zip(hyb, lin)]


def _guarded(tally: Tally, kind: str, check, what: str, gate: bool = True) -> None:
    try:
        ok = check()
    except (OSError, ValueError) as exc:  # a missing or garbled output fails the gate
        ok, what = False, f"{what}: {type(exc).__name__}: {exc}"
    tally.record(kind, ok, what, gate)


def check_outputs(wl, seed: int, setup_dir: Path, pass_dirs: list[Path],
                  tally: Tally) -> None:
    """Gates on what the passes wrote; each failure is one failed operation."""
    horizons = {env: _respond_horizon(config.load_run_config(str(config_path(setup_dir, env))))
                for env, _ in wl.respond}
    for pass_dir in pass_dirs:
        if wl.expect_target:
            status = pass_dir / "out" / "train_status.txt"
            _guarded(tally, "target",
                     lambda: "status=target_reached" in status.read_text(encoding="utf-8"),
                     f"{status} does not say target_reached", gate=False)
        trained = trained_policy(pass_dir, seed)
        for path in sorted((pass_dir / "out").glob("*.txt")):
            if path.name != "train_status.txt":
                _guarded(tally, "pi_at_a", lambda: _pi_at_a_is_linear(path),
                         f"pi(a) != G(a) in {path}")
        call(["verify", "--policy", str(trained)], tally)
        for param in PARAMS:
            try:
                pairs = _c7_pairs(pass_dir, param)
            except (OSError, ValueError) as exc:
                tally.record("c7", False, f"{pass_dir} {param}: {exc}")
                continue
            for factor, ok in pairs:
                tally.record("c7", ok, f"{pass_dir} {param} x{factor}: gap above 5%")
        for env, source in wl.respond:
            for kind in KINDS:
                traj = pass_dir / respond_dir(env, source) / f"{kind}_trajectory.csv"
                _guarded(tally, "response", lambda: _response_complete(traj, horizons[env]),
                         f"{traj} diverged or is incomplete")
    reproducible = ["out/train_report.csv",
                    *(f"{d}/robust_{param}.csv" for d in SWEEP_DIRS.values() for param in PARAMS)]
    first = pass_dirs[0]
    for other in pass_dirs[1:]:
        for rel in reproducible:
            _guarded(tally, "bytes",
                     lambda: (first / rel).read_bytes() == (other / rel).read_bytes(),
                     f"{other / rel} differs from {first / rel}")
