"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that every span is recorded, that the gates run and catch a broken output,
and that the entry point refuses a directory without the package sources.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spec  # noqa: E402

spec.pin_single_thread()
spec.use_checkout_source()

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((spec.ROOT / "BENCHMARK.json").read_text())
GATES = {"cli", "pi_at_a", "c7", "response", "bytes"}
TINY_KEYS = {"train.population": "4", "train.iterations": "2",
             "train.episodes": "1", "train.horizon": "20",
             "env.horizon": "30", "robust.horizon": "20"}


def tiny(wl):
    """The same workload at smoke-test size."""
    config = {env: {**keys, **TINY_KEYS} for env, keys in wl.config.items()}
    return dataclasses.replace(wl, config=config, expect_target=False, sweep_seeds=1)


@pytest.mark.parametrize("name", list(spec.WORKLOADS))
def test_end_to_end_metrics(name, tmp_path):
    wl = tiny(spec.WORKLOADS[name])
    tally, metrics, info = run.timed_run(wl, seed=0, seconds=0, work=tmp_path)
    assert tally.incorrect == 0 and tally.failed == 0, tally.messages
    assert GATES <= set(tally.kinds)
    assert tally.kinds["response"] == run.MIN_PASSES * len(wl.respond) * 2
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: run.unit_of(k) for k in metrics} == expected
    assert all(v > 0 for v in metrics.values()), metrics
    assert len(info["passes"]) == run.MIN_PASSES
    assert len(info["setup_samples_s"]) == run.SETUP_REPEATS
    assert info["steps_per_pass"]["train"] == 4 * 1 * 20 * 2


@pytest.mark.parametrize("name", list(spec.WORKLOADS))
def test_per_layer_metrics(name, tmp_path):
    tally, metrics, info = run.traced_run(tiny(spec.WORKLOADS[name]), seed=0,
                                          work=tmp_path)
    assert tally.incorrect == 0, tally.messages
    assert info["absent"] == []
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: run.unit_of(k) for k in metrics} == expected
    for span in tracing.SPAN_NAMES:
        assert metrics[f"{span}.calls"] > 0, span
        assert metrics[f"{span}.self_s"] >= 0.0, span
    assert metrics["trainer.candidate_steps"] == 4 * 1 * 20 * 2
    assert metrics["trace.overhead_s"] != 0.0


def test_tracer_restores_and_splits_self_time():
    import hybridctl
    from hybridctl import analysis, envs, trainer

    originals = (envs.simulate, trainer.simulate, analysis.simulate, hybridctl.reward)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert trainer.simulate is envs.simulate is analysis.simulate
        assert trainer.simulate is not originals[0]
        env = hybridctl.make_env("pendulum")
        envs.simulate(env, lambda obs: 0.0, env.init_state(), 5,
                      cost=env.default_cost())
    finally:
        tracer.uninstall()
    assert (envs.simulate, trainer.simulate, analysis.simulate, hybridctl.reward) == originals
    summary = tracer.summary()
    assert summary["envs.simulate.calls"] == 1
    assert summary["envs.step.calls"] == 5
    assert summary["envs.dynamics.calls"] == 20
    assert summary["envs.step.rows_per_call"] == 1.0
    total = max(tracer.span_end) - min(tracer.span_start)
    assert sum(summary[f"{s}.self_s"] for s in tracing.SPAN_NAMES) == pytest.approx(total)


def test_gates_catch_a_changed_output(tmp_path):
    wl = tiny(spec.WORKLOADS["evaluate-pendulum"])
    tally = workloads.Tally()
    workloads.setup(wl.config, 0, tmp_path / "setup", tally)
    for i in range(2):
        workloads.run_pass(wl, 0, tmp_path / "setup", tmp_path / f"pass{i}", tally)
    robust = tmp_path / "pass1" / "sweep_hybrid" / "robust_g.csv"
    robust.write_text(robust.read_text().replace(",-", ",-1"))
    workloads.check_outputs(wl, 0, tmp_path / "setup",
                            [tmp_path / "pass0", tmp_path / "pass1"], tally)
    failed = {m.split(":")[0] for m in tally.messages}
    assert failed == {"c7", "bytes"}, tally.messages
    assert tally.incorrect == tally.failed > 0


def test_refuses_directory_without_sources(tmp_path):
    shutil.copy(spec.ROOT / "BENCHMARK.json", tmp_path)
    for rel in BENCHMARK["paths"]:
        shutil.copytree(spec.ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(BENCHMARK["command"] + ["--workload", "train-pendulum",
                                                  "--seed", "1", "--seconds", "1",
                                                  "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
