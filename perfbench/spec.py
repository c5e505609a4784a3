"""What the hybridctl benchmark runs and reports; plain data, no numpy.

Every workload is the user pipeline synthesize -> train -> robust ->
respond, sized so that one phase dominates:

* ``train-pendulum``: the default pendulum ``train`` (batched path);
* ``train-cartpole-wide``: cartpole ``train`` with 200 RBF centers (batched
  path, RBF-bound, working set larger than L2);
* ``evaluate-pendulum``: the full c7 robustness protocol plus impulse and
  step responses on all three systems (scalar ``simulate`` path).

The other phases run at probe size so that every end-to-end metric is
measured on every workload.  The robustness sweep is always the c7 protocol
on the pendulum (a fresh hybrid and the synthesized linear policy, mass and
g, factors 0.5..5), because that is where the paper's 5% criterion holds.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_s": "s",
    "sweep_s": "s",
    "respond_s": "s",
    "sim_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Workload:
    name: str
    # extra config lines per environment; set-up synthesizes each of them
    config: dict
    train_env: str
    # only the full default pendulum budget is expected to swing up and hold
    expect_target: bool
    # seeds per factor in the c7 sweep (the protocol uses 10)
    sweep_seeds: int
    # (environment, "trained" | "start"): impulse and step response on the
    # policy trained in this pass, or on the fresh hybrid written by set-up
    respond: tuple


WORKLOADS = {
    wl.name: wl for wl in (
        Workload(name="train-pendulum", config={"pendulum": {}},
                 train_env="pendulum", expect_target=True, sweep_seeds=2,
                 respond=(("pendulum", "trained"), ("pendulum", "start"))),
        Workload(name="train-cartpole-wide",
                 config={"cartpole": {"policy.n_centers": "200",
                                      "train.iterations": "10"},
                         "pendulum": {}},
                 train_env="cartpole", expect_target=False, sweep_seeds=2,
                 respond=(("cartpole", "trained"), ("cartpole", "start"))),
        Workload(name="evaluate-pendulum",
                 config={"pendulum": {"train.iterations": "3"},
                         "cartpole": {}, "mountaincar": {}},
                 train_env="pendulum", expect_target=False, sweep_seeds=10,
                 respond=(("pendulum", "start"), ("cartpole", "start"),
                          ("mountaincar", "start"))),
    )
}

def pin_single_thread() -> None:
    """One BLAS thread, so a workload is one busy thread; call before numpy loads."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def use_checkout_source() -> None:
    """Import hybridctl from this checkout's src/, or exit 2 if it has none."""
    if not (SRC / "hybridctl" / "__init__.py").is_file():
        print(f"perfbench: no hybridctl sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
