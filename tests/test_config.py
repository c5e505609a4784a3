"""The config hash is stamped into every artifact, so its value is pinned.

A change to the canonical text (key names, number formatting, which unset
keys are left out, ordering) silently breaks the link between old results
and the settings that made them; these tests catch that.
"""

import re
from pathlib import Path

import pytest

from hybridctl.config import KEYS, build_run_config

EVERY_KEY = {
    "env.name": "cartpole", "env.m": "0.2", "env.horizon": "500",
    "cost.a": "0 0 1 0 0", "cost.K": "0.1, 0, 0.5, 0.5, 0", "cost.k": "0.001",
    "lqr.Q": "1 2 3 4", "lqr.R": "0.5", "lqr.b_scale": "2",
    "policy.n_centers": "60", "policy.lambda": "1 2 3 4 5",
    "train.population": "16", "train.elite_frac": "0.2", "train.init_std": "2.5",
    "train.std_decay": "0.9", "train.iterations": "5", "train.episodes": "2",
    "train.horizon": "100", "train.seed": "11", "train.train_lambda": "false",
    "respond.magnitude": "2.5", "respond.horizon": "300",
    "robust.factors": "0.5 1 2", "robust.seeds": "4", "robust.horizon": "150",
    "robust.jitter": "0.02", "out_dir": "runs/cp", "seed": "7",
}

EVERY_KEY_ITEMS = [
    ("cost.K", "0.1 0.0 0.5 0.5 0.0"),
    ("cost.a", "0.0 0.0 1.0 0.0 0.0"),
    ("cost.k", "0.001"),
    ("env.horizon", "500.0"),
    ("env.m", "0.2"),
    ("env.name", "cartpole"),
    ("lqr.Q", "1.0 2.0 3.0 4.0"),
    ("lqr.R", "0.5"),
    ("lqr.b_scale", "2.0"),
    ("out_dir", "runs/cp"),
    ("policy.lambda", "1.0 2.0 3.0 4.0 5.0"),
    ("policy.n_centers", "60"),
    ("respond.horizon", "300"),
    ("respond.magnitude", "2.5"),
    ("robust.factors", "0.5 1.0 2.0"),
    ("robust.horizon", "150"),
    ("robust.jitter", "0.02"),
    ("robust.seeds", "4"),
    ("seed", "7"),
    ("train.elite_frac", "0.2"),
    ("train.episodes", "2"),
    ("train.horizon", "100"),
    ("train.init_std", "2.5"),
    ("train.iterations", "5"),
    ("train.population", "16"),
    ("train.seed", "11"),
    ("train.std_decay", "0.9"),
    ("train.train_lambda", "false"),
]


@pytest.mark.parametrize("env_name, expected", [
    ("pendulum", "8127cf4fac4ecb14"),
    ("cartpole", "7a1c09865a30cc56"),
    ("mountaincar", "e46ddafaeed8a0f5"),
])
def test_default_hash_pinned(env_name, expected):
    assert build_run_config({"env.name": env_name}).config_hash() == expected


def test_every_key_canonical_text_and_hash_pinned():
    assert len(EVERY_KEY) == 28
    cfg = build_run_config(EVERY_KEY)
    assert cfg.canonical_items() == EVERY_KEY_ITEMS
    assert cfg.config_hash() == "d9e6073e1c3adb09"


def test_single_lambda_is_scalar():
    cfg = build_run_config({"policy.lambda": "0.5"})
    assert cfg.lam_init == 0.5
    assert ("policy.lambda", "0.5") in cfg.canonical_items()
    assert cfg.config_hash() == "a2ed21959b4d1d5c"


def test_unset_optional_keys_left_out():
    keys = {k for k, _ in build_run_config({}).canonical_items()}
    assert "lqr.b_scale" in keys
    for key in ("cost.a", "cost.K", "cost.k", "lqr.Q", "lqr.R",
                "respond.magnitude", "respond.horizon"):
        assert key not in keys


def test_readme_lists_every_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Config format", 1)[1].split("```")[1]
    listed = set(re.findall(r"(?<![\w.])(?:[a-z]+\.[A-Za-z_]+|out_dir|seed)(?![\w.])",
                            block))
    assert listed == set(KEYS)
