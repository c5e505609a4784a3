"""Run configuration: flat key = value files with dotted sections.

One file describes one experiment; CLI flags override file values.  The
effective configuration (defaults included) is canonicalized and hashed, and
that hash plus the global seed are stamped into every output artifact so a
results file can always be traced back to the exact settings that made it.

Example::

    env.name = pendulum
    env.g = 10.0
    lqr.Q = 450 20
    lqr.R = 0.1
    train.iterations = 60
    out_dir = runs/pendulum
    seed = 7
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

import numpy as np

from .analysis import check_sweep_setting
from .envs import CostSpec, EnvParams, Environment, make_env, rod_inertia
from .lqr import CostWeights
from .trainer import TrainConfig

_ENV_FIELDS = ("m", "M", "l", "I", "g", "dt", "u_max", "horizon")
# load_run_config makes the trainer seed follow the global seed unless set
_TRAIN_SEED = "train.seed"

# LQR design weights per environment.  The pendulum design is deliberately
# stiff: the sweep protocol scales mass and gravity up to 5x, and a softer
# gain (e.g. Q = I, R = 1) loses closed-loop stability above roughly 2.5x.
# These weights keep it Hurwitz across the whole sweep range while the fast
# closed-loop pole stays well inside the RK4 stability disc at dt = 0.05.
DEFAULT_LQR_WEIGHTS = {
    "pendulum": ([450.0, 20.0], 0.1),
    "cartpole": ([1.0, 1.0, 1.0, 1.0], 1.0),
    "mountaincar": ([1.0, 1.0], 1.0),
}


class ConfigError(ValueError):
    """A config file or override could not be interpreted."""


@dataclass
class RunConfig:
    env_name: str = "pendulum"
    env_overrides: dict = field(default_factory=dict)
    cost_a: list | None = None
    cost_K: list | None = None
    cost_k: float | None = None
    lqr_Q: list | None = None
    lqr_R: float | None = None
    lqr_b_scale: float = 1.0
    n_centers: int = 50
    lam_init: list | float = 1.0
    train: TrainConfig = field(default_factory=TrainConfig)
    respond_magnitude: float | None = None
    respond_horizon: int | None = None
    robust_factors: list = field(default_factory=lambda: [0.5, 1.0, 2.0, 3.0, 5.0])
    robust_seeds: int = 10
    robust_horizon: int = 200
    robust_jitter: float = 0.01
    out_dir: str = "runs"
    seed: int = 0

    # -- builders -----------------------------------------------------------
    def make_env(self) -> Environment:
        base = make_env(self.env_name).params
        values = {f: getattr(base, f) for f in _ENV_FIELDS}
        values.update(self.env_overrides)
        # the inertia field tracks the uniform-rod assumption unless pinned
        if ("m" in self.env_overrides or "l" in self.env_overrides) and \
                "I" not in self.env_overrides:
            values["I"] = rod_inertia(values["m"], values["l"])
        return make_env(self.env_name, EnvParams(**values))

    def make_cost(self, env: Environment) -> CostSpec:
        base = env.default_cost()
        return CostSpec(
            a=self.cost_a if self.cost_a is not None else base.a,
            K=self.cost_K if self.cost_K is not None else base.K,
            k=self.cost_k if self.cost_k is not None else base.k,
        )

    def make_weights(self, env: Environment) -> CostWeights:
        q_default, r_default = DEFAULT_LQR_WEIGHTS[self.env_name]
        q = self.lqr_Q if self.lqr_Q is not None else q_default
        r = self.lqr_R if self.lqr_R is not None else r_default
        q = np.asarray(q, dtype=float)
        if q.size != env.state_dim:
            raise ConfigError(
                f"lqr.Q needs {env.state_dim} diagonal entries for {env.name}")
        return CostWeights(Q=np.diag(q), R=np.array([[float(r)]]))

    def lam_vector(self, obs_dim: int) -> np.ndarray:
        if np.isscalar(self.lam_init):
            return np.full(obs_dim, float(self.lam_init))
        lam = np.asarray(self.lam_init, dtype=float)
        if lam.size != obs_dim:
            raise ConfigError(f"policy.lambda needs {obs_dim} entries")
        return lam

    # -- identity ------------------------------------------------------------
    def canonical_items(self) -> list[tuple[str, str]]:
        sections = {"run": vars(self), "train": vars(self.train),
                    "env": self.env_overrides}
        items = []
        for spec in KEYS.values():
            value = sections[spec.section].get(spec.field)
            if value is None and spec.optional:
                continue
            items.append((spec.key, spec.fmt(value)))
        return sorted(items)

    def config_hash(self) -> str:
        text = "\n".join(f"{k} = {v}" for k, v in self.canonical_items())
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]

    def stamp(self, env: Environment | None = None) -> list[str]:
        """Comment lines embedded in every output artifact.

        The physical parameters (including the assumed dt and horizon) are
        echoed so a results file is interpretable without the config file.
        """
        lines = [f"config_hash={self.config_hash()} seed={self.seed}"]
        if env is not None:
            p = env.params
            lines.append(
                f"env={env.name} m={p.m!r} M={p.M!r} l={p.l!r} I={p.I!r} "
                f"g={p.g!r} dt={p.dt!r} u_max={p.u_max!r} horizon={p.horizon}")
        return lines


def _parse_bool(value: str) -> bool:
    low = value.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


def _parse_floats(value: str) -> list[float]:
    return [float(v) for v in value.replace(",", " ").split()]


def _parse_lambda(value: str) -> list[float] | float:
    vals = _parse_floats(value)
    return vals[0] if len(vals) == 1 else vals


def _float_text(value) -> str:
    """repr of each float, space separated; a scalar gives one number."""
    return " ".join(repr(float(v)) for v in np.atleast_1d(value))


def _bool_text(value: bool) -> str:
    return str(value).lower()


class KeySpec(NamedTuple):
    """One config key: where its value lives and how it reads and prints.

    ``section`` names the owner of ``field``: "run" is the RunConfig itself,
    "train" its TrainConfig and "env" the ``env_overrides`` dict.  An
    ``optional`` key is left out of the canonical text while it is unset
    (None), so adding such a key never moves the hash of older configs.
    """

    key: str
    section: str
    field: str
    parse: Callable[[str], Any]
    fmt: Callable[[Any], str]
    optional: bool = False


# The one key table: parsing, the unknown-key check, the canonical text and
# the config hash are all driven by it.  Changing a formatter or an
# ``optional`` flag moves the hash stamped into every artifact.
KEYS: dict[str, KeySpec] = {spec.key: spec for spec in (
    KeySpec("env.name", "run", "env_name", str, str),
    # env.horizon parses as an int but is hashed as a float ("500.0")
    *(KeySpec(f"env.{f}", "env", f, int if f == "horizon" else float,
              _float_text, optional=True) for f in _ENV_FIELDS),
    KeySpec("cost.a", "run", "cost_a", _parse_floats, _float_text, optional=True),
    KeySpec("cost.K", "run", "cost_K", _parse_floats, _float_text, optional=True),
    KeySpec("cost.k", "run", "cost_k", float, _float_text, optional=True),
    KeySpec("lqr.Q", "run", "lqr_Q", _parse_floats, _float_text, optional=True),
    KeySpec("lqr.R", "run", "lqr_R", float, _float_text, optional=True),
    KeySpec("lqr.b_scale", "run", "lqr_b_scale", float, _float_text),
    KeySpec("policy.n_centers", "run", "n_centers", int, str),
    KeySpec("policy.lambda", "run", "lam_init", _parse_lambda, _float_text),
    KeySpec("train.population", "train", "population", int, str),
    KeySpec("train.elite_frac", "train", "elite_frac", float, _float_text),
    KeySpec("train.init_std", "train", "init_std", float, _float_text),
    KeySpec("train.std_decay", "train", "std_decay", float, _float_text),
    KeySpec("train.iterations", "train", "iterations", int, str),
    KeySpec("train.episodes", "train", "episodes_per_candidate", int, str),
    KeySpec("train.horizon", "train", "horizon", int, str),
    KeySpec(_TRAIN_SEED, "train", "seed", int, str),
    KeySpec("train.train_lambda", "train", "train_lambda", _parse_bool, _bool_text),
    KeySpec("respond.magnitude", "run", "respond_magnitude", float, _float_text,
            optional=True),
    KeySpec("respond.horizon", "run", "respond_horizon", int, str, optional=True),
    KeySpec("robust.factors", "run", "robust_factors", _parse_floats, _float_text),
    KeySpec("robust.seeds", "run", "robust_seeds", int, str),
    KeySpec("robust.horizon", "run", "robust_horizon", int, str),
    KeySpec("robust.jitter", "run", "robust_jitter", float, _float_text),
    KeySpec("out_dir", "run", "out_dir", str, str),
    KeySpec("seed", "run", "seed", int, str),
)}


# How range errors name the keys that must be finite.  b_scale may be any
# finite number: 0 removes B, which synthesize reports as unstabilizable.
_FINITE_LABELS = {"lqr_Q": "state weights Q", "lqr_R": "control weight R",
                  "lqr_b_scale": "input scale b_scale",
                  "lam_init": "relevance weights lambda",
                  "respond_magnitude": "disturbance magnitude"}


def _check_run_field(name: str, value) -> None:
    """Raise ValueError unless ``value`` is valid for RunConfig field ``name``."""
    if name.startswith("robust_"):
        check_sweep_setting(name[len("robust_"):], value)
    if name.startswith("cost_"):
        CostSpec.check_field(name[len("cost_"):], value)
    if name in _FINITE_LABELS and not np.all(np.isfinite(value)):
        raise ValueError(f"{_FINITE_LABELS[name]} must be finite")
    if name == "lqr_Q" and np.any(np.asarray(value) < 0):
        raise ValueError("state weights Q must be nonnegative")
    if name == "lqr_R" and not value > 0:
        raise ValueError("control weight R must be positive")
    if name == "n_centers" and value < 1:
        raise ValueError("number of RBF centers must be at least 1")
    if name == "lam_init" and not np.all(np.asarray(value) > 0.0):
        raise ValueError("all relevance weights lambda must be positive")
    if name == "respond_horizon" and value < 1:
        raise ValueError("response horizon must be at least 1")


# Range checks run per key right after parsing, so that a value out of range
# is reported with its key and file line like a value that does not parse.
_FIELD_CHECKS = {"run": _check_run_field, "train": TrainConfig.check_field,
                 "env": EnvParams.check_field}


def _numbered_pairs(text: str) -> list[tuple[int, str, str]]:
    """(line number, key, value) per key = value line; '#' starts a comment."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        out.append((lineno, key.strip(), value.strip()))
    return out


def parse_config_text(text: str) -> dict[str, str]:
    """Read key = value lines; '#' starts a comment, blank lines ignored."""
    return {key: value for _, key, value in _numbered_pairs(text)}


def build_run_config(pairs: dict[str, str],
                     lines: dict[str, int] | None = None) -> RunConfig:
    """Interpret key = value pairs; ``lines`` maps a key to the file line it
    came from, so that an error about that key names the line."""
    values: dict[str, dict] = {"run": {}, "train": {}, "env": {}}
    for key, value in pairs.items():
        where = f"line {lines[key]}: " if lines and key in lines else ""
        spec = KEYS.get(key)
        if spec is None:
            if key.startswith("env."):
                raise ConfigError(f"{where}unknown environment field {key[4:]!r}")
            raise ConfigError(f"{where}unknown config key {key!r}")
        try:
            parsed = spec.parse(value)
            if spec.section in _FIELD_CHECKS:
                _FIELD_CHECKS[spec.section](spec.field, parsed)
        except ValueError as exc:
            raise ConfigError(f"{where}{key}: {exc}") from None
        values[spec.section][spec.field] = parsed
    return RunConfig(**values["run"], env_overrides=values["env"],
                     train=TrainConfig(**values["train"]))


def load_run_config(path: str | None, overrides: dict[str, str] | None = None) -> RunConfig:
    numbered: list[tuple[int, str, str]] = []
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            numbered = _numbered_pairs(fh.read())
    pairs = {key: value for _, key, value in numbered}
    lines = {key: lineno for lineno, key, _ in numbered}
    for key, value in (overrides or {}).items():
        pairs[key] = value
        lines.pop(key, None)
    cfg = build_run_config(pairs, lines)
    # the trainer seed follows the global seed unless the file pinned it
    if _TRAIN_SEED not in pairs:
        cfg.train.seed = cfg.seed
    return cfg
