"""Outside-in spans around the public names of each hybridctl module.

The tracer wraps functions and methods from the benchmark's side; the
package itself is not edited.  A module-level function is replaced in every
``hybridctl`` module that holds it, so imported aliases (``trainer.reward``,
``trainer.simulate``, ``analysis.simulate``, ``cli.line_chart``, the names
re-exported by ``hybridctl/__init__``) are traced too.  A method is replaced
on its class and on every subclass that overrides it.

Spans are kept in memory as (name, start, end, parent) records.  A span's
self time is its duration minus the durations of its direct children; calls
are synchronous, so children never overlap and lie inside their parent.
A target that no longer exists (renamed or removed by a refactor) is listed
as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

# (span name, "module:attribute" or "module:Class.method")
TARGETS = (
    ("cli.main", "hybridctl.cli:main"),
    ("trainer.train", "hybridctl.trainer:train"),
    ("analysis.robustness_sweep", "hybridctl.analysis:robustness_sweep"),
    ("envs.simulate", "hybridctl.envs:simulate"),
    ("envs.step", "hybridctl.envs:Environment.step"),
    ("envs.dynamics", "hybridctl.envs:Environment.dynamics"),
    ("envs.observe", "hybridctl.envs:Environment.observe"),
    ("envs.reward", "hybridctl.envs:reward"),
    ("envs.linearize_numerical", "hybridctl.envs:linearize_numerical"),
    ("policy.hybrid_action", "hybridctl.policy:hybrid_action"),
    ("policy.rbf_features", "hybridctl.policy:RbfPolicy.features"),
    ("policy.relevance", "hybridctl.policy:relevance"),
    ("policy.save_policy", "hybridctl.policy:save_policy"),
    ("policy.load_policy", "hybridctl.policy:load_policy"),
    ("lqr.solve_care", "hybridctl.lqr:solve_care"),
    ("svgplot.line_chart", "hybridctl.svgplot:line_chart"),
)
SPAN_NAMES = tuple(name for name, _ in TARGETS)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _rows(x) -> int:
    shape = getattr(x, "shape", ())
    if not shape:
        return 1
    rows = 1
    for n in shape[:-1]:
        rows *= n
    return rows


def _train_candidate_steps(args, kwargs) -> int:
    config = kwargs.get("config", args[1] if len(args) > 1 else None)
    try:
        return (config.population * config.episodes_per_candidate
                * config.horizon * config.iterations)
    except AttributeError:
        return 0


class Tracer:
    """Install with ``install()``, run the workload, then ``uninstall()``."""

    def __init__(self):
        self.names: list[str] = list(SPAN_NAMES)
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.counters = {"envs.step.rows": 0, "trainer.candidate_steps": 0}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------------
    def _wrap(self, name: str, fn):
        name_id = self._ids[name]
        clock = time.perf_counter
        stack = self._stack
        names, starts = self.span_name, self.span_start
        ends, parents = self.span_end, self.span_parent
        counters = self.counters

        if name == "envs.step":
            def count(args, kwargs):
                x = kwargs.get("x", args[1] if len(args) > 1 else None)
                counters["envs.step.rows"] += _rows(x)
        elif name == "trainer.train":
            def count(args, kwargs):
                counters["trainer.candidate_steps"] += _train_candidate_steps(args, kwargs)
        else:
            count = None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                count(args, kwargs)
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts[idx] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "hybridctl" or key.startswith("hybridctl.")]
        for name, spec in TARGETS:
            module_name, _, path = spec.partition(":")
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(name)
                continue
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(module, cls_name, None)
                owners = [] if cls is None else [
                    c for c in (cls, *_subclasses(cls)) if meth in c.__dict__]
                if not owners:
                    self.absent.append(name)
                    continue
                for owner in owners:
                    self._set(owner, meth, self._wrap(name, owner.__dict__[meth]))
                continue
            original = getattr(module, path, None)
            if not callable(original):
                self.absent.append(name)
                continue
            traced = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- reduction -------------------------------------------------------------
    def summary(self) -> dict[str, float]:
        """Per span name: total self seconds and call count; plus counters."""
        n_spans = len(self.span_name)
        child = [0.0] * n_spans
        for i in range(n_spans):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        self_s = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        for i in range(n_spans):
            k = self.span_name[i]
            self_s[k] += self.span_end[i] - self.span_start[i] - child[i]
            calls[k] += 1
        out: dict[str, float] = {}
        for k, name in enumerate(self.names):
            out[f"{name}.self_s"] = self_s[k]
            out[f"{name}.calls"] = calls[k]
        step_calls = calls[self._ids["envs.step"]]
        out["envs.step.rows_per_call"] = (
            self.counters["envs.step.rows"] / step_calls if step_calls else 0.0)
        out["trainer.candidate_steps"] = self.counters["trainer.candidate_steps"]
        return out
