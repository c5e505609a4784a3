"""Hybrid controller: relevance-weighted blend of a linear and an RBF policy.

The controller evaluated on an observation ``x`` is

    pi(x) = r(x) * G(x) + (1 - r(x)) * H(x)

where ``G(x) = W x + b`` is the linear controller, ``H`` is a squashed
radial-basis-function network, and the relevance weight is

    r(x) = 1 / (1 + d(x))^2,      d(x) = sum_i lam_i * (x_i - a_i)^2.

``a`` is the operating point in observation space and ``lam_i > 0`` are
per-dimension relevance precisions (inverse squared radii of the trust
ellipsoid of the linear controller).  Two structural facts follow directly
from r(a) = 1 and grad r(a) = 0 and are relied on throughout:

* ``pi(a) == G(a)`` holds bit-exactly, not just approximately, because
  d(a) = 0.0 makes the blend weights exactly 1.0 and 0.0;
* the state Jacobian of ``pi`` at ``a`` equals ``W`` exactly, so any local
  stability certificate for the linear controller transfers to the hybrid.

Driving every lam_i to +inf sends r -> 0 pointwise away from ``a``, so the
hybrid degenerates to the bare RBF network and keeps its universal
approximation capacity; driving lam_i -> 0 recovers the linear controller
everywhere.  Both limits are used by the verification suite.

All evaluation functions broadcast over leading axes: ``x`` may be a single
observation ``(D,)`` or a batch ``(..., D)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PolicyParseError, PolicyVersionError

POLICY_FORMAT_VERSION = 1
_MAGIC = "hybrid-policy-v"
_SQRT_TINY = float(np.sqrt(np.finfo(float).tiny))


def _rowwise_matmul(x: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """``x @ mat`` with each row of ``x`` reduced as if it stood alone.

    A 2-d product goes through BLAS gemv/gemm, whose summation order depends
    on the batch size; stacking the rows as (..., 1, K) makes numpy take the
    one-row path for each of them.  A row's result is therefore bit-identical
    whether it is evaluated alone or inside any batch.
    """
    if x.ndim == 1:  # already the one-row product; skip the stacking cost
        return x @ mat
    return (x[..., None, :] @ mat)[..., 0, :]


def _as_float_array(value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must have finite entries")
    return arr


@dataclass
class LinearPolicy:
    """Affine controller G(x) = W x + b acting on observations."""

    W: np.ndarray  # (F, D)
    b: np.ndarray  # (F,)

    def __post_init__(self):
        self.W = _as_float_array(self.W, "W")
        if self.W.ndim != 2:
            raise ValueError("W must be a 2-d matrix (F x D)")
        self.b = _as_float_array(self.b, "b").reshape(-1)
        if self.b.shape[0] != self.W.shape[0]:
            raise ValueError("b length must equal the number of W rows")

    @property
    def control_dim(self) -> int:
        return self.W.shape[0]

    @property
    def obs_dim(self) -> int:
        return self.W.shape[1]

    def action(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return _rowwise_matmul(x, self.W.T) + self.b

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(self.W, x.shape[:-1] + self.W.shape).copy()


@dataclass
class RbfPolicy:
    """Squashed Gaussian-RBF network H(x).

    The raw network output is sum_n weights[n] * phi_n(x) with
    phi_n(x) = exp(-0.5 * sum_d (scales[d] * (x_d - centers[n, d]))^2);
    scales are inverse length-scales shared across centers.  The raw output
    passes through the smooth odd saturation u_max * tanh(. / u_max), so the
    policy output always lies strictly inside [-u_max, u_max] and stays
    differentiable in both inputs and parameters.
    """

    centers: np.ndarray  # (N, D)
    scales: np.ndarray  # (D,) inverse length-scales, > 0
    weights: np.ndarray  # (N, F)
    u_max: float

    def __post_init__(self):
        self.centers = _as_float_array(self.centers, "centers")
        if self.centers.ndim != 2 or self.centers.shape[0] < 1:
            raise ValueError("centers must be a non-empty N x D matrix")
        self.scales = _as_float_array(self.scales, "scales").reshape(-1)
        if self.scales.shape[0] != self.centers.shape[1]:
            raise ValueError("scales length must equal the observation dimension")
        if np.any(self.scales <= 0):
            raise ValueError("inverse length-scales must be positive")
        self.weights = _as_float_array(self.weights, "weights")
        if self.weights.ndim != 2 or self.weights.shape[0] != self.centers.shape[0]:
            raise ValueError("weights must be N x F with one row per center")
        self.u_max = float(self.u_max)
        if self.u_max <= 0:
            raise ValueError("u_max must be positive")

    @property
    def obs_dim(self) -> int:
        return self.centers.shape[1]

    @property
    def control_dim(self) -> int:
        return self.weights.shape[1]

    def features(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        diff = (x[..., None, :] - self.centers) * self.scales
        return np.exp(-0.5 * np.sum(diff * diff, axis=-1))

    def action(self, x: np.ndarray) -> np.ndarray:
        raw = _rowwise_matmul(self.features(x), self.weights)
        return self.u_max * np.tanh(raw / self.u_max)

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        phi = self.features(x)  # (..., N)
        raw = phi @ self.weights  # (..., F)
        # d phi_n / d x = -phi_n * scales^2 * (x - c_n)
        dphi = -phi[..., :, None] * (self.scales**2) * (x[..., None, :] - self.centers)
        draw = np.einsum("nf,...nd->...fd", self.weights, dphi)
        squash = 1.0 - np.tanh(raw / self.u_max) ** 2  # (..., F)
        return squash[..., :, None] * draw


@dataclass
class RelevanceParams:
    """Operating point and per-dimension relevance precisions."""

    a: np.ndarray  # (D,)
    lam: np.ndarray  # (D,) > 0

    def __post_init__(self):
        self.a = _as_float_array(self.a, "a").reshape(-1)
        self.lam = _as_float_array(self.lam, "lambda").reshape(-1)
        if self.lam.shape != self.a.shape:
            raise ValueError("lambda and a must have the same length")
        if np.any(self.lam <= 0):
            raise ValueError("all relevance weights lambda must be positive")


def scaled_distance(x: np.ndarray, rel: RelevanceParams) -> np.ndarray:
    """Squared distance to the operating point, weighted by lam per dimension.

    d(x) = sum_i lam_i * (x_i - a_i)^2; zero exactly at x = a, homogeneous of
    degree one in lam (doubling every lam_i doubles d).

    A deviation whose square is below the smallest normal float counts as
    zero: its subnormal square would be rounded on a fixed grid, and doubling
    lam would then no longer double d.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != rel.a.shape[0]:
        raise ValueError("observation dimension does not match operating point")
    diff = x - rel.a
    diff = np.where(np.abs(diff) < _SQRT_TINY, 0.0, diff)
    return np.sum(rel.lam * diff * diff, axis=-1)


def relevance(x: np.ndarray, rel: RelevanceParams) -> np.ndarray:
    """Weight of the linear controller, r = (1 + d)^-2 in (0, 1]."""
    d = scaled_distance(x, rel)
    return 1.0 / (1.0 + d) ** 2


def relevance_grad(x: np.ndarray, rel: RelevanceParams) -> np.ndarray:
    """Analytic gradient of r: -2 (1+d)^-3 * grad d, grad d = 2 lam (x - a)."""
    x = np.asarray(x, dtype=float)
    d = scaled_distance(x, rel)
    return -4.0 * (1.0 + d)[..., None] ** -3 * (rel.lam * (x - rel.a))


@dataclass
class HybridPolicy:
    """Blend of a linear and an RBF controller with matching dimensions."""

    linear: LinearPolicy
    nonlinear: RbfPolicy
    relevance: RelevanceParams
    env_name: str = ""

    def __post_init__(self):
        d = self.linear.obs_dim
        if self.nonlinear.obs_dim != d or self.relevance.a.shape[0] != d:
            raise ValueError("linear, RBF and relevance dimensions disagree")
        if self.nonlinear.control_dim != self.linear.control_dim:
            raise ValueError("linear and RBF control dimensions disagree")

    @property
    def obs_dim(self) -> int:
        return self.linear.obs_dim

    @property
    def control_dim(self) -> int:
        return self.linear.control_dim

    @property
    def u_max(self) -> float:
        return self.nonlinear.u_max

    def action(self, x: np.ndarray) -> np.ndarray:
        return hybrid_action(x, self)

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        return jacobian_state(x, self)


def hybrid_action(x: np.ndarray, p: HybridPolicy) -> np.ndarray:
    """pi(x) = r(x) G(x) + (1 - r(x)) H(x).

    At x = a the weights are exactly 1.0 and 0.0, so the result is
    bit-identical to G(a).
    """
    r = relevance(x, p.relevance)[..., None]
    return r * p.linear.action(x) + (1.0 - r) * p.nonlinear.action(x)


def jacobian_state(x: np.ndarray, p: HybridPolicy) -> np.ndarray:
    """Analytic Jacobian of pi with respect to the observation.

    Assembled from the four product-rule terms
    grad r * G + r * grad G + (1 - r) * grad H - grad r * H;
    at x = a this collapses to W because grad r(a) = 0 and r(a) = 1.
    """
    x = np.asarray(x, dtype=float)
    r = relevance(x, p.relevance)  # (...,)
    dr = relevance_grad(x, p.relevance)  # (..., D)
    g = p.linear.action(x)  # (..., F)
    h = p.nonlinear.action(x)  # (..., F)
    dh = p.nonlinear.jacobian(x)  # (..., F, D)
    outer = (g - h)[..., :, None] * dr[..., None, :]
    return outer + r[..., None, None] * p.linear.W + (1.0 - r)[..., None, None] * dh


# ---------------------------------------------------------------------------
# Serialization: line-oriented text, floats via repr() so a round trip is
# bit-exact.  Layout: magic+version, then named scalar/matrix fields, then
# "end".  Lines starting with "#" after the version line are comments.
# ---------------------------------------------------------------------------


def _format_matrix(name: str, arr: np.ndarray) -> list[str]:
    arr = np.atleast_2d(np.asarray(arr, dtype=float))
    lines = [f"{name} {arr.shape[0]} {arr.shape[1]}"]
    for row in arr:
        lines.append(" ".join(repr(float(v)) for v in row))
    return lines


def serialize(p: HybridPolicy, comments: list[str] | None = None) -> str:
    """Render a policy as the text policy-file format."""
    lines = [f"{_MAGIC}{POLICY_FORMAT_VERSION}"]
    for c in comments or []:
        lines.append(f"# {c}")
    lines.append(f"env {p.env_name or 'unknown'}")
    lines.append(f"u_max {repr(float(p.nonlinear.u_max))}")
    lines.extend(_format_matrix("W", p.linear.W))
    lines.extend(_format_matrix("b", p.linear.b.reshape(1, -1)))
    lines.extend(_format_matrix("centers", p.nonlinear.centers))
    lines.extend(_format_matrix("scales", p.nonlinear.scales.reshape(1, -1)))
    lines.extend(_format_matrix("weights", p.nonlinear.weights))
    lines.extend(_format_matrix("a", p.relevance.a.reshape(1, -1)))
    lines.extend(_format_matrix("lambda", p.relevance.lam.reshape(1, -1)))
    lines.append("end")
    return "\n".join(lines) + "\n"


class _LineReader:
    def __init__(self, text: str):
        self._lines = text.splitlines()
        self.pos = 0  # 1-based number of the last line handed out

    def next(self) -> str:
        while self.pos < len(self._lines):
            self.pos += 1
            line = self._lines[self.pos - 1].strip()
            if line and not line.startswith("#"):
                return line
        raise PolicyParseError("unexpected end of file", self.pos + 1)


def _read_matrix(reader: _LineReader, name: str) -> np.ndarray:
    header = reader.next()
    parts = header.split()
    if len(parts) != 3 or parts[0] != name:
        raise PolicyParseError(f"expected '{name} <rows> <cols>', got {header!r}", reader.pos)
    try:
        rows, cols = int(parts[1]), int(parts[2])
    except ValueError:
        raise PolicyParseError(f"bad shape header for {name}", reader.pos) from None
    out = np.empty((rows, cols))
    for i in range(rows):
        line = reader.next()
        vals = line.split()
        if len(vals) != cols:
            raise PolicyParseError(
                f"{name} row {i} has {len(vals)} values, expected {cols}", reader.pos)
        try:
            out[i] = [float(v) for v in vals]
        except ValueError:
            raise PolicyParseError(f"non-numeric value in {name} row {i}", reader.pos) from None
    return out


def deserialize(text: str) -> HybridPolicy:
    """Parse the text policy-file format back into a HybridPolicy.

    Raises PolicyVersionError for an unsupported version, PolicyParseError
    (with the offending line number) for malformed or truncated input, and
    ValueError when parsed parameters violate policy invariants.
    """
    reader = _LineReader(text)
    magic = reader.next()
    if not magic.startswith(_MAGIC):
        raise PolicyParseError(f"not a policy file (got {magic!r})", reader.pos)
    version = magic[len(_MAGIC):]
    if version != str(POLICY_FORMAT_VERSION):
        raise PolicyVersionError(
            f"unsupported policy format version {version!r}, "
            f"this build reads version {POLICY_FORMAT_VERSION}", reader.pos)
    env_line = reader.next()
    if not env_line.startswith("env "):
        raise PolicyParseError(f"expected 'env <name>', got {env_line!r}", reader.pos)
    env_name = env_line.split(maxsplit=1)[1]
    umax_line = reader.next()
    if not umax_line.startswith("u_max "):
        raise PolicyParseError(f"expected 'u_max <value>', got {umax_line!r}", reader.pos)
    try:
        u_max = float(umax_line.split()[1])
    except (IndexError, ValueError):
        raise PolicyParseError("bad u_max value", reader.pos) from None

    w = _read_matrix(reader, "W")
    b = _read_matrix(reader, "b").reshape(-1)
    centers = _read_matrix(reader, "centers")
    scales = _read_matrix(reader, "scales").reshape(-1)
    weights = _read_matrix(reader, "weights")
    a = _read_matrix(reader, "a").reshape(-1)
    lam = _read_matrix(reader, "lambda").reshape(-1)
    if reader.next() != "end":
        raise PolicyParseError("missing 'end' terminator", reader.pos)

    return HybridPolicy(
        linear=LinearPolicy(W=w, b=b),
        nonlinear=RbfPolicy(centers=centers, scales=scales, weights=weights, u_max=u_max),
        relevance=RelevanceParams(a=a, lam=lam),
        env_name=env_name,
    )


def save_policy(p: HybridPolicy, path, comments: list[str] | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(p, comments=comments))


def load_policy(path) -> HybridPolicy:
    with open(path, "r", encoding="utf-8") as fh:
        return deserialize(fh.read())


def clone_policy(p: HybridPolicy) -> HybridPolicy:
    """Deep copy; training works on clones so callers keep their snapshot."""
    return HybridPolicy(
        linear=LinearPolicy(W=p.linear.W.copy(), b=p.linear.b.copy()),
        nonlinear=RbfPolicy(
            centers=p.nonlinear.centers.copy(),
            scales=p.nonlinear.scales.copy(),
            weights=p.nonlinear.weights.copy(),
            u_max=p.nonlinear.u_max,
        ),
        relevance=RelevanceParams(a=p.relevance.a.copy(), lam=p.relevance.lam.copy()),
        env_name=p.env_name,
    )


# ---------------------------------------------------------------------------
# Executable structural properties.  These are the checks behind the
# `verify` command: every law the blend construction promises, evaluated on
# the concrete parameters of one policy.
# ---------------------------------------------------------------------------

NONLINEAR_LIMIT_LAMBDA = 1e8
NONLINEAR_LIMIT_RTOL = 1e-4
NONLINEAR_LIMIT_MIN_DIST = 0.01


@dataclass
class PropertyResult:
    name: str
    passed: bool
    detail: str


def finite_difference_jacobian(fn, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central differences of a vector-valued function, one column per input."""
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(x.shape[0]):
        e = np.zeros_like(x)
        e[j] = h
        cols.append((np.asarray(fn(x + e)) - np.asarray(fn(x - e))) / (2.0 * h))
    return np.stack(cols, axis=-1)


def limit_policy(p: HybridPolicy, lam: float = NONLINEAR_LIMIT_LAMBDA) -> HybridPolicy:
    """Copy of the policy with every relevance weight pinned to ``lam``."""
    out = clone_policy(p)
    out.relevance.lam = np.full(p.relevance.a.shape[0], float(lam))
    return out


def check_nonlinear_limit(p: HybridPolicy, samples: np.ndarray) -> float:
    """Worst normalized |pi - H| over samples, with lambda pinned huge.

    Only samples at unit-lambda distance >= NONLINEAR_LIMIT_MIN_DIST from the
    operating point count; right at ``a`` the blend is pinned to the linear
    controller by construction, so the limit statement is pointwise away
    from ``a``.
    """
    pinned = limit_policy(p)
    unit = RelevanceParams(a=p.relevance.a, lam=np.ones(p.relevance.a.shape[0]))
    keep = scaled_distance(samples, unit) >= NONLINEAR_LIMIT_MIN_DIST
    if not np.any(keep):
        raise ValueError("no sample is far enough from the operating point")
    x = samples[keep]
    h = p.nonlinear.action(x)
    gap = np.abs(hybrid_action(x, pinned) - h)
    return float(np.max(gap / (1.0 + np.abs(h))))


def property_report(p: HybridPolicy, n_samples: int = 200,
                    seed: int = 0) -> list[PropertyResult]:
    """Run every structural check against one policy.

    Samples are drawn around the operating point at unit scale, which covers
    both the trusted neighbourhood and the RBF-dominated region.
    """
    rng = np.random.default_rng(seed)
    a = p.relevance.a
    d = a.shape[0]
    samples = a + rng.standard_normal((n_samples, d))

    def pi_at_a():
        pi_a = hybrid_action(a, p)
        g_a = p.linear.action(a)
        return np.array_equal(pi_a, g_a), f"pi(a)={pi_a}, G(a)={g_a}"

    def jac_at_a():
        gap = float(np.max(np.abs(jacobian_state(a, p) - p.linear.W)))
        return gap <= 1e-10, f"max gap {gap:.3e}"

    def jac_fd():
        worst = 0.0
        for x in samples[:20]:
            fd = finite_difference_jacobian(lambda y: hybrid_action(y, p), x)
            worst = max(worst, float(np.max(np.abs(jacobian_state(x, p) - fd))))
        return worst <= 1e-5, f"max abs gap {worst:.3e}"

    def r_at_a():
        r_a = float(relevance(a, p.relevance))
        return r_a == 1.0, f"r(a)={r_a!r}"

    def r_range():
        r_s = relevance(samples, p.relevance)
        in_range = bool(np.all(r_s > 0.0) and np.all(r_s <= 1.0))
        # strictness holds whenever 1 + d rounds above 1; random unit-scale
        # samples are never that close to a
        strict = bool(np.all(r_s[scaled_distance(samples, p.relevance) > 1e-12] < 1.0))
        return in_range and strict, f"min {r_s.min():.3e}, max {r_s.max():.3e}"

    def r_grad():
        fd = finite_difference_jacobian(
            lambda y: np.atleast_1d(relevance(y, p.relevance)), a)
        norm = float(np.max(np.abs(fd)))
        return norm <= 1e-6, f"max |grad r(a)| {norm:.3e}"

    def r_rays():
        ts = np.linspace(0.0, 3.0, 16)
        for v in samples[:10] - a:
            rv = relevance(a + ts[:, None] * v, p.relevance)
            if np.any(np.diff(rv) > 1e-15):
                return False, "r increased along a ray"
        return True, "r non-increasing along 10 rays"

    def homogeneity():
        d1 = scaled_distance(samples, p.relevance)
        doubled = RelevanceParams(a=a, lam=2.0 * p.relevance.lam)
        gap = float(np.max(np.abs(scaled_distance(samples, doubled) - 2.0 * d1)
                           / (1.0 + d1)))
        return gap <= 1e-12, f"max relative gap {gap:.3e}"

    def convex_bound():
        g = p.linear.action(samples)
        h = p.nonlinear.action(samples)
        pi = hybrid_action(samples, p)
        slack = 1e-12 * (1.0 + np.abs(g) + np.abs(h))  # fp rounding headroom
        ok = bool(np.all(pi >= np.minimum(g, h) - slack)
                  and np.all(pi <= np.maximum(g, h) + slack))
        return ok, "pi within [min(G,H), max(G,H)]"

    def limit():
        gap = check_nonlinear_limit(p, samples)
        return gap <= NONLINEAR_LIMIT_RTOL, (
            f"max |pi - H|/(1+|H|) = {gap:.3e} at lambda={NONLINEAR_LIMIT_LAMBDA:.0e}")

    checks = [
        ("pi_at_a_equals_linear", pi_at_a),
        ("jacobian_at_a_equals_W", jac_at_a),
        ("jacobian_matches_finite_difference", jac_fd),
        ("relevance_at_a_is_one", r_at_a),
        ("relevance_in_range", r_range),
        ("relevance_gradient_zero_at_a", r_grad),
        ("relevance_ray_monotone", r_rays),
        ("distance_lambda_homogeneity", homogeneity),
        ("convex_combination_bound", convex_bound),
        ("nonlinear_limit", limit),
    ]
    results: list[PropertyResult] = []
    for name, check in checks:
        try:
            passed, detail = check()
        except Exception as exc:  # a corrupted policy fails, never crashes
            passed, detail = False, f"check raised {type(exc).__name__}: {exc}"
        results.append(PropertyResult(name=name, passed=bool(passed), detail=detail))
    return results
