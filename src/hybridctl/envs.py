"""Swing-up pendulum, cart-pole and mountain-car simulations.

Deterministic fixed-step simulations of the three frictionless rigid-body
systems, integrated with classical RK4 on their continuous dynamics.  Each
environment also exposes:

* the trig-embedded observation map fed to policies (angles enter as
  cos/sin pairs so the observation is smooth and bounded across +-pi),
* the quadratic stage reward -(obs - a)' K (obs - a) - k u^2,
* the operating point used for linear control design and its analytic
  (A, B) linearization, cross-checkable against central finite differences
  via :func:`linearize_numerical`.

Sign conventions, chosen so the analytic linearizations below hold and
documented because they are easy to get wrong:

* Pendulum: theta measured from upright; l is the pivot-to-COM distance and
  I the rod inertia about the COM (uniform rod of length 2l, I = m l^2 / 3);
  positive control torque accelerates theta in the negative direction,
  giving B = (0, -1/(m l^2 + I)).
* CartPole: same negated-control convention with the pole angle mirrored to
  match, so B = (0, -(I + m l^2)/p, 0, -m l / p) with p = I (M + m) + M m l^2.
* MountainCar: a car on the hill y = cos(x) with the target at the hilltop
  x = 0; the small-slope model x'' = g sin(x) - u / M makes positive control
  push toward negative x, giving B = (0, -1/M).  The start of an episode is
  the valley bottom x = -pi.

All dynamics/step/observe functions broadcast over leading axes, so a
population of states can be advanced in one call.

Step layout: ``dynamics(x, u, out=None)`` writes the state derivative into
``out`` component by component and returns it; without ``out`` it allocates
the broadcast shape of the state's leading axes, the control and any per-row
model parameters, so one state against many models still works.  Each
:meth:`Environment.step` call takes k1 from such an allocating call, then
allocates one (4, *shape) buffer that holds the stage state x + h k and
k2..k4; the stage array is rewritten with ``out=`` before each later call.
The stages are combined in place in the order of the textbook formula,
((k1 + 2 k2) + 2 k3) + k4, scaled by dt/6 and added to x, and only the angle
entries outside (-pi, pi] are wrapped, so a step gives the same bits as the
formula written out with fresh arrays.  Nothing is cached between calls.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericalDivergenceError
from .lqr import LinearSystem, ObservationEmbedding


class NonEquilibriumWarning(UserWarning):
    """linearize_numerical was called at a point that is not an equilibrium."""


def rod_inertia(m: float, l: float) -> float:
    """COM inertia of a uniform rod of half-length l (full length 2l)."""
    return m * l * l / 3.0


# Fields that may hold one value per rollout row (see Environment.scaled).
_PER_ROW_FIELDS = ("m", "M", "l", "I", "g")


@dataclass
class EnvParams:
    """Physical and simulation parameters shared by all three systems.

    Not every field is meaningful everywhere (the mountain car only uses M,
    g, dt, u_max), but keeping one record type makes configs and parameter
    sweeps uniform.  The physical fields m, M, l, I and g may be arrays that
    broadcast against the leading axes of a state batch, giving each row its
    own model; dt, u_max and horizon are always scalars.
    """

    m: float  # pendulum/pole mass (kg)
    M: float  # cart mass (kg), CartPole and MountainCar
    l: float  # pivot-to-COM distance (m)
    I: float  # rod inertia about its COM (kg m^2), uniform-rod assumption
    g: float  # gravitational acceleration (m/s^2)
    dt: float  # integration timestep (s)
    u_max: float  # control saturation (N or N m)
    horizon: int  # default episode length (timesteps)

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            self.check_field(f.name, value)
            if f.name == "horizon":
                self.horizon = int(value)
            elif not np.isscalar(value):
                setattr(self, f.name, np.asarray(value, dtype=float))

    @staticmethod
    def check_field(name: str, value) -> None:
        """Raise ValueError unless ``value`` is valid for field ``name``."""
        if name == "horizon":
            if int(value) < 1:
                raise ValueError("EnvParams.horizon must be at least 1")
            return
        value = np.asarray(value, dtype=float) if name in _PER_ROW_FIELDS else float(value)
        if not np.all(np.isfinite(value)):
            raise ValueError(f"EnvParams.{name} must be finite")
        if not np.all(value > 0):
            raise ValueError(f"EnvParams.{name} must be positive")


@dataclass
class CostSpec:
    """Quadratic stage reward about a target observation.

    reward(obs, u) = -(obs - a)' diag(K) (obs - a) - k u'u, always <= 0.
    """

    a: np.ndarray  # target observation
    K: np.ndarray  # diagonal state-weight entries, >= 0
    k: float  # control-weight scalar, >= 0

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=float).reshape(-1)
        self.K = np.asarray(self.K, dtype=float).reshape(-1)
        if self.K.shape != self.a.shape:
            raise ValueError("K diagonal and target a must have the same length")
        self.k = float(self.k)
        for f in dataclasses.fields(self):
            self.check_field(f.name, getattr(self, f.name))

    @staticmethod
    def check_field(name: str, value) -> None:
        """Raise ValueError unless ``value`` is valid for field ``name``."""
        label = {"a": "target a", "K": "state weights K", "k": "control weight k"}[name]
        value = np.asarray(value, dtype=float)
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{label} must be finite")
        if name != "a" and np.any(value < 0):
            raise ValueError(f"{label} must be nonnegative")


def reward(obs: np.ndarray, u, spec: CostSpec) -> np.ndarray:
    """Stage reward of an observation/control pair; broadcasts over batches.

    ``u`` is the scalar control (or an array broadcastable against the
    leading axes of ``obs``).
    """
    obs = np.asarray(obs, dtype=float)
    if obs.shape[-1] != spec.a.shape[0]:
        raise ValueError(
            f"observation dimension {obs.shape[-1]} does not match cost target "
            f"{spec.a.shape[0]}")
    diff = obs - spec.a
    u = np.asarray(u, dtype=float)
    return -np.sum(spec.K * diff * diff, axis=-1) - spec.k * u * u


def wrap_angle(theta: np.ndarray) -> np.ndarray:
    """Map angles to (-pi, pi].  Identity (bit-exact) for inputs already there."""
    theta = np.asarray(theta, dtype=float)
    wrapped = np.pi - np.mod(np.pi - theta, 2.0 * np.pi)
    return np.where((theta > np.pi) | (theta <= -np.pi), wrapped, theta)


class Environment:
    """Base class: fixed-step RK4 simulation plus design metadata."""

    name: str = ""
    state_dim: int = 0
    obs_dim: int = 0
    state_labels: tuple[str, ...] = ()
    obs_labels: tuple[str, ...] = ()
    angle_indices: tuple[int, ...] = ()
    monitored_index: int = 0  # state component watched by response analyses
    monitored_is_angle: bool = False

    def __init__(self, params: EnvParams | None = None):
        self.params = params if params is not None else self.default_params()

    # -- model definition, provided by subclasses ---------------------------
    @classmethod
    def default_params(cls) -> EnvParams:
        raise NotImplementedError

    def dynamics(self, x: np.ndarray, u, out: np.ndarray | None = None) -> np.ndarray:
        """Continuous-time state derivative; broadcasts over leading axes.

        Written into ``out`` when given (it must have the broadcast shape and
        must not overlap ``x``), else into a new array of that shape.
        """
        raise NotImplementedError

    def observe(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def analytic_linearization(self) -> LinearSystem:
        raise NotImplementedError

    def default_cost(self) -> CostSpec:
        raise NotImplementedError

    def obs_box(self) -> tuple[np.ndarray, np.ndarray]:
        """Axis-aligned box covering the reachable observations (RBF support)."""
        raise NotImplementedError

    def init_state(self) -> np.ndarray:
        """Episode start used in training/evaluation (off the operating point)."""
        raise NotImplementedError

    # -- shared machinery ----------------------------------------------------
    def operating_state(self) -> np.ndarray:
        return np.zeros(self.state_dim)

    def target_obs(self) -> np.ndarray:
        return self.observe(self.operating_state())

    def embedding(self) -> ObservationEmbedding:
        return ObservationEmbedding(
            jac=self.embedding_jacobian(), target=self.target_obs(), u_eq=0.0)

    def embedding_jacobian(self) -> np.ndarray:
        raise NotImplementedError

    def wrap(self, x: np.ndarray) -> np.ndarray:
        if not self.angle_indices:
            return x
        return self._wrap_in_place(np.array(x, dtype=float, copy=True))

    def _wrap_in_place(self, x: np.ndarray) -> np.ndarray:
        """Wrap the angle entries of ``x`` that lie outside (-pi, pi]; the
        others are left untouched, as :func:`wrap_angle` leaves them."""
        for idx in self.angle_indices:
            theta = x[..., idx]
            outside = (theta > np.pi) | (theta <= -np.pi)
            if outside.any():
                theta[outside] = wrap_angle(theta[outside])
        return x

    def step(self, x: np.ndarray, u, extra_force=0.0,
             raise_on_divergence: bool = True) -> np.ndarray:
        """Advance one timestep with RK4; control is clipped, then the
        (unclipped) external disturbance force is added.

        Non-finite values raise NumericalDivergenceError unless
        ``raise_on_divergence`` is False, in which case they pass through
        for a caller that masks diverging rows itself.
        """
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        if raise_on_divergence and not (np.isfinite(x).all() and np.isfinite(u).all()):
            raise NumericalDivergenceError("non-finite state or control entering step")
        u_eff = np.clip(u, -self.params.u_max, self.params.u_max) + extra_force
        dt = self.params.dt
        k1 = self.dynamics(x, u_eff)
        stage, k2, k3, k4 = np.empty((4, *k1.shape))
        # x + h k with x as the first operand, as in the written-out formula
        # (the operand order picks which NaN payload survives)
        np.add(x, np.multiply(k1, 0.5 * dt, out=stage), out=stage)
        self.dynamics(stage, u_eff, out=k2)
        np.add(x, np.multiply(k2, 0.5 * dt, out=stage), out=stage)
        self.dynamics(stage, u_eff, out=k3)
        np.add(x, np.multiply(k3, dt, out=stage), out=stage)
        self.dynamics(stage, u_eff, out=k4)
        # x + (dt / 6) * (((k1 + 2 k2) + 2 k3) + k4), accumulated in k1
        k1 += np.multiply(k2, 2.0, out=k2)
        k1 += np.multiply(k3, 2.0, out=k3)
        k1 += k4
        k1 *= dt / 6.0
        out = self._wrap_in_place(np.add(x, k1, out=k1))
        if raise_on_divergence and not np.isfinite(out).all():
            raise NumericalDivergenceError("state diverged to non-finite values")
        return out

    def scaled(self, parameter: str, factor) -> "Environment":
        """Copy of this environment with one physical parameter scaled.

        'mass' scales the body the robustness protocol varies (pendulum bob
        with its rod inertia recomputed, cart mass otherwise); 'g' scales
        gravity.  An array of factors gives one model per rollout row.
        """
        if not np.isscalar(factor):
            factor = np.asarray(factor, dtype=float)
        if not np.all(factor > 0):
            raise ValueError("scale factor must be positive")
        p = self.params
        if parameter == "g":
            new = dataclasses.replace(p, g=p.g * factor)
        elif parameter == "mass":
            new = self._scale_mass(factor)
        else:
            raise ValueError(f"unknown parameter {parameter!r}; expected 'mass' or 'g'")
        return type(self)(new)

    def _scale_mass(self, factor) -> EnvParams:
        raise NotImplementedError


class Pendulum(Environment):
    """Torque-actuated rigid pendulum, swing-up to the upright position."""

    name = "pendulum"
    state_dim = 2
    obs_dim = 3
    state_labels = ("theta", "theta_dot")
    obs_labels = ("cos_theta", "sin_theta", "theta_dot")
    angle_indices = (0,)
    monitored_index = 0
    monitored_is_angle = True

    @classmethod
    def default_params(cls) -> EnvParams:
        return EnvParams(m=1.0, M=1.0, l=1.0, I=rod_inertia(1.0, 1.0),
                         g=10.0, dt=0.05, u_max=2.0, horizon=400)

    def dynamics(self, x, u, out=None):
        p = self.params
        dom = (p.m * p.g * p.l * np.sin(x[..., 0]) - u) / (p.m * p.l * p.l + p.I)
        if out is None:
            out = np.empty((*np.broadcast(x[..., 1], dom).shape, 2))
        out[..., 0] = x[..., 1]
        out[..., 1] = dom
        return out

    def observe(self, x):
        th = x[..., 0]
        out = np.empty((*x.shape[:-1], 3))
        np.cos(th, out=out[..., 0])
        np.sin(th, out=out[..., 1])
        out[..., 2] = x[..., 1]
        return out

    def analytic_linearization(self) -> LinearSystem:
        p = self.params
        j = p.m * p.l * p.l + p.I
        A = np.array([[0.0, 1.0], [p.m * p.l * p.g / j, 0.0]])
        B = np.array([[0.0], [-1.0 / j]])
        return LinearSystem(A=A, B=B)

    def embedding_jacobian(self) -> np.ndarray:
        return np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])

    def default_cost(self) -> CostSpec:
        return CostSpec(a=[1.0, 0.0, 0.0], K=[1.0, 1.0, 0.1], k=0.005)

    def obs_box(self):
        return np.array([-1.0, -1.0, -8.0]), np.array([1.0, 1.0, 8.0])

    def init_state(self) -> np.ndarray:
        return np.array([np.pi, 0.0])

    def energy(self, x) -> np.ndarray:
        """Total mechanical energy (potential zero at pivot height)."""
        p = self.params
        j = p.m * p.l * p.l + p.I
        return 0.5 * j * np.asarray(x)[..., 1] ** 2 + p.m * p.g * p.l * np.cos(
            np.asarray(x)[..., 0])

    def _scale_mass(self, factor) -> EnvParams:
        p = self.params
        m = p.m * factor
        return dataclasses.replace(p, m=m, I=rod_inertia(m, p.l))


class CartPole(Environment):
    """Cart on a track with a freely swinging pole, swing-up and balance."""

    name = "cartpole"
    state_dim = 4
    obs_dim = 5
    state_labels = ("x", "x_dot", "theta", "theta_dot")
    obs_labels = ("x", "x_dot", "cos_theta", "sin_theta", "theta_dot")
    angle_indices = (2,)
    monitored_index = 2
    monitored_is_angle = True

    @classmethod
    def default_params(cls) -> EnvParams:
        # 20 s episodes: the slowest closed-loop mode of the default design
        # is about -0.8 1/s, and transient reports need the tail fully
        # decayed within one episode
        return EnvParams(m=0.1, M=1.0, l=0.5, I=rod_inertia(0.1, 0.5),
                         g=9.8, dt=0.02, u_max=10.0, horizon=1000)

    def dynamics(self, x, u, out=None):
        p = self.params
        th = x[..., 2]
        om = x[..., 3]
        s, c = np.sin(th), np.cos(th)
        ml = p.m * p.l
        jp = p.I + ml * p.l
        det = (p.M + p.m) * jp - (ml * c) ** 2
        r1 = -u - ml * om * om * s
        r2 = ml * p.g * s
        xdd = (jp * r1 + ml * c * r2) / det
        omd = (ml * c * r1 + (p.M + p.m) * r2) / det
        if out is None:
            out = np.empty((*np.broadcast(x[..., 1], xdd, om, omd).shape, 4))
        out[..., 0] = x[..., 1]
        out[..., 1] = xdd
        out[..., 2] = om
        out[..., 3] = omd
        return out

    def observe(self, x):
        th = x[..., 2]
        out = np.empty((*x.shape[:-1], 5))
        out[..., :2] = x[..., :2]
        np.cos(th, out=out[..., 2])
        np.sin(th, out=out[..., 3])
        out[..., 4] = x[..., 3]
        return out

    def analytic_linearization(self) -> LinearSystem:
        pm = self.params
        ml = pm.m * pm.l
        jp = pm.I + ml * pm.l
        p = pm.I * (pm.M + pm.m) + pm.M * ml * pm.l
        A = np.array([
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, ml * ml * pm.g / p, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, ml * pm.g * (pm.M + pm.m) / p, 0.0],
        ])
        B = np.array([[0.0], [-jp / p], [0.0], [-ml / p]])
        return LinearSystem(A=A, B=B)

    def embedding_jacobian(self) -> np.ndarray:
        E = np.zeros((5, 4))
        E[0, 0] = 1.0
        E[1, 1] = 1.0
        E[3, 2] = 1.0  # sin(theta) ~ theta at the upright point
        E[4, 3] = 1.0
        return E

    def default_cost(self) -> CostSpec:
        return CostSpec(a=[0.0, 0.0, 1.0, 0.0, 0.0],
                        K=[0.1, 0.0, 0.5, 0.5, 0.0], k=0.001)

    def obs_box(self):
        return (np.array([-2.4, -3.0, -1.0, -1.0, -8.0]),
                np.array([2.4, 3.0, 1.0, 1.0, 8.0]))

    def init_state(self) -> np.ndarray:
        return np.array([0.0, 0.0, np.pi, 0.0])

    def _scale_mass(self, factor) -> EnvParams:
        # The robustness protocol varies the cart mass for this system.
        return dataclasses.replace(self.params, M=self.params.M * factor)


class MountainCar(Environment):
    """Car on the hill y = cos(x); climb from the valley and hold the top.

    Unlike the classic termination-at-flag task, episodes never terminate:
    the reward keeps paying for staying at the hilltop, so the target is a
    genuine operating point with an unstable open loop (A = [[0,1],[g,0]]).
    u_max is deliberately below the m*g of the steepest slope, so the car is
    underpowered and must oscillate to climb.
    """

    name = "mountaincar"
    state_dim = 2
    obs_dim = 2
    state_labels = ("x", "x_dot")
    obs_labels = ("x", "x_dot")
    angle_indices = ()
    monitored_index = 0
    monitored_is_angle = False

    @classmethod
    def default_params(cls) -> EnvParams:
        # u_max/(M g) = 0.6 mirrors the engine/gravity ratio of the classic
        # continuous mountain car.
        return EnvParams(m=1.0, M=1.0, l=1.0, I=rod_inertia(1.0, 1.0),
                         g=10.0, dt=0.02, u_max=6.0, horizon=500)

    def dynamics(self, x, u, out=None):
        p = self.params
        acc = p.g * np.sin(x[..., 0]) - u / p.M
        if out is None:
            out = np.empty((*np.broadcast(x[..., 1], acc).shape, 2))
        out[..., 0] = x[..., 1]
        out[..., 1] = acc
        return out

    def observe(self, x):
        return np.asarray(x, dtype=float).copy()

    def analytic_linearization(self) -> LinearSystem:
        p = self.params
        A = np.array([[0.0, 1.0], [p.g, 0.0]])
        B = np.array([[0.0], [-1.0 / p.M]])
        return LinearSystem(A=A, B=B)

    def embedding_jacobian(self) -> np.ndarray:
        return np.eye(2)

    def default_cost(self) -> CostSpec:
        return CostSpec(a=[0.0, 0.0], K=[0.5, 0.1], k=0.005)

    def obs_box(self):
        return np.array([-4.5, -6.5]), np.array([1.5, 6.5])

    def init_state(self) -> np.ndarray:
        return np.array([-np.pi, 0.0])

    def _scale_mass(self, factor) -> EnvParams:
        return dataclasses.replace(self.params, M=self.params.M * factor)


_ENV_TYPES = {cls.name: cls for cls in (Pendulum, CartPole, MountainCar)}
ENV_NAMES = tuple(_ENV_TYPES)


def make_env(name: str, params: EnvParams | None = None) -> Environment:
    try:
        cls = _ENV_TYPES[name]
    except KeyError:
        raise ValueError(
            f"unknown environment {name!r}; expected one of {', '.join(ENV_NAMES)}"
        ) from None
    return cls(params)


def linearize_numerical(env: Environment, x0: np.ndarray, u0: float = 0.0,
                        rel_step: float = 1e-6,
                        equilibrium_tol: float = 1e-8) -> LinearSystem:
    """Central finite-difference Jacobians of the continuous dynamics.

    Intended for cross-checking the analytic linearization at an operating
    point; calling it elsewhere is allowed but flagged with a warning since
    the (A, B) pair then describes dynamics about a non-equilibrium.
    """
    x0 = np.asarray(x0, dtype=float)
    f0 = env.dynamics(x0, u0)
    if np.linalg.norm(f0) > equilibrium_tol:
        warnings.warn(
            f"linearizing at a non-equilibrium point (||f|| = {np.linalg.norm(f0):.2e})",
            NonEquilibriumWarning, stacklevel=2)
    n = env.state_dim
    A = np.zeros((n, n))
    for j in range(n):
        h = rel_step * max(1.0, abs(x0[j]))
        e = np.zeros(n)
        e[j] = h
        A[:, j] = (env.dynamics(x0 + e, u0) - env.dynamics(x0 - e, u0)) / (2.0 * h)
    hu = rel_step * max(1.0, abs(u0))
    B = ((env.dynamics(x0, u0 + hu) - env.dynamics(x0, u0 - hu)) / (2.0 * hu)).reshape(-1, 1)
    return LinearSystem(A=A, B=B)


@dataclass
class Trajectory:
    """Closed-loop rollout record.

    states/observations carry T+1 entries (including the final state);
    controls/rewards carry T, one per applied step.  The CSV dump keeps the
    T rows that have a control attached.
    """

    states: np.ndarray  # (T+1, n)
    observations: np.ndarray  # (T+1, d)
    controls: np.ndarray  # (T,)
    rewards: np.ndarray | None  # (T,) or None when no cost was supplied
    diverged: bool = False

    def monitored(self, env: Environment) -> np.ndarray:
        return self.states[:, env.monitored_index]

    def cumulative_reward(self) -> float:
        if self.rewards is None:
            raise ValueError("trajectory was recorded without a cost")
        return float(np.sum(self.rewards))

    def to_csv(self, path, env: Environment,
               header_comments: list[str] | None = None) -> None:
        cols = ["t", *env.state_labels, *env.obs_labels, "u", "reward"]
        with open(path, "w", encoding="utf-8") as fh:
            for comment in header_comments or []:
                fh.write(f"# {comment}\n")
            fh.write(",".join(cols) + "\n")
            for t in range(len(self.controls)):
                vals = [repr(float(v)) for v in (
                    *self.states[t], *self.observations[t], self.controls[t],
                    self.rewards[t] if self.rewards is not None else float("nan"))]
                fh.write(",".join([str(t), *vals]) + "\n")


def simulate(env: Environment, controller, x0: np.ndarray, T: int,
             cost: CostSpec | None = None, disturbance=None,
             truncate_on_divergence: bool = False) -> Trajectory:
    """Run a closed loop for T steps from x0.

    ``controller`` maps an observation to a control (scalar or length-1
    array); its output is clipped to +-u_max before being applied and before
    entering the reward.  ``disturbance(t)`` may supply an additive external
    force per step, injected after the clip.  On divergence the trajectory
    is either truncated (flagged) or the error propagates.
    """
    x = np.array(x0, dtype=float)
    states = [x.copy()]
    observations = [env.observe(x)]
    controls: list[float] = []
    rewards: list[float] = []
    diverged = False
    for t in range(int(T)):
        obs = observations[-1]
        u = float(np.asarray(controller(obs)).reshape(-1)[0])
        u = float(np.clip(u, -env.params.u_max, env.params.u_max))
        w = float(disturbance(t)) if disturbance is not None else 0.0
        try:
            x = env.step(x, u, extra_force=w)
        except NumericalDivergenceError:
            if not truncate_on_divergence:
                raise
            diverged = True
            break
        controls.append(u)
        if cost is not None:
            rewards.append(float(reward(obs, u, cost)))
        states.append(x.copy())
        observations.append(env.observe(x))
    return Trajectory(
        states=np.asarray(states),
        observations=np.asarray(observations),
        controls=np.asarray(controls),
        rewards=np.asarray(rewards) if cost is not None else None,
        diverged=diverged,
    )


def rollout_returns(env: Environment, policy, x0s: np.ndarray, T: int,
                    cost: CostSpec, truncate_on_divergence: bool = True) -> np.ndarray:
    """Cumulative reward of each row of a batch of closed-loop episodes.

    All rows advance together: each timestep makes one ``policy.action``
    call on the (rows, D) observations (a scalar result applies to every
    row) and one RK4 step, and ``env`` may carry one model per row (see
    :meth:`Environment.scaled`).  The control is clipped to +-u_max before
    it is applied and before it enters the reward, as in :func:`simulate`.

    A row whose state or control turns non-finite, or whose next state
    would, stops there and keeps the reward of its earlier steps, as
    ``simulate(..., truncate_on_divergence=True)`` truncates one episode;
    the other rows carry on.  Without truncation a diverging row raises
    NumericalDivergenceError.  A row's return is ``np.sum`` over its own
    rewards, the reduction of :meth:`Trajectory.cumulative_reward`, so it is
    bit-identical to the same episode run alone.
    """
    x = np.array(x0s, dtype=float)
    rows, T = x.shape[0], int(T)
    u_max = env.params.u_max
    rest = env.operating_state()  # where stopped rows are parked
    rewards = np.zeros((rows, T))
    steps = np.full(rows, T)  # steps each row completed
    live = np.ones(rows, dtype=bool)
    for t in range(T):
        if not live.any():
            break
        obs = env.observe(x)
        u = np.asarray(policy.action(obs), dtype=float)
        u = np.full(rows, u) if u.ndim == 0 else u.reshape(rows, -1)[:, 0]
        u = np.clip(u, -u_max, u_max)
        stop = live & ~(np.isfinite(u) & np.all(np.isfinite(x), axis=-1))
        u = np.where(live & ~stop, u, 0.0)
        nxt = env.step(x, u, raise_on_divergence=False)
        stop |= live & ~np.all(np.isfinite(nxt), axis=-1)
        if stop.any():
            if not truncate_on_divergence:
                raise NumericalDivergenceError(
                    f"rollout row {int(np.argmax(stop))} diverged at step {t}")
            steps[stop] = t
            live &= ~stop
        nxt[~live] = rest
        rewards[:, t] = reward(obs, u, cost)
        x = nxt
    return np.array([np.sum(rewards[i, :k]) for i, k in enumerate(steps)])


def jittered_start(x0: np.ndarray, seed: int | None, jitter: float) -> np.ndarray:
    """x0 plus ``jitter`` times a standard normal draw seeded by ``seed``;
    x0 itself when the jitter is zero."""
    x0 = np.asarray(x0, dtype=float)
    if jitter > 0.0:
        rng = np.random.default_rng(seed)
        x0 = x0 + jitter * rng.standard_normal(x0.shape)
    return x0


def rollout_return(policy, env: Environment, cost: CostSpec, x0: np.ndarray,
                   T: int, seed: int | None = None, jitter: float = 0.0,
                   truncate_on_divergence: bool = False) -> float:
    """Cumulative reward of one closed-loop episode (a one-row
    :func:`rollout_returns`).

    Deterministic given its arguments; the seed only drives the optional
    initial-state jitter.  Divergence propagates unless truncation is
    requested, in which case the reward accumulated so far is returned.
    """
    x0 = jittered_start(x0, seed, jitter)
    return float(rollout_returns(env, policy, x0[None, :], T, cost,
                                 truncate_on_divergence)[0])
