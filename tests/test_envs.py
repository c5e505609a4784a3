import warnings

import numpy as np
import pytest

from hybridctl import (
    CostSpec,
    EnvParams,
    NumericalDivergenceError,
    linearize_numerical,
    make_env,
    reward,
    rollout_return,
    rollout_returns,
    simulate,
)
from hybridctl.envs import NonEquilibriumWarning, rod_inertia, wrap_angle
from hybridctl.trainer import make_hybrid

from conftest import synthesize_linear


def fine_step_pendulum(state, u, total_time, params, substep=1e-5):
    """Independent integration oracle: classic RK4 re-derived here with its
    own copy of the pendulum dynamics and a 5000x finer step."""
    m, l, g, inertia = params.m, params.l, params.g, params.I
    j = m * l * l + inertia

    def f(s):
        return np.array([s[1], (m * g * l * np.sin(s[0]) - u) / j])

    x = np.array(state, dtype=float)
    n = int(round(total_time / substep))
    for _ in range(n):
        k1 = f(x)
        k2 = f(x + 0.5 * substep * k1)
        k3 = f(x + 0.5 * substep * k2)
        k4 = f(x + substep * k3)
        x = x + substep / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return x


class TestStep:
    def test_upright_is_exact_fixed_point(self, pendulum):
        x = np.zeros(2)
        out = pendulum.step(x, 0.0)
        assert np.array_equal(out, x)

    def test_hanging_is_fixed_point(self, pendulum):
        out = pendulum.step(np.array([np.pi, 0.0]), 0.0)
        np.testing.assert_allclose(out, [np.pi, 0.0], rtol=0, atol=1e-12)

    def test_matches_fine_step_oracle(self, pendulum):
        x0 = np.array([0.1, 0.0])
        coarse = pendulum.step(x0, 0.0)
        fine = fine_step_pendulum(x0, 0.0, pendulum.params.dt, pendulum.params)
        np.testing.assert_allclose(coarse, fine, rtol=0, atol=1e-6)

    def test_matches_fine_step_oracle_with_control(self, pendulum):
        x0 = np.array([0.4, -0.3])
        coarse = pendulum.step(x0, 1.5)
        fine = fine_step_pendulum(x0, 1.5, pendulum.params.dt, pendulum.params)
        np.testing.assert_allclose(coarse, fine, rtol=0, atol=1e-6)

    def test_deterministic_bitwise(self, each_env):
        x0 = each_env.init_state() + 0.01
        a = each_env.step(x0, 0.7)
        b = each_env.step(x0.copy(), 0.7)
        assert np.array_equal(a, b)

    def test_control_is_clipped(self, each_env):
        x0 = each_env.init_state()
        saturated = each_env.step(x0, each_env.params.u_max)
        overdriven = each_env.step(x0, 100.0 * each_env.params.u_max)
        assert np.array_equal(saturated, overdriven)

    def test_nonfinite_state_raises(self, pendulum):
        with pytest.raises(NumericalDivergenceError):
            pendulum.step(np.array([np.nan, 0.0]), 0.0)
        with pytest.raises(NumericalDivergenceError):
            pendulum.step(np.zeros(2), np.inf)

    def test_batched_step_matches_loop(self, each_env):
        rng = np.random.default_rng(0)
        xs = each_env.init_state() + 0.1 * rng.standard_normal((6, each_env.state_dim))
        us = rng.uniform(-1, 1, 6)
        batched = each_env.step(xs, us)
        for i in range(6):
            assert np.array_equal(batched[i], each_env.step(xs[i], us[i]))


class TestObserve:
    def test_pendulum_target_embedding(self, pendulum):
        np.testing.assert_array_equal(pendulum.observe(np.zeros(2)), [1.0, 0.0, 0.0])

    def test_pendulum_hanging_embedding(self, pendulum):
        obs = pendulum.observe(np.array([np.pi, 0.0]))
        np.testing.assert_allclose(obs, [-1.0, 0.0, 0.0], rtol=0, atol=1e-12)

    def test_cartpole_upright_embedding(self, cartpole):
        np.testing.assert_array_equal(
            cartpole.observe(np.zeros(4)), [0.0, 0.0, 1.0, 0.0, 0.0])

    def test_cartpole_hanging_embedding(self, cartpole):
        obs = cartpole.observe(np.array([0.0, 0.0, np.pi, 0.0]))
        np.testing.assert_allclose(obs, [0.0, 0.0, -1.0, 0.0, 0.0], rtol=0, atol=1e-12)

    def test_mountaincar_observation_is_state(self, mountaincar):
        x = np.array([-np.pi, 0.25])
        np.testing.assert_array_equal(mountaincar.observe(x), x)

    def test_trig_identity(self, pendulum):
        for th in np.linspace(-np.pi, np.pi, 17):
            c, s, _ = pendulum.observe(np.array([th, 0.0]))
            assert abs(c * c + s * s - 1.0) < 1e-12

    def test_observe_wrap_periodic(self, pendulum):
        # exact as real numbers; the 1e-12 headroom only absorbs the rounding
        # of theta + 2*pi itself
        for th in np.linspace(-3.0, 3.0, 11):
            a = pendulum.observe(pendulum.wrap(np.array([th, 0.3])))
            b = pendulum.observe(pendulum.wrap(np.array([th + 2 * np.pi, 0.3])))
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_wrap_identity_inside_range(self):
        th = np.array([-3.1, -1.0, 0.0, 1.0, np.pi])
        assert np.array_equal(wrap_angle(th), th)

    def test_wrap_maps_to_half_open_interval(self):
        th = np.linspace(-20, 20, 401)
        w = wrap_angle(th)
        assert np.all(w > -np.pi) and np.all(w <= np.pi)
        assert wrap_angle(-np.pi) == np.pi


class TestReward:
    def test_zero_at_target(self, each_env):
        cost = each_env.default_cost()
        assert reward(cost.a, 0.0, cost) == 0.0

    def test_direct_quadratic_evaluation(self, pendulum):
        # hanging: obs - a = (-2, 0, 0), so the reward is -(-2)^2 * K[0]
        cost = pendulum.default_cost()
        obs = np.array([-1.0, 0.0, 0.0])
        assert reward(obs, 0.0, cost) == -4.0 * cost.K[0]

    def test_control_penalty_monotone(self, each_env):
        cost = each_env.default_cost()
        rng = np.random.default_rng(1)
        for _ in range(20):
            obs = cost.a + rng.standard_normal(cost.a.shape)
            u = rng.uniform(-3, 3)
            assert reward(obs, u, cost) <= reward(obs, 0.0, cost)

    def test_always_nonpositive(self, each_env):
        cost = each_env.default_cost()
        rng = np.random.default_rng(2)
        obs = cost.a + rng.standard_normal((100, cost.a.shape[0]))
        assert np.all(reward(obs, rng.uniform(-2, 2, 100), cost) <= 0.0)

    def test_dimension_mismatch_raises(self, pendulum):
        with pytest.raises(ValueError):
            reward(np.zeros(2), 0.0, pendulum.default_cost())

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            CostSpec(a=[0.0, 0.0], K=[1.0, -1.0], k=0.1)
        with pytest.raises(ValueError):
            CostSpec(a=[0.0], K=[1.0], k=-0.1)

    @pytest.mark.parametrize("field", ["a", "K", "k"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_spec_rejected(self, field, bad):
        values = {"a": [0.0, 1.0], "K": [1.0, 0.5], "k": 0.1}
        values[field] = bad if field == "k" else [0.0, bad]
        with pytest.raises(ValueError, match="must be finite"):
            CostSpec(**values)


class TestLinearization:
    def test_pendulum_matches_closed_form(self, pendulum):
        p = pendulum.params
        j = p.m * p.l * p.l + p.I
        sys_num = linearize_numerical(pendulum, pendulum.operating_state(), 0.0)
        np.testing.assert_allclose(
            sys_num.A, [[0.0, 1.0], [p.m * p.l * p.g / j, 0.0]], rtol=1e-3, atol=1e-6)
        np.testing.assert_allclose(
            sys_num.B, [[0.0], [-1.0 / j]], rtol=1e-3, atol=1e-6)

    def test_mountaincar_matches_closed_form(self, mountaincar):
        p = mountaincar.params
        sys_num = linearize_numerical(mountaincar, mountaincar.operating_state(), 0.0)
        np.testing.assert_allclose(sys_num.A, [[0.0, 1.0], [p.g, 0.0]],
                                   rtol=1e-3, atol=1e-6)
        np.testing.assert_allclose(sys_num.B, [[0.0], [-1.0 / p.M]],
                                   rtol=1e-3, atol=1e-6)

    def test_every_env_matches_analytic_entrywise(self, each_env):
        analytic = each_env.analytic_linearization()
        numeric = linearize_numerical(each_env, each_env.operating_state(), 0.0)
        for a_mat, n_mat in ((analytic.A, numeric.A), (analytic.B, numeric.B)):
            zero = np.abs(a_mat) <= 1e-12
            assert np.all(np.abs(n_mat[zero]) < 1e-6)
            rel = np.abs(n_mat[~zero] - a_mat[~zero]) / np.abs(a_mat[~zero])
            assert np.max(rel, initial=0.0) < 1e-3

    def test_nonequilibrium_warns_but_returns(self, pendulum):
        with pytest.warns(NonEquilibriumWarning):
            out = linearize_numerical(pendulum, np.array([0.5, 0.0]), 0.0)
        assert np.all(np.isfinite(out.A))

    def test_equilibrium_does_not_warn(self, pendulum):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            linearize_numerical(pendulum, pendulum.operating_state(), 0.0)


class TestEnergy:
    def test_rk4_conserves_energy(self, pendulum):
        # unforced libration; RK4 at dt=0.05 holds total energy to < 1e-6
        # relative over 200 steps
        x = np.array([3.0, 0.0])
        e0 = pendulum.energy(x)
        worst = 0.0
        for _ in range(200):
            x = pendulum.step(x, 0.0)
            worst = max(worst, abs(pendulum.energy(x) - e0))
        assert worst / abs(e0) < 1e-6

    def test_energy_drift_is_fourth_order(self):
        # halving dt should cut the drift by roughly 2^4
        drifts = []
        for dt in (0.05, 0.025):
            env = make_env("pendulum", EnvParams(
                m=1.0, M=1.0, l=1.0, I=rod_inertia(1.0, 1.0), g=10.0,
                dt=dt, u_max=2.0, horizon=400))
            x = np.array([3.0, 0.0])
            e0 = env.energy(x)
            worst = 0.0
            for _ in range(int(round(10.0 / dt))):
                x = env.step(x, 0.0)
                worst = max(worst, abs(env.energy(x) - e0))
            drifts.append(worst)
        assert drifts[0] / drifts[1] > 8.0


class TestParams:
    def test_positive_invariants(self):
        with pytest.raises(ValueError):
            EnvParams(m=0.0, M=1, l=1, I=1, g=10, dt=0.05, u_max=2, horizon=100)
        with pytest.raises(ValueError):
            EnvParams(m=1, M=1, l=1, I=1, g=10, dt=0.05, u_max=2, horizon=0)

    def test_rejects_array_with_one_nonpositive_entry(self):
        with pytest.raises(ValueError, match="EnvParams.m must be positive"):
            EnvParams(m=np.array([1.0, 0.0, 2.0]), M=1, l=1, I=1, g=10,
                      dt=0.05, u_max=2, horizon=100)
        with pytest.raises(ValueError, match="EnvParams.g must be positive"):
            EnvParams(m=1, M=1, l=1, I=1, g=np.array([10.0, -1.0]),
                      dt=0.05, u_max=2, horizon=100)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_fields(self, bad):
        with pytest.raises(ValueError, match="EnvParams.dt must be finite"):
            EnvParams(m=1, M=1, l=1, I=1, g=10, dt=bad, u_max=2, horizon=100)
        with pytest.raises(ValueError, match="EnvParams.m must be finite"):
            EnvParams(m=np.array([1.0, bad]), M=1, l=1, I=1, g=10,
                      dt=0.05, u_max=2, horizon=100)

    def test_per_row_scaling_rejects_nonpositive_factor(self, pendulum):
        with pytest.raises(ValueError):
            pendulum.scaled("g", np.array([1.0, 0.0]))

    @pytest.mark.parametrize("param", ["mass", "g"])
    def test_per_row_step_equals_scalar_models_bitwise(self, each_env, param):
        factors = np.array([0.5, 1.0, 2.0, 3.0, 5.0])
        rng = np.random.default_rng(2)
        x = each_env.operating_state() + rng.standard_normal((5, each_env.state_dim))
        u = each_env.params.u_max * rng.uniform(-1.5, 1.5, 5)
        batch = each_env.scaled(param, factors).step(x, u)
        lone = np.array([each_env.scaled(param, float(f)).step(xi, ui)
                         for f, xi, ui in zip(factors, x, u)])
        assert np.array_equal(batch, lone)

    def test_mass_scaling_recomputes_rod_inertia(self, pendulum):
        scaled = pendulum.scaled("mass", 2.0)
        assert scaled.params.m == 2.0 * pendulum.params.m
        assert scaled.params.I == rod_inertia(scaled.params.m, scaled.params.l)
        assert scaled.params.g == pendulum.params.g

    def test_cartpole_mass_scaling_targets_cart(self, cartpole):
        scaled = cartpole.scaled("mass", 3.0)
        assert scaled.params.M == 3.0 * cartpole.params.M
        assert scaled.params.m == cartpole.params.m

    def test_g_scaling(self, each_env):
        assert each_env.scaled("g", 0.5).params.g == 0.5 * each_env.params.g

    def test_unknown_parameter_rejected(self, pendulum):
        with pytest.raises(ValueError):
            pendulum.scaled("length", 2.0)

    def test_unknown_env_rejected(self):
        with pytest.raises(ValueError):
            make_env("acrobot")


class TestSimulate:
    def test_trajectory_shapes(self, pendulum):
        traj = simulate(pendulum, lambda obs: 0.0, pendulum.init_state(), 50,
                        cost=pendulum.default_cost())
        assert traj.states.shape == (51, 2)
        assert traj.observations.shape == (51, 3)
        assert traj.controls.shape == (50,)
        assert traj.rewards.shape == (50,)

    def test_csv_header(self, pendulum, tmp_path):
        traj = simulate(pendulum, lambda obs: 0.0, pendulum.init_state(), 5,
                        cost=pendulum.default_cost())
        path = tmp_path / "traj.csv"
        traj.to_csv(path, pendulum, header_comments=["seed=0"])
        lines = path.read_text().splitlines()
        assert lines[0] == "# seed=0"
        assert lines[1] == "t,theta,theta_dot,cos_theta,sin_theta,theta_dot,u,reward"
        assert len(lines) == 2 + 5


class TestWrapProperties:
    from hypothesis import given, settings, strategies as st

    @given(st.floats(-50.0, 50.0))
    @settings(max_examples=100, deadline=None)
    def test_wrap_lands_in_half_open_interval(self, theta):
        w = float(wrap_angle(theta))
        assert -np.pi < w <= np.pi

    @given(st.floats(-50.0, 50.0))
    @settings(max_examples=100, deadline=None)
    def test_wrap_is_congruent_mod_two_pi(self, theta):
        w = float(wrap_angle(theta))
        k = (theta - w) / (2.0 * np.pi)
        assert abs(k - round(k)) < 1e-9


class TestMountainCarPhysics:
    def test_engine_cannot_climb_directly(self, mountaincar):
        # full constant push toward the hilltop from the valley: the engine
        # is weaker than gravity on the steepest slope, so the car stalls
        # below the top instead of driving straight up
        traj = simulate(mountaincar, lambda obs: -mountaincar.params.u_max,
                        mountaincar.init_state(), 2000)
        assert np.max(traj.states[:, 0]) < -0.5

    def test_valley_bottom_is_stable_rest_point(self, mountaincar):
        out = mountaincar.step(np.array([-np.pi, 0.0]), 0.0)
        np.testing.assert_allclose(out, [-np.pi, 0.0], rtol=0, atol=1e-12)


class TestDivergenceHandling:
    @staticmethod
    def nan_after(k):
        calls = {"n": 0}

        def controller(obs):
            calls["n"] += 1
            return np.nan if calls["n"] > k else 0.0

        return controller

    def test_simulate_truncates_and_flags(self, pendulum):
        traj = simulate(pendulum, self.nan_after(10), pendulum.init_state(), 50,
                        cost=pendulum.default_cost(), truncate_on_divergence=True)
        assert traj.diverged
        assert len(traj.controls) == 10
        assert traj.rewards.shape == (10,)

    def test_simulate_propagates_by_default(self, pendulum):
        with pytest.raises(NumericalDivergenceError):
            simulate(pendulum, self.nan_after(10), pendulum.init_state(), 50)


class NanAboveSpeed:
    """Wraps a policy; its control turns NaN wherever |theta_dot| > limit."""

    def __init__(self, policy, limit):
        self.policy = policy
        self.limit = limit

    def action(self, obs):
        u = self.policy.action(obs)
        return np.where(np.abs(obs[..., 2:3]) > self.limit, np.nan, u)


class TestRolloutReturns:
    @pytest.fixture()
    def policy(self, pendulum):
        pol = make_hybrid(pendulum, synthesize_linear(pendulum)[1],
                          rng=np.random.default_rng(3))
        # weights well above the near-zero start, so the RBF term matters
        pol.nonlinear.weights = np.random.default_rng(4).normal(
            0.0, 0.3, pol.nonlinear.weights.shape)
        return NanAboveSpeed(pol, limit=6.5)

    def test_diverging_row_leaves_the_others_bitwise(self, pendulum, policy):
        factors = np.array([0.5, 1.0, 2.0, 5.0, 1.0, 3.0, 0.7, 1.0])
        # rows away from the operating point, where the RBF term dominates;
        # the last row spins past the speed limit
        x0s = np.array([[0.05, 0.0], [-0.1, 0.3], [2.0, -1.0], [np.pi, 0.0],
                        [-2.5, 1.5], [1.0, 2.0], [3.0, -0.5], [1.0, 6.0]])
        cost = pendulum.default_cost()
        got = rollout_returns(pendulum.scaled("mass", factors), policy, x0s, 80, cost)
        for f, x0, ret in zip(factors, x0s, got):
            env = pendulum.scaled("mass", float(f))
            assert ret == rollout_return(policy, env, cost, x0, 80,
                                         truncate_on_divergence=True)
            traj = simulate(env, policy.action, x0, 80, cost=cost,
                            truncate_on_divergence=True)
            assert ret == traj.cumulative_reward()
            assert traj.diverged == (x0[1] > 5.0)
        assert 0 < len(traj.rewards) < 80

    def test_non_finite_start_returns_zero(self, pendulum, policy):
        x0s = np.array([[np.nan, 0.0], [0.1, 0.0]])
        got = rollout_returns(pendulum, policy, x0s, 20, pendulum.default_cost())
        assert got[0] == 0.0 and got[1] < 0.0

    def test_divergence_raises_without_truncation(self, pendulum, policy):
        x0s = np.array([[0.05, 0.0], [1.0, 6.0]])
        with pytest.raises(NumericalDivergenceError):
            rollout_returns(pendulum, policy, x0s, 80, pendulum.default_cost(),
                            truncate_on_divergence=False)

    def test_scalar_action_applies_to_every_row(self, pendulum):
        class Constant:
            def action(self, obs):
                return 0.5

        cost = pendulum.default_cost()
        x0s = np.array([[0.1, 0.0], [np.pi, 0.0]])
        got = rollout_returns(pendulum, Constant(), x0s, 30, cost)
        for x0, ret in zip(x0s, got):
            assert ret == simulate(pendulum, lambda obs: 0.5, x0, 30,
                                   cost=cost).cumulative_reward()


# -- pinned oracle: the RK4 step, wrap, dynamics and observe as they were
# written with np.stack / np.broadcast_arrays and a copying np.where wrap.
# The simulation must keep producing these exact bytes.

def _oracle_wrap_angle(theta):
    theta = np.asarray(theta, dtype=float)
    wrapped = np.pi - np.mod(np.pi - theta, 2.0 * np.pi)
    return np.where((theta > np.pi) | (theta <= -np.pi), wrapped, theta)


def _oracle_wrap(env, x):
    if not env.angle_indices:
        return x
    x = np.array(x, dtype=float, copy=True)
    for idx in env.angle_indices:
        x[..., idx] = _oracle_wrap_angle(x[..., idx])
    return x


def _oracle_dynamics(env, x, u):
    p = env.params
    if env.name == "pendulum":
        th = x[..., 0]
        dom = (p.m * p.g * p.l * np.sin(th) - u) / (p.m * p.l * p.l + p.I)
        om, dom = np.broadcast_arrays(x[..., 1], dom)
        return np.stack([om, dom], axis=-1)
    if env.name == "cartpole":
        xd = x[..., 1]
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
        xd, xdd, om, omd = np.broadcast_arrays(xd, xdd, om, omd)
        return np.stack([xd, xdd, om, omd], axis=-1)
    acc = p.g * np.sin(x[..., 0]) - u / p.M
    xd, acc = np.broadcast_arrays(x[..., 1], acc)
    return np.stack([xd, acc], axis=-1)


def _oracle_observe(env, x):
    if env.name == "pendulum":
        th = x[..., 0]
        return np.stack([np.cos(th), np.sin(th), x[..., 1]], axis=-1)
    if env.name == "cartpole":
        th = x[..., 2]
        return np.stack([x[..., 0], x[..., 1], np.cos(th), np.sin(th),
                         x[..., 3]], axis=-1)
    return np.asarray(x, dtype=float).copy()


def _oracle_step(env, x, u, extra_force=0.0, raise_on_divergence=True):
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if raise_on_divergence and not (np.all(np.isfinite(x))
                                    and np.all(np.isfinite(u))):
        raise NumericalDivergenceError("non-finite state or control entering step")
    u_eff = np.clip(u, -env.params.u_max, env.params.u_max) + extra_force
    dt = env.params.dt
    k1 = _oracle_dynamics(env, x, u_eff)
    k2 = _oracle_dynamics(env, x + 0.5 * dt * k1, u_eff)
    k3 = _oracle_dynamics(env, x + 0.5 * dt * k2, u_eff)
    k4 = _oracle_dynamics(env, x + dt * k3, u_eff)
    out = _oracle_wrap(env, x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    if raise_on_divergence and not np.all(np.isfinite(out)):
        raise NumericalDivergenceError("state diverged to non-finite values")
    return out


def _far_states(env, rng, shape):
    """States with every angle far outside (-pi, pi], some exactly on
    multiples of pi, and velocities up to a few rad/s."""
    x = 3.0 * rng.standard_normal((*shape, env.state_dim))
    for idx in env.angle_indices or (0,):
        x[..., idx] = rng.uniform(-30.0, 30.0, shape)
    flat = x.reshape(-1, env.state_dim)
    for i, k in enumerate((-3, -1, 1, 3, 5)[:flat.shape[0]]):
        flat[i, (env.angle_indices or (0,))[0]] = k * np.pi
    return x


def _oracle_cases(env):
    """(label, environment, x, u, extra_force, raise_on_divergence)"""
    rng = np.random.default_rng(11)
    u_max = env.params.u_max
    cases = [("far_batch", env, _far_states(env, rng, (32, 3)),
              rng.uniform(-2.0 * u_max, 2.0 * u_max, (32, 3)), 0.0, True)]
    for i, x in enumerate(_far_states(env, rng, (6,))):
        cases.append((f"one_row{i}", env, x, float(rng.uniform(-u_max, u_max)),
                      0.37 * (i - 2.5), True))
    factors = np.linspace(0.5, 5.0, 50)
    for param in ("mass", "g"):
        many = env.scaled(param, factors)
        cases.append((f"{param}_batch", many, _far_states(env, rng, (50,)),
                      rng.uniform(-u_max, u_max, 50), 0.0, True))
        cases.append((f"{param}_one_state", many, _far_states(env, rng, (1,))[0],
                      float(rng.uniform(-u_max, u_max)), 0.0, True))
    # every pair of entries set to +-NaN, +-inf or a finite value, so that
    # NaNs of both signs meet in the stage sums (x86 keeps the NaN of the
    # first operand, so the operand order of each sum shows in the bytes)
    special = (np.nan, -np.nan, np.inf, -np.inf, 0.3)
    rows = []
    for i in range(env.state_dim):
        for j in range(env.state_dim):
            for vi in special[:4]:
                for vj in special:
                    row = np.full(env.state_dim, 0.3)
                    row[i], row[j] = vi, vj
                    rows.append(row)
    x = np.array(rows)
    u = rng.uniform(-u_max, u_max, len(rows))
    u[::7] = np.nan
    u[3::7] = -np.nan
    u[5::11] = np.inf
    cases.append(("nonfinite", env, x, u, 0.0, False))
    cases.append(("nonfinite_forced", env, x, u, 0.7, False))
    return cases


@pytest.mark.parametrize("name", ["pendulum", "cartpole", "mountaincar"])
def test_step_matches_pinned_oracle(name):
    env = make_env(name)
    with np.errstate(all="ignore"):
        for label, model, x, u, force, strict in _oracle_cases(env):
            want = _oracle_step(model, x, u, force, strict)
            got = model.step(x, u, extra_force=force, raise_on_divergence=strict)
            assert got.shape == want.shape, label
            assert got.tobytes() == want.tobytes(), label
            u_eff = np.clip(np.asarray(u, dtype=float), -model.params.u_max,
                            model.params.u_max) + force
            assert model.dynamics(x, u_eff).tobytes() == \
                _oracle_dynamics(model, x, u_eff).tobytes(), label
            assert model.observe(x).tobytes() == _oracle_observe(model, x).tobytes(), label
            assert model.wrap(x).tobytes() == _oracle_wrap(model, x).tobytes(), label
