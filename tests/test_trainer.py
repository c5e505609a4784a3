import numpy as np
import pytest

from hybridctl import TrainConfig, rollout_return, simulate, train
from hybridctl.envs import reward
from hybridctl.policy import HybridPolicy, LinearPolicy, RbfPolicy, RelevanceParams
from hybridctl.trainer import (INIT_JITTER, MAX_LANE_DIM, _lane_sum, _pack,
                               _population_returns, baseline_hybrid, default_rbf,
                               hold_at_target, make_hybrid)

from conftest import synthesize_linear


def tiny_config(**kwargs):
    base = dict(population=4, elite_frac=0.5, init_std=0.5, std_decay=0.9,
                iterations=2, episodes_per_candidate=2, horizon=40, seed=0)
    base.update(kwargs)
    return TrainConfig(**base)


class TestRolloutReturn:
    def test_deterministic_without_seed(self, pendulum, pendulum_linear_only):
        cost = pendulum.default_cost()
        x0 = pendulum.init_state()
        a = rollout_return(pendulum_linear_only, pendulum, cost, x0, 50)
        b = rollout_return(pendulum_linear_only, pendulum, cost, x0, 50)
        assert a == b

    def test_deterministic_given_seed(self, pendulum, pendulum_linear_only):
        cost = pendulum.default_cost()
        x0 = pendulum.init_state()
        a = rollout_return(pendulum_linear_only, pendulum, cost, x0, 50,
                           seed=11, jitter=0.05)
        b = rollout_return(pendulum_linear_only, pendulum, cost, x0, 50,
                           seed=11, jitter=0.05)
        c = rollout_return(pendulum_linear_only, pendulum, cost, x0, 50,
                           seed=12, jitter=0.05)
        assert a == b
        assert a != c

    def test_zero_policy_matches_direct_simulation(self, pendulum):
        # independent accumulation: step the env by hand and sum the
        # quadratic stage costs
        cost = pendulum.default_cost()
        zero = LinearPolicy(W=np.zeros((1, 3)), b=np.zeros(1))

        x = pendulum.init_state()
        expected = 0.0
        for _ in range(100):
            obs = pendulum.observe(x)
            diff = obs - cost.a
            expected += -float(np.sum(cost.K * diff * diff))
            x = pendulum.step(x, 0.0)

        got = rollout_return(zero, pendulum, cost, pendulum.init_state(), 100)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got < -350.0  # hanging costs about -4 per step

    def test_stabilized_near_target_costs_little(self, pendulum, pendulum_linear):
        cost = pendulum.default_cost()
        x0 = np.array([np.deg2rad(1.0), 0.0])
        ret = rollout_return(pendulum_linear, pendulum, cost, x0, 400)
        assert -0.05 < ret <= 0.0


class TestTrain:
    def test_reproducible_bitwise(self, pendulum, pendulum_hybrid):
        cfg = tiny_config()
        best1, rep1 = train(pendulum_hybrid, cfg, pendulum)
        best2, rep2 = train(pendulum_hybrid, cfg, pendulum)
        assert rep1.rows == rep2.rows
        assert np.array_equal(best1.nonlinear.weights, best2.nonlinear.weights)
        assert np.array_equal(best1.relevance.lam, best2.relevance.lam)

    def test_seed_changes_outcome(self, pendulum, pendulum_hybrid):
        _, rep1 = train(pendulum_hybrid, tiny_config(seed=0), pendulum)
        _, rep2 = train(pendulum_hybrid, tiny_config(seed=1), pendulum)
        assert rep1.rows != rep2.rows

    def test_best_seen_monotone(self, pendulum, pendulum_hybrid):
        _, rep = train(pendulum_hybrid, tiny_config(iterations=6), pendulum)
        best = [row[1] for row in rep.rows]
        assert all(b2 >= b1 for b1, b2 in zip(best, best[1:]))

    def test_frozen_parts_bit_identical(self, pendulum, pendulum_hybrid):
        w_before = pendulum_hybrid.linear.W.copy()
        b_before = pendulum_hybrid.linear.b.copy()
        a_before = pendulum_hybrid.relevance.a.copy()
        best, _ = train(pendulum_hybrid, tiny_config(), pendulum)
        assert np.array_equal(pendulum_hybrid.linear.W, w_before)
        assert np.array_equal(best.linear.W, w_before)
        assert np.array_equal(best.linear.b, b_before)
        assert np.array_equal(best.relevance.a, a_before)

    def test_lambda_stays_positive(self, pendulum, pendulum_hybrid):
        best, _ = train(pendulum_hybrid, tiny_config(init_std=5.0, iterations=4),
                        pendulum)
        assert np.all(best.relevance.lam > 0.0)

    def test_lambda_frozen_when_disabled(self, pendulum, pendulum_hybrid):
        best, _ = train(pendulum_hybrid, tiny_config(train_lambda=False), pendulum)
        assert np.array_equal(best.relevance.lam, pendulum_hybrid.relevance.lam)

    def test_interaction_time_accounting_exact(self, pendulum, pendulum_hybrid):
        cfg = tiny_config(iterations=3)
        _, rep = train(pendulum_hybrid, cfg, pendulum)
        episodes = cfg.population * cfg.episodes_per_candidate * cfg.iterations
        assert rep.episodes_evaluated == episodes
        assert rep.sim_time_s == episodes * cfg.horizon * pendulum.params.dt
        # per-iteration accounting is cumulative and exact too
        assert rep.rows[-1][3] == rep.sim_time_s

    def test_baseline_trains_without_linear_part(self, pendulum):
        start = baseline_hybrid(pendulum, n_centers=8,
                                rng=np.random.default_rng(0))
        cfg = tiny_config(train_lambda=False)
        best, rep = train(start, cfg, pendulum)
        assert np.all(best.linear.W == 0.0)
        assert np.isfinite(rep.best_return)

    def test_improvement_callback_fires(self, pendulum, pendulum_hybrid):
        seen = []
        train(pendulum_hybrid, tiny_config(), pendulum,
              on_improvement=lambda it, pol: seen.append(it))
        assert seen, "at least the first iteration must improve on -inf"
        assert seen == sorted(seen)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(population=2)
        with pytest.raises(ValueError):
            TrainConfig(elite_frac=1.5)
        with pytest.raises(ValueError):
            TrainConfig(init_std=0.0)

    @pytest.mark.parametrize("name", ["elite_frac", "init_std", "std_decay"])
    def test_config_rejects_nan(self, name):
        with pytest.raises(ValueError):
            TrainConfig(**{name: float("nan")})


class TestHoldAtTarget:
    def test_zero_policy_fails(self, pendulum):
        zero = LinearPolicy(W=np.zeros((1, 3)), b=np.zeros(1))
        assert not hold_at_target(zero, pendulum, T=100)

    def test_linear_policy_from_upright_holds(self, pendulum, pendulum_linear_only):
        # start at the target: the hold check passes trivially for the
        # stabilizing controller
        traj = simulate(pendulum, pendulum_linear_only.action,
                        pendulum.operating_state(), 100)
        assert np.all(np.abs(traj.monitored(pendulum)) < np.deg2rad(5.0))


class TestBuilders:
    def test_default_rbf_dimensions(self, each_env):
        rbf = default_rbf(each_env, n_centers=17, rng=np.random.default_rng(1))
        assert rbf.centers.shape == (17, each_env.obs_dim)
        assert rbf.weights.shape == (17, 1)
        assert rbf.u_max == each_env.params.u_max
        lo, hi = each_env.obs_box()
        assert np.all(rbf.centers >= lo) and np.all(rbf.centers <= hi)

    def test_make_hybrid_identity_lambda(self, pendulum, pendulum_linear):
        pol = make_hybrid(pendulum, pendulum_linear, rng=np.random.default_rng(2))
        np.testing.assert_array_equal(pol.relevance.lam, np.ones(3))
        np.testing.assert_array_equal(pol.relevance.a, [1.0, 0.0, 0.0])
        assert pol.env_name == "pendulum"

    def test_fresh_hybrid_actions_are_mild(self, pendulum, pendulum_linear):
        pol = make_hybrid(pendulum, pendulum_linear, rng=np.random.default_rng(3))
        rng = np.random.default_rng(4)
        lo, hi = pendulum.obs_box()
        obs = rng.uniform(lo, hi, (200, 3))
        h = pol.nonlinear.action(obs)
        assert np.max(np.abs(h)) < 0.25 * pendulum.params.u_max


class TestDivergenceTruncation:
    def test_rollout_return_accumulates_up_to_cutoff(self, pendulum):
        cost = pendulum.default_cost()

        class NanAfter:
            def __init__(self, k):
                self.k = k
                self.n = 0

            def action(self, obs):
                self.n += 1
                return np.nan if self.n > self.k else 0.0

        # the truncated return equals the direct parallel accumulation
        x = pendulum.init_state()
        expected = 0.0
        for _ in range(10):
            obs = pendulum.observe(x)
            diff = obs - cost.a
            expected += -float(np.sum(cost.K * diff * diff))
            x = pendulum.step(x, 0.0)

        got = rollout_return(NanAfter(10), pendulum, cost, pendulum.init_state(),
                             50, truncate_on_divergence=True)
        assert got == pytest.approx(expected, rel=1e-12)


def test_train_report_matches_pinned_rows(pendulum, pendulum_hybrid):
    # rows taken before the evaluation path was batched; training must not move
    cfg = TrainConfig(population=4, iterations=2, horizon=30,
                      episodes_per_candidate=2, seed=5)
    _, report = train(pendulum_hybrid, cfg, pendulum)
    assert report.rows == [(0, -118.75136749976309, -119.64551262849537, 12.0),
                           (1, -118.75136749976309, -118.8048973448793, 24.0)]


def _einsum_population_returns(thetas, template, env, cost, x0s, T, train_lambda):
    """Oracle: the trainer's population scoring as it was written before the
    RBF exponent was laid out one dimension at a time (einsum over d)."""
    P = thetas.shape[0]
    E, n = x0s.shape
    n_w = template.nonlinear.weights.size
    w_pop = thetas[:, :n_w].reshape(P, -1)  # (P, N), F = 1
    lam_pop = (np.exp(thetas[:, n_w:]) if train_lambda
               else np.broadcast_to(template.relevance.lam, (P, template.obs_dim)))
    centers = template.nonlinear.centers
    scales = template.nonlinear.scales
    a = template.relevance.a
    w_lin = template.linear.W[0]
    b_lin = template.linear.b[0]
    u_max = template.nonlinear.u_max

    x = np.broadcast_to(x0s, (P, E, n)).copy()
    total = np.zeros((P, E))
    for _ in range(T):
        obs = env.observe(x)  # (P, E, D)
        z = (obs[:, :, None, :] - centers) * scales
        feats = np.exp(-0.5 * np.einsum("pend,pend->pen", z, z))
        raw = np.einsum("pen,pn->pe", feats, w_pop)
        h = u_max * np.tanh(raw / u_max)
        g = obs @ w_lin + b_lin
        diff = obs - a
        dd = np.einsum("ped,pd->pe", diff * diff, lam_pop)
        r = 1.0 / (1.0 + dd) ** 2
        u = np.clip(r * g + (1.0 - r) * h, -u_max, u_max)
        total += reward(obs, u, cost)
        x = env.step(x, u)
    return total.mean(axis=1)


@pytest.mark.parametrize("train_lambda", [True, False])
@pytest.mark.parametrize("n_centers", [1, 50, 200])
@pytest.mark.parametrize("mode", ["hybrid", "baseline"])
def test_population_returns_match_einsum_oracle(each_env, mode, n_centers, train_lambda):
    rng = np.random.default_rng(n_centers)
    if mode == "hybrid":
        template = make_hybrid(each_env, synthesize_linear(each_env)[1],
                               n_centers=n_centers, rng=rng)
    else:
        template = baseline_hybrid(each_env, n_centers=n_centers, rng=rng)
    mean = _pack(template, train_lambda)
    thetas = np.vstack([mean, mean + 3.0 * rng.standard_normal((5, mean.size))])
    x0s = each_env.init_state() + INIT_JITTER * rng.standard_normal((2, each_env.state_dim))
    cost = each_env.default_cost()
    args = (thetas, template, each_env, cost, x0s, 30, train_lambda)
    got = _population_returns(*args)
    want = _einsum_population_returns(*args)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("D", range(1, MAX_LANE_DIM + 1))
def test_lane_sum_matches_einsum_bitwise(D):
    rng = np.random.default_rng(D)
    z = rng.choice([-1.0, 1.0], (4, 3, 64, D)) * np.exp(rng.uniform(-20, 20, (4, 3, 64, D)))
    slabs = np.moveaxis(z * z, -1, 0).copy()
    want = np.einsum("...d,...d->...", z, z)
    assert _lane_sum(slabs).tobytes() == want.tobytes()


def test_population_returns_rejects_eight_observation_dims(pendulum):
    d = MAX_LANE_DIM + 1
    template = HybridPolicy(
        linear=LinearPolicy(W=np.zeros((1, d)), b=np.zeros(1)),
        nonlinear=RbfPolicy(centers=np.zeros((3, d)), scales=np.ones(d),
                            weights=np.zeros((3, 1)), u_max=1.0),
        relevance=RelevanceParams(a=np.zeros(d), lam=np.ones(d)))
    thetas = _pack(template, True)[None, :]
    with pytest.raises(NotImplementedError, match="observation dimensions"):
        _population_returns(thetas, template, pendulum, pendulum.default_cost(),
                            np.zeros((1, 2)), 5, True)
