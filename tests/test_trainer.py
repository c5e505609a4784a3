import numpy as np
import pytest

from hybridctl import TrainConfig, rollout_return, simulate, train
from hybridctl.envs import CostSpec, reward
from hybridctl.policy import HybridPolicy, LinearPolicy, RbfPolicy, RelevanceParams
from hybridctl.trainer import (INIT_JITTER, _pack, _population_returns, _rbf_exponent,
                               baseline_hybrid, default_rbf, hold_at_target, make_hybrid)

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


def _population_case(env, mode, n_centers, train_lambda):
    """(thetas, template, env, cost, x0s, T, train_lambda) for 6 candidates
    around a fresh hybrid or baseline on ``env``."""
    rng = np.random.default_rng(n_centers)
    if mode == "hybrid":
        template = make_hybrid(env, synthesize_linear(env)[1], n_centers=n_centers, rng=rng)
    else:
        template = baseline_hybrid(env, n_centers=n_centers, rng=rng)
    mean = _pack(template, train_lambda)
    thetas = np.vstack([mean, mean + 3.0 * rng.standard_normal((5, mean.size))])
    x0s = env.init_state() + INIT_JITTER * rng.standard_normal((2, env.state_dim))
    return thetas, template, env, env.default_cost(), x0s, 30, train_lambda


@pytest.mark.parametrize("train_lambda", [True, False])
@pytest.mark.parametrize("n_centers", [1, 50, 200])
@pytest.mark.parametrize("mode", ["hybrid", "baseline"])
def test_population_returns_match_einsum_oracle(each_env, mode, n_centers, train_lambda):
    # the trainer expands the RBF exponent as a matrix product, which rounds
    # differently from the oracle's difference form: worst gap 3.3e-16
    args = _population_case(each_env, mode, n_centers, train_lambda)
    np.testing.assert_allclose(_population_returns(*args),
                               _einsum_population_returns(*args), rtol=1e-13, atol=0)


@pytest.mark.parametrize("mode", ["hybrid", "baseline"])
def test_candidate_score_does_not_depend_on_population(each_env, mode):
    # with one episode a lone candidate is scored as a single row, where a
    # plain 2-d product would take BLAS gemv instead of gemm
    thetas, template, env, cost, x0s, T, train_lambda = _population_case(
        each_env, mode, 200, True)
    rest = (template, env, cost, x0s[:1], T, train_lambda)
    scores = _population_returns(thetas, *rest)
    assert _population_returns(thetas[::-1], *rest)[::-1].tobytes() == scores.tobytes()
    for i in range(thetas.shape[0]):
        assert _population_returns(thetas[i:i + 1], *rest).tobytes() == scores[i:i + 1].tobytes()


def test_rbf_exponent_row_does_not_depend_on_batch(each_env):
    rbf = default_rbf(each_env, n_centers=200, rng=np.random.default_rng(5))
    lo, hi = each_env.obs_box()
    obs = np.random.default_rng(6).uniform(lo, hi, (32, 3, lo.size))
    exponent = _rbf_exponent(rbf.centers, rbf.scales)
    batch = exponent(obs)
    for p, e in np.ndindex(obs.shape[:2]):
        assert exponent(obs[p, e]).tobytes() == batch[p, e].tobytes()
        assert exponent(obs[p:p + 1, e:e + 1]).tobytes() == batch[p:p + 1, e:e + 1].tobytes()


def test_expanded_exponent_bounded_by_difference_form(each_env):
    rbf = default_rbf(each_env, n_centers=40, rng=np.random.default_rng(3))
    lo, hi = each_env.obs_box()
    rng = np.random.default_rng(4)
    obs = np.concatenate([
        rbf.centers,  # exact centers: the difference form gives 0
        rng.uniform(lo, hi, (64, lo.size)),
        rng.uniform(lo - 1e3 * (hi - lo), hi + 1e3 * (hi - lo), (64, lo.size)),
    ]).reshape(6, -1, lo.size)
    got = _rbf_exponent(rbf.centers, rbf.scales)(obs)
    so = obs * rbf.scales
    sc = rbf.centers * rbf.scales
    want = -0.5 * np.sum(((obs[..., None, :] - rbf.centers) * rbf.scales) ** 2, axis=-1)
    # first-order rounding bound of the two forms together; the measured gap
    # stays below 3 eps (||so||^2 + ||sc||^2)
    bound = (lo.size + 4) * np.finfo(float).eps * (
        np.sum(so * so, axis=-1)[..., None] + np.sum(sc * sc, axis=-1))
    assert got.shape == want.shape
    assert np.all(got <= 0.0)
    assert np.all(np.abs(got - want) <= bound)


class _EightObservations:
    """The pendulum seen through 8 observation features: its own three and
    five fixed mixtures of them."""

    def __init__(self, env):
        self.env = env
        self.mix = np.random.default_rng(8).standard_normal((3, 5))

    def observe(self, x):
        obs = self.env.observe(x)
        return np.concatenate([obs, obs @ self.mix], axis=-1)

    def step(self, x, u):
        return self.env.step(x, u)


def test_population_returns_score_eight_observation_dims(pendulum):
    d = 8
    rng = np.random.default_rng(8)
    template = HybridPolicy(
        linear=LinearPolicy(W=0.1 * rng.standard_normal((1, d)), b=np.zeros(1)),
        nonlinear=RbfPolicy(centers=rng.uniform(-1, 1, (20, d)), scales=np.full(d, 1.5),
                            weights=rng.standard_normal((20, 1)), u_max=2.0),
        relevance=RelevanceParams(a=np.zeros(d), lam=np.ones(d)))
    mean = _pack(template, True)
    thetas = np.vstack([mean, mean + rng.standard_normal((3, mean.size))])
    cost = CostSpec(a=np.zeros(d), K=np.ones(d), k=0.01)
    x0s = pendulum.init_state() + INIT_JITTER * rng.standard_normal((2, pendulum.state_dim))
    args = (thetas, template, _EightObservations(pendulum), cost, x0s, 20, True)
    got = _population_returns(*args)
    assert np.all(np.isfinite(got))
    np.testing.assert_allclose(got, _einsum_population_returns(*args), rtol=1e-13, atol=0)
