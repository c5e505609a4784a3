import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hybridctl import (
    HybridPolicy,
    LinearPolicy,
    PolicyParseError,
    PolicyVersionError,
    RbfPolicy,
    RelevanceParams,
    deserialize,
    hybrid_action,
    jacobian_state,
    relevance,
    scaled_distance,
    serialize,
)
from hybridctl.policy import (
    check_nonlinear_limit,
    clone_policy,
    finite_difference_jacobian,
    property_report,
    relevance_grad,
)


def random_hybrid(seed=0, d=3, n=12, u_max=2.0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(d)
    return HybridPolicy(
        linear=LinearPolicy(W=rng.standard_normal((1, d)), b=rng.standard_normal(1)),
        nonlinear=RbfPolicy(
            centers=a + rng.uniform(-2, 2, (n, d)),
            scales=rng.uniform(0.3, 2.0, d),
            weights=rng.standard_normal((n, 1)),
            u_max=u_max,
        ),
        relevance=RelevanceParams(a=a, lam=rng.uniform(0.2, 3.0, d)),
        env_name="pendulum",
    )


finite_vecs = st.lists(st.floats(-5, 5), min_size=2, max_size=2).map(np.asarray)
pos_vecs = st.lists(st.floats(0.01, 50), min_size=2, max_size=2).map(np.asarray)


class TestScaledDistance:
    def test_zero_at_operating_point(self):
        rel = RelevanceParams(a=[0.5, -1.0], lam=[1.0, 4.0])
        assert scaled_distance(np.array([0.5, -1.0]), rel) == 0.0

    def test_direct_evaluation(self):
        # weights multiply the squared deviations per dimension
        rel = RelevanceParams(a=[0.0, 0.0], lam=[1.0, 0.25])
        assert scaled_distance(np.array([1.0, 2.0]), rel) == 2.0

    @given(x=finite_vecs, lam=pos_vecs)
    @settings(max_examples=50, deadline=None)
    def test_nonnegative_and_homogeneous(self, x, lam):
        rel = RelevanceParams(a=np.zeros(2), lam=lam)
        doubled = RelevanceParams(a=np.zeros(2), lam=2.0 * lam)
        d = scaled_distance(x, rel)
        assert d >= 0.0
        np.testing.assert_allclose(scaled_distance(x, doubled), 2.0 * d,
                                   rtol=1e-12, atol=0)

    def test_homogeneous_when_square_underflows(self):
        # 1.83e-159 squared is subnormal; doubling lam must still double d
        x = np.array([0.0, 1.8278732977481716e-159])
        for lam in ([1.0, 1.0], [0.5, 0.5], [0.01, 0.01]):
            rel = RelevanceParams(a=np.zeros(2), lam=lam)
            doubled = RelevanceParams(a=np.zeros(2), lam=2.0 * np.asarray(lam))
            assert scaled_distance(x, doubled) == 2.0 * scaled_distance(x, rel)

    def test_nonpositive_lambda_rejected(self):
        with pytest.raises(ValueError):
            RelevanceParams(a=[0.0], lam=[0.0])
        with pytest.raises(ValueError):
            RelevanceParams(a=[0.0, 0.0], lam=[1.0, -2.0])

    def test_dimension_mismatch_rejected(self):
        rel = RelevanceParams(a=[0.0, 0.0], lam=[1.0, 1.0])
        with pytest.raises(ValueError):
            scaled_distance(np.zeros(3), rel)


class TestRelevance:
    def test_one_at_operating_point_exactly(self):
        rel = RelevanceParams(a=[1.0, -2.0], lam=[3.0, 0.5])
        assert relevance(np.array([1.0, -2.0]), rel) == 1.0

    def test_direct_value_at_distance_two(self):
        rel = RelevanceParams(a=[0.0, 0.0], lam=[1.0, 0.25])
        r = relevance(np.array([1.0, 2.0]), rel)  # d = 2
        np.testing.assert_allclose(r, 1.0 / 9.0, rtol=0, atol=1e-15)

    @given(x=finite_vecs, lam=pos_vecs)
    @settings(max_examples=50, deadline=None)
    def test_range(self, x, lam):
        rel = RelevanceParams(a=np.zeros(2), lam=lam)
        r = relevance(x, rel)
        assert 0.0 < r <= 1.0
        # strictly below 1 whenever the distance survives fp rounding of 1+d
        if 1.0 + scaled_distance(x, rel) > 1.0:
            assert r < 1.0

    def test_finite_difference_gradient_zero_at_a(self):
        rel = RelevanceParams(a=[0.3, -0.7, 1.1], lam=[2.0, 0.5, 1.0])
        fd = finite_difference_jacobian(
            lambda y: np.atleast_1d(relevance(y, rel)), rel.a, h=1e-5)
        assert np.max(np.abs(fd)) < 1e-6

    def test_analytic_gradient_matches_fd(self):
        rel = RelevanceParams(a=[0.3, -0.7], lam=[2.0, 0.5])
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = rng.standard_normal(2)
            fd = finite_difference_jacobian(
                lambda y: np.atleast_1d(relevance(y, rel)), x, h=1e-6)
            np.testing.assert_allclose(relevance_grad(x, rel), fd.ravel(),
                                       rtol=1e-5, atol=1e-8)

    @given(v=finite_vecs, t=st.floats(0.0, 10.0), dt=st.floats(0.0, 5.0))
    @settings(max_examples=60, deadline=None)
    def test_monotone_along_rays(self, v, t, dt):
        rel = RelevanceParams(a=np.array([0.5, -0.5]), lam=np.array([1.5, 0.7]))
        r_near = relevance(rel.a + t * v, rel)
        r_far = relevance(rel.a + (t + dt) * v, rel)
        assert r_far <= r_near + 1e-15


class TestRbf:
    def test_zero_weights_give_zero(self):
        h = RbfPolicy(centers=np.zeros((4, 2)), scales=[1.0, 1.0],
                      weights=np.zeros((4, 1)), u_max=2.0)
        rng = np.random.default_rng(0)
        assert np.all(h.action(rng.standard_normal((10, 2))) == 0.0)

    def test_single_center_closed_form(self):
        # center exactly at the query: phi = 1, output = u_max tanh(w/u_max)
        x = np.array([0.4, -0.2])
        h = RbfPolicy(centers=x.reshape(1, -1), scales=[1.3, 0.7],
                      weights=[[1.0]], u_max=2.0)
        np.testing.assert_allclose(h.action(x), 2.0 * np.tanh(0.5),
                                   rtol=0, atol=1e-15)

    def test_output_bounded_by_u_max(self):
        rng = np.random.default_rng(1)
        h = RbfPolicy(centers=rng.standard_normal((30, 3)),
                      scales=rng.uniform(0.5, 2, 3),
                      weights=100.0 * rng.standard_normal((30, 1)), u_max=1.5)
        out = h.action(rng.standard_normal((200, 3)))
        assert np.all(np.abs(out) <= 1.5)

    def test_jacobian_matches_fd(self):
        pol = random_hybrid(4)
        rng = np.random.default_rng(5)
        for _ in range(5):
            x = rng.standard_normal(3)
            fd = finite_difference_jacobian(pol.nonlinear.action, x)
            np.testing.assert_allclose(pol.nonlinear.jacobian(x), fd,
                                       rtol=0, atol=1e-8)


class TestHybridAction:
    def test_equals_linear_at_a_bitwise(self):
        for seed in range(5):
            pol = random_hybrid(seed)
            a = pol.relevance.a
            assert np.array_equal(hybrid_action(a, pol), pol.linear.action(a))

    @pytest.mark.parametrize("rows", [2, 7, 50, 96])
    def test_batch_rows_equal_lone_rows_bitwise(self, rows):
        # a plain 2-d BLAS product rounds a row differently inside a batch
        pol = random_hybrid(4, n=50)
        x = pol.relevance.a + np.random.default_rng(rows).standard_normal((rows, 3))
        lone = np.array([hybrid_action(row, pol) for row in x])
        assert np.array_equal(hybrid_action(x, pol), lone)

    def test_interpolation_arithmetic(self):
        # r = 1/9 (d = 2), G = 3, H = -6  ->  pi = 3/9 - 48/9 = -5
        a = np.zeros(2)
        x = np.array([1.0, 1.0])
        u_max = 10.0
        lin = LinearPolicy(W=[[3.0, 0.0]], b=[0.0])
        rbf = RbfPolicy(centers=x.reshape(1, -1), scales=[1.0, 1.0],
                        weights=[[u_max * np.arctanh(-0.6)]], u_max=u_max)
        pol = HybridPolicy(linear=lin, nonlinear=rbf,
                           relevance=RelevanceParams(a=a, lam=[1.0, 1.0]))
        assert relevance(x, pol.relevance) == pytest.approx(1.0 / 9.0, abs=1e-15)
        assert pol.linear.action(x)[0] == pytest.approx(3.0, abs=1e-15)
        assert pol.nonlinear.action(x)[0] == pytest.approx(-6.0, abs=1e-12)
        assert hybrid_action(x, pol)[0] == pytest.approx(-5.0, abs=1e-11)

    @given(seed=st.integers(0, 30), idx=st.integers(0, 99))
    @settings(max_examples=40, deadline=None)
    def test_convex_combination_bound(self, seed, idx):
        pol = random_hybrid(seed % 5)
        x = pol.relevance.a + np.random.default_rng(seed * 100 + idx).standard_normal(3)
        g = pol.linear.action(x)
        h = pol.nonlinear.action(x)
        pi = hybrid_action(x, pol)
        slack = 1e-12 * (1.0 + np.abs(g) + np.abs(h))
        assert np.all(pi >= np.minimum(g, h) - slack)
        assert np.all(pi <= np.maximum(g, h) + slack)

    def test_nonlinear_limit(self):
        pol = random_hybrid(2)
        rng = np.random.default_rng(9)
        samples = pol.relevance.a + rng.standard_normal((500, 3))
        assert check_nonlinear_limit(pol, samples) <= 1e-4

    def test_limit_pointwise_value(self):
        # lam = 1e8 at unit distance: r ~ 1e-16, so pi is H to full precision
        pol = random_hybrid(3)
        x = pol.relevance.a + np.array([1.0, 0.0, 0.0])
        pinned = clone_policy(pol)
        pinned.relevance.lam = np.full(3, 1e8)
        h = pol.nonlinear.action(x)
        assert np.max(np.abs(hybrid_action(x, pinned) - h)) <= 1e-4 * (1 + np.max(np.abs(h)))


class TestJacobian:
    def test_equals_W_at_a(self):
        for seed in range(5):
            pol = random_hybrid(seed)
            jac = jacobian_state(pol.relevance.a, pol)
            assert np.max(np.abs(jac - pol.linear.W)) <= 1e-10

    def test_matches_finite_differences(self):
        pol = random_hybrid(1)
        rng = np.random.default_rng(11)
        for _ in range(10):
            x = pol.relevance.a + rng.standard_normal(3)
            fd = finite_difference_jacobian(lambda y: hybrid_action(y, pol), x)
            assert np.max(np.abs(jacobian_state(x, pol) - fd)) <= 1e-5

    def test_far_field_with_zero_rbf(self):
        # zero H and huge lambda: the policy is r*G with r ~ 0, so the
        # Jacobian far from a nearly vanishes and still matches FD
        pol = random_hybrid(6)
        pol.nonlinear.weights[:] = 0.0
        pol.relevance.lam = np.full(3, 1e6)
        x = pol.relevance.a + np.array([2.0, -1.0, 1.0])
        fd = finite_difference_jacobian(lambda y: hybrid_action(y, pol), x)
        jac = jacobian_state(x, pol)
        assert np.max(np.abs(jac - fd)) <= 1e-5
        assert np.max(np.abs(jac)) < 1e-3


class TestSerialization:
    def test_round_trip_bit_exact(self):
        pol = random_hybrid(13)
        out = deserialize(serialize(pol))
        assert np.array_equal(out.linear.W, pol.linear.W)
        assert np.array_equal(out.linear.b, pol.linear.b)
        assert np.array_equal(out.nonlinear.centers, pol.nonlinear.centers)
        assert np.array_equal(out.nonlinear.scales, pol.nonlinear.scales)
        assert np.array_equal(out.nonlinear.weights, pol.nonlinear.weights)
        assert np.array_equal(out.relevance.a, pol.relevance.a)
        assert np.array_equal(out.relevance.lam, pol.relevance.lam)
        assert out.nonlinear.u_max == pol.nonlinear.u_max
        assert out.env_name == pol.env_name

    def test_round_trip_survives_reserialization(self):
        pol = random_hybrid(14)
        text = serialize(pol)
        assert serialize(deserialize(text)) == text

    def test_truncated_file_reports_line(self):
        text = serialize(random_hybrid(0))
        cut = "\n".join(text.splitlines()[:10])
        with pytest.raises(PolicyParseError) as err:
            deserialize(cut)
        assert err.value.line >= 10

    def test_version_mismatch(self):
        text = serialize(random_hybrid(0)).replace(
            "hybrid-policy-v1", "hybrid-policy-v9", 1)
        with pytest.raises(PolicyVersionError):
            deserialize(text)

    def test_not_a_policy_file(self):
        with pytest.raises(PolicyParseError):
            deserialize("t,theta\n0,1\n")

    def test_wrong_row_width_reports_line(self):
        lines = serialize(random_hybrid(0)).splitlines()
        w_header = next(i for i, l in enumerate(lines) if l.startswith("W "))
        lines[w_header + 1] = "1.0 2.0"  # W row is 3 wide
        with pytest.raises(PolicyParseError) as err:
            deserialize("\n".join(lines))
        assert err.value.line == w_header + 2

    def test_invalid_lambda_rejected_on_load(self):
        text = serialize(random_hybrid(0))
        lines = text.splitlines()
        lam_header = next(i for i, l in enumerate(lines) if l.startswith("lambda "))
        lines[lam_header + 1] = "-1.0 1.0 1.0"
        with pytest.raises(ValueError):
            deserialize("\n".join(lines))

    def test_comments_are_ignored(self):
        text = serialize(random_hybrid(0), comments=["config_hash=abc seed=1"])
        assert deserialize(text).env_name == "pendulum"


class TestPropertyReport:
    def test_all_pass_on_fresh_policy(self):
        results = property_report(random_hybrid(21))
        assert all(r.passed for r in results)
        names = {r.name for r in results}
        assert "pi_at_a_equals_linear" in names
        assert "nonlinear_limit" in names

    def test_detects_eventual_nan(self):
        pol = random_hybrid(22)
        pol.linear.W = pol.linear.W.copy()
        # bypass the constructor guard deliberately to mimic file corruption
        pol.linear.W[0, 0] = np.nan
        results = property_report(pol)
        assert not all(r.passed for r in results)
