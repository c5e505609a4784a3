import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hybridctl import (
    extract_metrics,
    impulse_response,
    robustness_sweep,
    rollout_return,
    step_response,
)
from hybridctl.analysis import (
    default_impulse_magnitude,
    default_step_magnitude,
    write_metrics_table,
)
from hybridctl.policy import LinearPolicy

from conftest import synthesize_linear


class TestExtractMetrics:
    def test_constant_at_target(self):
        m = extract_metrics(np.full(100, 2.5), 2.5, band=0.1)
        assert (m.steady_state_error, m.overshoot, m.settling_time) == (0.0, 0.0, 0)
        assert m.settled and not m.crossed_target

    def test_exponential_settling_closed_form(self):
        # e^{ -t / tau } crosses the 2% band for good at ceil(tau ln 50)
        tau = 7.3
        t = np.arange(400, dtype=float)
        signal = np.exp(-t / tau)
        m = extract_metrics(signal, 0.0, band=0.02)
        assert m.settling_time == int(np.ceil(tau * np.log(50.0)))
        assert m.settled
        assert not m.crossed_target  # monotone decay never crosses zero
        assert m.overshoot == 0.0

    def test_damped_sinusoid_overshoot_closed_form(self):
        # y = e^{-c t} cos(w t): the overshoot is the first undershoot
        # amplitude; the oracle evaluates the same closed form on the grid
        c, w = 0.02, 0.25
        t = np.arange(600, dtype=float)
        y = np.exp(-c * t) * np.cos(w * t)
        m = extract_metrics(y, 0.0, band=0.5)
        undershoot = np.maximum(0.0, -y)
        assert m.overshoot == float(np.max(undershoot))
        # and it approximates the continuous first-trough envelope
        assert m.overshoot == pytest.approx(np.exp(-c * np.pi / w), rel=1e-2)
        assert m.crossed_target

    def test_never_settles_is_flagged(self):
        t = np.arange(200, dtype=float)
        m = extract_metrics(np.cos(0.3 * t), 0.0, band=0.05)
        assert not m.settled
        assert m.settling_time == 200

    def test_steady_state_error_is_tail_mean(self):
        signal = np.concatenate([np.linspace(1, 0.2, 90), np.full(10, 0.2)])
        m = extract_metrics(signal, 0.0, band=0.5)
        assert m.steady_state_error == pytest.approx(0.2, abs=1e-12)

    dyadic = st.integers(-256, 256).map(lambda k: k / 64.0)

    @given(values=st.lists(dyadic, min_size=5, max_size=40),
           shift=st.integers(-64, 64).map(lambda k: k / 4.0),
           target=dyadic)
    @settings(max_examples=60, deadline=None)
    def test_translation_consistency(self, values, shift, target):
        # dyadic inputs make (y + c) - (t + c) bit-exact, so every metric
        # must match exactly
        signal = np.asarray(values)
        m0 = extract_metrics(signal, target, band=0.25)
        m1 = extract_metrics(signal + shift, target + shift, band=0.25)
        assert m0.steady_state_error == m1.steady_state_error
        assert m0.overshoot == m1.overshoot
        assert m0.settling_time == m1.settling_time
        assert m0.settled == m1.settled

    def test_empty_trajectory_rejected(self):
        with pytest.raises(ValueError):
            extract_metrics(np.array([]), 0.0, band=0.1)
        with pytest.raises(ValueError):
            extract_metrics(np.zeros(5), 0.0, band=0.0)


class TestImpulseResponse:
    def test_linear_pendulum_steady_state_error(self, pendulum, pendulum_linear_only):
        traj, m = impulse_response(pendulum_linear_only, pendulum)
        assert m.units == "deg"
        assert abs(m.steady_state_error) < 1e-6
        assert m.settled
        assert not m.diverged

    def test_hybrid_matches_linear_settling(self, pendulum, pendulum_hybrid,
                                            pendulum_linear_only):
        _, m_lin = impulse_response(pendulum_linear_only, pendulum)
        _, m_hyb = impulse_response(pendulum_hybrid, pendulum)
        assert abs(m_hyb.settling_time - m_lin.settling_time) <= 2
        assert abs(m_hyb.steady_state_error) < 1e-6
        assert abs(m_hyb.overshoot - m_lin.overshoot) <= 0.05

    def test_zero_gain_never_settles(self, pendulum):
        zero = LinearPolicy(W=np.zeros((1, 3)), b=np.zeros(1))
        _, m = impulse_response(zero, pendulum)
        assert not m.settled

    def test_relevance_stays_high_through_response(self, pendulum, pendulum_hybrid):
        from hybridctl import relevance
        traj, _ = impulse_response(pendulum_hybrid, pendulum)
        r = relevance(traj.observations, pendulum_hybrid.relevance)
        assert np.min(r) > 0.9

    def test_magnitude_recorded_default(self, pendulum):
        assert default_impulse_magnitude(pendulum) == pendulum.params.u_max
        assert default_step_magnitude(pendulum) == 0.1 * pendulum.params.u_max


class TestStepResponse:
    def test_zero_magnitude_stays_at_operating_point(self, pendulum,
                                                      pendulum_linear_only):
        traj, m = step_response(pendulum_linear_only, pendulum, magnitude=0.0)
        assert np.all(traj.states == 0.0)
        assert (m.steady_state_error, m.overshoot, m.settling_time) == (0.0, 0.0, 0)

    def test_offset_matches_closed_form(self, pendulum):
        # steady state of (A - B K) x + B w = 0, compared against the
        # simulated tail for a small sustained disturbance
        gain, lin = synthesize_linear(pendulum)
        sys = pendulum.analytic_linearization()
        w = 0.02
        x_ss = np.linalg.solve(sys.A - sys.B @ gain.K, (-sys.B * w).ravel())
        traj, _ = step_response(lin, pendulum, magnitude=w)
        theta_tail = traj.monitored(pendulum)[-40:].mean()
        assert theta_tail == pytest.approx(x_ss[0], rel=0.05, abs=1e-5)
        assert abs(theta_tail) > 1e-6  # genuinely nonzero offset

    def test_hybrid_tracks_linear_pointwise(self, pendulum, pendulum_hybrid,
                                            pendulum_linear_only):
        t_lin, _ = step_response(pendulum_linear_only, pendulum)
        t_hyb, _ = step_response(pendulum_hybrid, pendulum)
        gap = np.max(np.abs(t_lin.monitored(pendulum) - t_hyb.monitored(pendulum)))
        assert gap < 1e-3  # radians


class TestRobustnessSweep:
    def test_factor_one_reproduces_nominal(self, pendulum, pendulum_linear_only):
        cost = pendulum.default_cost()
        curve = robustness_sweep(pendulum_linear_only, pendulum, "mass",
                                 [1.0], seeds=4, cost=cost, horizon=60)
        direct = np.array([
            rollout_return(pendulum_linear_only, pendulum, cost,
                           pendulum.operating_state(), 60, seed=s, jitter=0.01,
                           truncate_on_divergence=True)
            for s in range(4)
        ])
        assert curve.mean_reward[0] == direct.mean()
        assert curve.std_reward[0] == direct.std()

    def test_bit_reproducible(self, pendulum, pendulum_linear_only):
        kwargs = dict(factors=[0.5, 1.0, 2.0], seeds=3, horizon=50)
        c1 = robustness_sweep(pendulum_linear_only, pendulum, "g", **kwargs)
        c2 = robustness_sweep(pendulum_linear_only, pendulum, "g", **kwargs)
        assert np.array_equal(c1.mean_reward, c2.mean_reward)
        assert np.array_equal(c1.std_reward, c2.std_reward)

    def test_curve_shapes(self, pendulum, pendulum_linear_only):
        factors = [0.5, 1.0, 3.0, 5.0]
        curve = robustness_sweep(pendulum_linear_only, pendulum, "mass",
                                 factors, seeds=2, horizon=40)
        assert curve.factors.shape == (4,)
        assert curve.mean_reward.shape == (4,)
        assert curve.std_reward.shape == (4,)
        assert curve.n_seeds == 2

    def test_rejects_empty_horizon_and_negative_jitter(self, pendulum,
                                                       pendulum_linear_only):
        with pytest.raises(ValueError, match="horizon"):
            robustness_sweep(pendulum_linear_only, pendulum, "mass",
                             [1.0], seeds=2, horizon=0)
        with pytest.raises(ValueError, match="jitter"):
            robustness_sweep(pendulum_linear_only, pendulum, "mass",
                             [1.0], seeds=2, jitter=-0.01)

    def test_validation(self, pendulum, pendulum_linear_only):
        with pytest.raises(ValueError):
            robustness_sweep(pendulum_linear_only, pendulum, "mass",
                             [0.4, 1.0], seeds=2)
        with pytest.raises(ValueError):
            robustness_sweep(pendulum_linear_only, pendulum, "mass",
                             [1.0, 6.0], seeds=2)
        with pytest.raises(ValueError):
            robustness_sweep(pendulum_linear_only, pendulum, "mass",
                             [2.0, 1.0], seeds=2)
        with pytest.raises(ValueError):
            robustness_sweep(pendulum_linear_only, pendulum, "length",
                             [0.5, 1.0], seeds=2)


# Curves taken at the scalar per-rollout loop; any batched evaluation of
# the sweep must reproduce them bit-for-bit.
PINNED_CURVES = {
    ("hybrid", "mass"): (
        [-0.0004887116147957816, -0.00041363480943282455, -0.0007073071589772214,
         -0.0011539071830372683, -0.0030018074087644914],
        [0.0006273216880335418, 0.0005285322259545234, 0.000924291528201518,
         0.0015292808951593902, 0.0040516526105124975]),
    ("hybrid", "g"): (
        [-0.0004154618429111545, -0.00041363480943282455, -0.0004297063459570034,
         -0.0004853696807054836, -0.0008824721703522218],
        [0.0005255836264040359, 0.0005285322259545234, 0.0005529975423260264,
         0.0006147743592628213, 0.001008600297992407]),
    ("linear", "mass"): (
        [-0.0004894367866947672, -0.0004136708226142676, -0.0007073180755936568,
         -0.0011539022920727352, -0.0030016624456181908],
        [0.0006283384443289493, 0.0005285886560575068, 0.0009243162775460093,
         0.001529287407187939, 0.004051475450600171]),
    ("linear", "g"): (
        [-0.0004154979777098577, -0.0004136708226142676, -0.0004297418390660647,
         -0.000485402783061276, -0.0008824814301559111],
        [0.0005256411647342595, 0.0005285886560575068, 0.0005530507457234792,
         0.0006148209038105949, 0.001008603172071181]),
}


@pytest.mark.parametrize("source,param", sorted(PINNED_CURVES))
def test_sweep_matches_pinned_curve(source, param, pendulum, pendulum_hybrid,
                                    pendulum_linear_only):
    pol = pendulum_hybrid if source == "hybrid" else pendulum_linear_only
    curve = robustness_sweep(pol, pendulum, param, [0.5, 1.0, 2.0, 3.0, 5.0],
                             seeds=3, horizon=60)
    mean, std = PINNED_CURVES[source, param]
    assert curve.mean_reward.tolist() == mean
    assert curve.std_reward.tolist() == std


class TestMetricsTable:
    def test_schema(self, tmp_path, pendulum, pendulum_linear_only):
        _, m = impulse_response(pendulum_linear_only, pendulum, horizon=50)
        path = tmp_path / "metrics.csv"
        write_metrics_table(path, [("pendulum", "linear", [m])],
                            header_comments=["config_hash=x seed=0"])
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == ("env,controller,sse_mean,sse_std,overshoot_mean,"
                            "overshoot_std,settle_mean,settle_std")
        row = lines[2].split(",")
        assert row[0] == "pendulum" and row[1] == "linear"
        assert float(row[3]) == 0.0  # single response: zero std


class TestDivergenceFlagging:
    class NanAfter:
        def __init__(self, k):
            self.k = k
            self.n = 0

        def action(self, obs):
            self.n += 1
            return np.nan if self.n > self.k else 0.0

    def test_impulse_flags_divergence(self, pendulum):
        _, m = impulse_response(self.NanAfter(12), pendulum, horizon=100)
        assert m.diverged and not m.settled
        assert m.settling_time == 100

    def test_robustness_records_divergent_rollouts(self, pendulum):
        curve = robustness_sweep(self.NanAfter(8), pendulum, "mass",
                                 [0.5, 1.0], seeds=3, horizon=60)
        assert np.all(np.isfinite(curve.mean_reward))
        assert np.all(np.isfinite(curve.std_reward))


class TestMetadataEcho:
    def test_stamp_carries_physical_parameters(self, pendulum):
        from hybridctl.config import RunConfig
        lines = RunConfig().stamp(pendulum)
        assert lines[0].startswith("config_hash=")
        assert "dt=0.05" in lines[1] and "horizon=400" in lines[1]
