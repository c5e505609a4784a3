import numpy as np
import pytest

from hybridctl import (
    CostWeights,
    GainMatrix,
    LinearSystem,
    ObservationEmbedding,
    SynthesisError,
    lqr_gain,
    simulate,
    solve_care,
    to_linear_policy,
)
from hybridctl.lqr import is_stabilizable, riccati_residual
from hybridctl.trainer import linear_only_hybrid

from conftest import default_weights, synthesize_linear


def care_eigenvector_oracle(A, B, Q, R):
    """Independent Riccati route: dense eigendecomposition of the Hamiltonian
    (no ordered Schur), stable eigenvectors stacked into P = U2 U1^-1."""
    A = np.atleast_2d(np.asarray(A, float))
    B = np.atleast_2d(np.asarray(B, float))
    Q = np.atleast_2d(np.asarray(Q, float))
    R = np.atleast_2d(np.asarray(R, float))
    n = A.shape[0]
    ham = np.block([[A, -B @ np.linalg.solve(R, B.T)], [-Q, -A.T]])
    w, v = np.linalg.eig(ham)
    stable = v[:, w.real < 0]
    assert stable.shape[1] == n
    p = stable[n:] @ np.linalg.inv(stable[:n])
    p = p.real
    return 0.5 * (p + p.T)


class TestSolveCare:
    def test_scalar_hand_solution(self):
        # -P^2 + 1 = 0 with P >= 0
        sys = LinearSystem(A=[[0.0]], B=[[1.0]])
        w = CostWeights(Q=[[1.0]], R=[[1.0]])
        P = solve_care(sys, w)
        np.testing.assert_allclose(P, [[1.0]], rtol=0, atol=1e-10)

    def test_scalar_lyapunov_limit(self):
        # B = 0 and A stable: -2P + 1 = 0
        sys = LinearSystem(A=[[-1.0]], B=[[0.0]])
        w = CostWeights(Q=[[1.0]], R=[[1.0]])
        P = solve_care(sys, w)
        np.testing.assert_allclose(P, [[0.5]], rtol=0, atol=1e-10)

    def test_matches_eigenvector_oracle(self, each_env):
        sys = each_env.analytic_linearization()
        w = default_weights(each_env)
        P = solve_care(sys, w)
        P_oracle = care_eigenvector_oracle(sys.A, sys.B, w.Q, w.R)
        np.testing.assert_allclose(P, P_oracle, rtol=0,
                                   atol=1e-8 * (1 + np.linalg.norm(P_oracle)))

    def test_residual_tolerance(self, each_env):
        sys = each_env.analytic_linearization()
        w = default_weights(each_env)
        P = solve_care(sys, w)
        res = riccati_residual(sys, w, P)
        assert res < 1e-8 * (1.0 + np.linalg.norm(P, "fro"))

    def test_symmetric_psd(self, each_env):
        P = solve_care(each_env.analytic_linearization(), default_weights(each_env))
        assert np.max(np.abs(P - P.T)) < 1e-10
        assert np.min(np.linalg.eigvalsh(P)) >= -1e-10

    def test_unstable_uncontrollable_raises(self):
        sys = LinearSystem(A=[[1.0]], B=[[0.0]])
        with pytest.raises(SynthesisError):
            solve_care(sys, CostWeights(Q=[[1.0]], R=[[1.0]]))

    def test_double_integrator_without_input_raises(self):
        sys = LinearSystem(A=[[0.0, 1.0], [0.0, 0.0]], B=[[0.0], [0.0]])
        with pytest.raises(SynthesisError):
            solve_care(sys, CostWeights(Q=np.eye(2), R=[[1.0]]))

    def test_dimension_mismatch_raises(self):
        sys = LinearSystem(A=np.zeros((2, 2)), B=np.ones((2, 1)))
        with pytest.raises(ValueError):
            solve_care(sys, CostWeights(Q=[[1.0]], R=[[1.0]]))

    def test_asymmetric_weights_rejected(self):
        with pytest.raises(ValueError):
            CostWeights(Q=[[1.0, 0.5], [0.0, 1.0]], R=[[1.0]])
        with pytest.raises(ValueError):
            CostWeights(Q=np.eye(2), R=[[0.0]])


class TestStabilizable:
    def test_stable_system_without_input(self):
        assert is_stabilizable(LinearSystem(A=[[-1.0]], B=[[0.0]]))

    def test_unstable_without_input(self):
        assert not is_stabilizable(LinearSystem(A=[[1.0]], B=[[0.0]]))

    def test_all_env_designs(self, each_env):
        assert is_stabilizable(each_env.analytic_linearization())


class TestLqrGain:
    def test_scalar_gain_and_pole(self):
        gain = lqr_gain(LinearSystem(A=[[0.0]], B=[[1.0]]),
                        CostWeights(Q=[[1.0]], R=[[1.0]]))
        np.testing.assert_allclose(gain.K, [[1.0]], rtol=0, atol=1e-10)
        np.testing.assert_allclose(gain.closed_loop_eigs.real, [-1.0],
                                   rtol=0, atol=1e-10)
        np.testing.assert_allclose(gain.P, [[1.0]], rtol=0, atol=1e-10)

    def test_closed_loop_hurwitz(self, each_env):
        gain = lqr_gain(each_env.analytic_linearization(), default_weights(each_env))
        assert np.max(gain.closed_loop_eigs.real) < 0.0

    def test_scaling_invariance(self, each_env):
        sys = each_env.analytic_linearization()
        w = default_weights(each_env)
        k1 = lqr_gain(sys, w).K
        w2 = CostWeights(Q=7.3 * w.Q, R=7.3 * w.R)
        k2 = lqr_gain(sys, w2).K
        np.testing.assert_allclose(k1, k2, rtol=0, atol=1e-9 * (1 + np.max(np.abs(k1))))


class TestToLinearPolicy:
    def test_pendulum_weight_structure(self, pendulum):
        gain, lin = synthesize_linear(pendulum)
        # cos component carries no first-order information: exact zero weight
        assert lin.W[0, 0] == 0.0
        np.testing.assert_array_equal(lin.W[0, 1:], -gain.K[0])
        assert lin.b[0] == 0.0

    def test_equilibrium_action_zero(self, each_env):
        _, lin = synthesize_linear(each_env)
        np.testing.assert_array_equal(lin.action(each_env.target_obs()), [0.0])

    def test_hybrid_identity_at_operating_point(self, pendulum_hybrid):
        a = pendulum_hybrid.relevance.a
        assert np.array_equal(pendulum_hybrid.action(a),
                              pendulum_hybrid.linear.action(a))

    def test_closed_loop_simulation_settles(self, pendulum, pendulum_linear):
        # from 5 degrees the synthesized loop must decay below 0.5 degrees
        x0 = np.array([np.deg2rad(5.0), 0.0])
        traj = simulate(pendulum, pendulum_linear.action, x0, 200)
        theta = np.abs(traj.monitored(pendulum))
        assert theta[-1] < np.deg2rad(0.01)
        crossed = np.nonzero(theta < np.deg2rad(0.5))[0]
        assert crossed.size > 0
        # envelope decay: never exceeds the initial deviation again
        assert np.max(theta) <= np.deg2rad(5.0) + 1e-12

    def test_linear_only_hybrid_tracks_linear(self, pendulum, pendulum_linear):
        wrapped = linear_only_hybrid(pendulum, pendulum_linear)
        rng = np.random.default_rng(5)
        obs = pendulum.target_obs() + 0.3 * rng.standard_normal((50, 3))
        gap = np.abs(wrapped.action(obs) - pendulum_linear.action(obs))
        assert np.max(gap) < 1e-9

    def test_embedding_mismatch_rejected(self):
        gain = GainMatrix(K=np.ones((1, 3)), closed_loop_eigs=np.array([-1.0]))
        emb = ObservationEmbedding(jac=np.eye(2), target=np.zeros(2))
        with pytest.raises(ValueError):
            to_linear_policy(gain, emb)
