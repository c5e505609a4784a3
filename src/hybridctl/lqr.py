"""Continuous-time LQR synthesis via the algebraic Riccati equation.

The stabilizing solution P of

    A' P + P A - P B R^-1 B' P + Q = 0

is computed from the stable invariant subspace of the Hamiltonian matrix
using an ordered real Schur decomposition, then polished with a few
Newton-Kleinman iterations (each one a Lyapunov solve).  The state-feedback
gain is K = R^-1 B' P and the closed loop A - B K is verified to be Hurwitz
before a gain is handed out.

Dimensions are tiny here (n <= 4), so everything favours robustness and
checkability over speed: stabilizability is tested with the PBH rank
condition before solving, and the Riccati residual is re-checked after the
solve against a relative Frobenius tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import RiccatiConvergenceError, SynthesisError
from .policy import LinearPolicy

# Residual acceptance threshold: ||residual||_F < RESIDUAL_RTOL * (1 + ||P||_F)
RESIDUAL_RTOL = 1e-8


@dataclass
class LinearSystem:
    """Continuous-time linear dynamics x' = A x + B u."""

    A: np.ndarray  # (n, n)
    B: np.ndarray  # (n, m)

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=float)
        self.B = np.asarray(self.B, dtype=float)
        if self.B.ndim == 1:
            self.B = self.B.reshape(-1, 1)
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise ValueError("A must be square")
        if self.B.shape[0] != n:
            raise ValueError("B must have one row per state")
        if not (np.all(np.isfinite(self.A)) and np.all(np.isfinite(self.B))):
            raise ValueError("A and B must be finite")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]


@dataclass
class CostWeights:
    """Quadratic design weights: Q symmetric PSD, R symmetric PD."""

    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        self.Q = np.asarray(self.Q, dtype=float)
        self.R = np.asarray(self.R, dtype=float)
        if self.R.ndim == 0:
            self.R = self.R.reshape(1, 1)
        for name, mat in (("Q", self.Q), ("R", self.R)):
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise ValueError(f"{name} must be square")
            if np.max(np.abs(mat - mat.T)) > 1e-12 * (1.0 + np.max(np.abs(mat))):
                raise ValueError(f"{name} must be symmetric")
        if np.min(np.linalg.eigvalsh(self.R)) <= 0:
            raise ValueError("R must be positive definite")
        if np.min(np.linalg.eigvalsh(self.Q)) < -1e-12:
            raise ValueError("Q must be positive semidefinite")


@dataclass
class GainMatrix:
    """State-feedback gain for u = -K x, with its closed-loop eigenvalues
    and the Riccati solution P it came from (None when not synthesized)."""

    K: np.ndarray  # (m, n)
    closed_loop_eigs: np.ndarray  # (n,) complex
    P: np.ndarray | None = None  # (n, n)


def is_stabilizable(sys: LinearSystem, tol: float = 1e-9) -> bool:
    """PBH test: rank [A - lam I, B] = n for every eigenvalue with Re >= 0."""
    n = sys.n
    for lam in np.linalg.eigvals(sys.A):
        if lam.real < -tol:
            continue
        pencil = np.hstack([sys.A - lam * np.eye(n), sys.B.astype(complex)])
        if np.linalg.matrix_rank(pencil, tol=tol * max(1.0, np.abs(lam))) < n:
            return False
    return True


def riccati_residual(sys: LinearSystem, w: CostWeights, P: np.ndarray) -> float:
    """Frobenius norm of A'P + PA - P B R^-1 B' P + Q."""
    BRB = sys.B @ np.linalg.solve(w.R, sys.B.T)
    res = sys.A.T @ P + P @ sys.A - P @ BRB @ P + w.Q
    return float(np.linalg.norm(res, "fro"))


def solve_care(sys: LinearSystem, w: CostWeights) -> np.ndarray:
    """Stabilizing solution of the continuous algebraic Riccati equation.

    Raises SynthesisError when (A, B) is not stabilizable (PBH test, or the
    Hamiltonian fails to split n/n across the imaginary axis) and
    RiccatiConvergenceError when the refined solution still violates the
    residual tolerance.
    """
    if w.Q.shape[0] != sys.n or w.R.shape[0] != sys.m:
        raise ValueError("cost weight dimensions do not match the system")
    if not is_stabilizable(sys):
        raise SynthesisError(
            "(A, B) is not stabilizable: an unstable mode is uncontrollable")

    n = sys.n
    BRB = sys.B @ np.linalg.solve(w.R, sys.B.T)
    ham = np.block([[sys.A, -BRB], [-w.Q, -sys.A.T]])
    T, Z, sdim = scipy.linalg.schur(ham, output="real", sort="lhp")
    if sdim != n:
        raise SynthesisError(
            f"Hamiltonian stable subspace has dimension {sdim}, expected {n} "
            "(eigenvalues on the imaginary axis; check detectability)")
    U1 = Z[:n, :n]
    U2 = Z[n:, :n]
    try:
        P = np.linalg.solve(U1.T, U2.T).T
    except np.linalg.LinAlgError as exc:
        raise SynthesisError("stable subspace is not a graph over the state space") from exc
    P = 0.5 * (P + P.T)

    # Newton-Kleinman polish: each step solves a Lyapunov equation for the
    # current closed loop.  Keep the best residual seen.
    best = P
    best_res = riccati_residual(sys, w, P)
    for _ in range(5):
        K = np.linalg.solve(w.R, sys.B.T @ best)
        acl = sys.A - sys.B @ K
        rhs = -(w.Q + K.T @ w.R @ K)
        try:
            cand = scipy.linalg.solve_continuous_lyapunov(acl.T, rhs)
        except Exception:
            break
        cand = 0.5 * (cand + cand.T)
        res = riccati_residual(sys, w, cand)
        if res < best_res:
            best, best_res = cand, res
        else:
            break
    P = best

    norm_p = float(np.linalg.norm(P, "fro"))
    if best_res >= RESIDUAL_RTOL * (1.0 + norm_p):
        raise RiccatiConvergenceError(
            f"Riccati residual {best_res:.3e} exceeds {RESIDUAL_RTOL:.0e}*(1+||P||)")
    if np.min(np.linalg.eigvalsh(P)) < -1e-10 * (1.0 + norm_p):
        raise RiccatiConvergenceError("Riccati solution is not positive semidefinite")
    return P


def lqr_gain(sys: LinearSystem, w: CostWeights) -> GainMatrix:
    """Feedback gain K = R^-1 B' P with a verified Hurwitz closed loop; the
    returned GainMatrix carries P, so callers need not solve the CARE again."""
    P = solve_care(sys, w)
    K = np.linalg.solve(w.R, sys.B.T @ P)
    eigs = np.linalg.eigvals(sys.A - sys.B @ K)
    if np.max(eigs.real) >= 0:
        raise SynthesisError(
            f"closed loop is not Hurwitz (max Re eig = {np.max(eigs.real):.3e})")
    return GainMatrix(K=K, closed_loop_eigs=eigs, P=P)


@dataclass
class ObservationEmbedding:
    """How physical state coordinates appear inside the observation vector.

    ``jac`` is d(obs)/d(state) at the operating point and ``target`` the
    observation of the operating point itself.  ``u_eq`` is the control that
    holds the equilibrium (zero for every system here).
    """

    jac: np.ndarray  # (D, n)
    target: np.ndarray  # (D,)
    u_eq: np.ndarray | float = 0.0


def to_linear_policy(gain: GainMatrix, embedding: ObservationEmbedding) -> LinearPolicy:
    """Lift a state-space gain u = -K x onto observation coordinates.

    W is the minimum-norm solution of W * jac = -K, which puts zero weight on
    observation components that carry no first-order state information at the
    operating point (e.g. the cos-theta component, whose derivative vanishes
    there).  The bias makes the policy output the equilibrium control exactly
    at the target observation: b = u_eq - W a.
    """
    E = np.asarray(embedding.jac, dtype=float)
    K = gain.K
    if E.ndim != 2 or E.shape[1] != K.shape[1]:
        raise ValueError("embedding Jacobian does not match the gain dimensions")
    gram = E.T @ E  # (n, n), invertible iff the embedding is locally injective
    try:
        pinv = np.linalg.solve(gram, E.T)  # (n, D)
    except np.linalg.LinAlgError as exc:
        raise ValueError("observation embedding is singular at the operating point") from exc
    W = -K @ pinv
    u_eq = np.asarray(embedding.u_eq, dtype=float).reshape(-1)
    if u_eq.size == 1 and K.shape[0] != 1:
        u_eq = np.full(K.shape[0], float(u_eq[0]))
    b = u_eq - W @ np.asarray(embedding.target, dtype=float)
    return LinearPolicy(W=W, b=b)
