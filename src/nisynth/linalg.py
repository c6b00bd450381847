"""Dense matrix kernels for small state-space computations.

Everything here works on plain ``numpy`` arrays at desk scale (n up to a
few dozen).  All routines are pure functions: no caching, no global state,
results depend only on the arguments.

Conventions
-----------
* ``solve_lyapunov(A, Q)`` solves ``A^T P + P A = -Q`` by vectorizing to an
  n^2 x n^2 linear system (no Schur machinery).
* Tolerances are fixed constants, relative to the norm of the matrix at
  hand, written at their point of use; no routine takes an override.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    AsymmetricMatrixError,
    EigNonConvergenceError,
    InputError,
    NotPositiveDefiniteError,
    NumericalError,
    SingularLyapunovOperatorError,
    SpectrumError,
)

EPS = float(np.finfo(float).eps)

#: relative radius for clustering nearby eigenvalues into one root
CLUSTER_TOL = 1e-7


def as_matrix(M, name="matrix", square=False, dtype=float):
    """Return ``M`` as a validated 2-D float array (finite entries only)."""
    A = np.asarray(M, dtype=dtype)
    if A.ndim == 0:
        A = A.reshape(1, 1)
    if A.ndim != 2:
        raise InputError(f"{name} must be 2-D, got ndim={A.ndim}")
    if A.size and not np.all(np.isfinite(A)):
        raise InputError(f"{name} contains non-finite entries")
    if square and A.shape[0] != A.shape[1]:
        raise InputError(f"{name} must be square, got shape {A.shape}")
    return A


def spectral_norm(A):
    """Largest singular value (0.0 for empty matrices)."""
    A = np.asarray(A)
    if A.size == 0:
        return 0.0
    return float(np.linalg.norm(A, 2))


class StabilityClass(Enum):
    HURWITZ = "hurwitz"
    LYAPUNOV_STABLE = "lyapunov-stable"
    UNSTABLE = "unstable"


@dataclass(frozen=True)
class EigenResult:
    """Eigendecomposition with per-eigenvalue multiplicities.

    ``values`` are sorted by (real, imag); ``vectors[:, k]`` is the right
    eigenvector of ``values[k]``.  ``algebraic``/``geometric`` hold the
    multiplicities of the cluster each eigenvalue belongs to.
    """

    values: np.ndarray
    vectors: np.ndarray
    algebraic: np.ndarray
    geometric: np.ndarray

    @property
    def semisimple(self):
        return bool(np.all(self.algebraic == self.geometric))


def _cluster(values, radius):
    """Group eigenvalues into clusters of radius ``radius``.

    Returns a list of index arrays.  Greedy sweep over the sorted values;
    adequate for the well-separated spectra handled here.
    """
    order = np.lexsort((values.imag, values.real))
    clusters = []
    used = np.zeros(len(values), dtype=bool)
    for idx in order:
        if used[idx]:
            continue
        members = [idx]
        used[idx] = True
        for jdx in order:
            if not used[jdx] and abs(values[jdx] - values[idx]) <= radius:
                members.append(jdx)
                used[jdx] = True
        clusters.append(np.array(members))
    return clusters


def eig(A):
    """Eigendecomposition of a real square matrix.

    Eigenvalues are returned conjugate-closed and sorted by (real, imag).
    Algebraic multiplicity is the cluster size within the cluster radius;
    geometric multiplicity is ``n - rank(A - mu I)`` at the cluster mean.
    """
    A = as_matrix(A, "A", square=True)
    n = A.shape[0]
    if n == 0:
        empty = np.zeros(0)
        return EigenResult(empty.astype(complex), empty.reshape(0, 0).astype(complex),
                           empty.astype(int), empty.astype(int))
    try:
        values, vectors = np.linalg.eig(A)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise EigNonConvergenceError(f"eigenvalue iteration failed: {exc}") from exc
    order = np.lexsort((values.imag, values.real))
    values = values[order]
    vectors = vectors[:, order]
    radius = CLUSTER_TOL * spectral_norm(A)
    alg = np.zeros(n, dtype=int)
    geo = np.zeros(n, dtype=int)
    for members in _cluster(values, radius):
        mu = values[members].mean()
        # rank tolerance can swallow a nearby cluster; cap at cluster size
        g = min(n - rank(A - mu * np.eye(n)), len(members))
        for k in members:
            alg[k] = len(members)
            geo[k] = g
    return EigenResult(values, vectors, alg, geo)


def rank(M):
    """Number of singular values above ``max(rows, cols) * eps * sigma_max``."""
    M = np.asarray(M)
    if M.size == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    return int(np.sum(s > max(M.shape) * EPS * s[0]))


def symmetrize(M, name="matrix"):
    """Check near-symmetry (Hermitian for complex) and return (M + M*)/2."""
    M = np.asarray(M)
    if M.size == 0:
        return M
    defect = spectral_norm(M - M.conj().T)
    if defect > 1e-8 * max(1.0, spectral_norm(M)):
        raise AsymmetricMatrixError(
            f"{name} is not symmetric within tolerance (defect {defect:.3e})")
    return (M + M.conj().T) / 2.0


def definiteness(M, mode):
    """Test definiteness of a symmetric/Hermitian matrix.

    Parameters
    ----------
    mode : {"pd", "psd", "nd", "nsd"}
        Positive/negative (semi)definite, with eigenvalue tolerance
        ``dim * eps * max|lambda|``.
    """
    mode = mode.lower()
    if mode not in ("pd", "psd", "nd", "nsd"):
        raise InputError(f"unknown definiteness mode {mode!r}")
    M = symmetrize(as_matrix(M, "M", square=True, dtype=None), "M")
    if M.shape[0] == 0:
        return True
    lam = np.linalg.eigvalsh(M)
    tol = M.shape[0] * EPS * max(abs(lam[0]), abs(lam[-1]), 1e-300)
    if mode == "pd":
        return bool(lam[0] > tol)
    if mode == "psd":
        return bool(lam[0] >= -tol)
    if mode == "nd":
        return bool(lam[-1] < -tol)
    return bool(lam[-1] <= tol)


def solve_lyapunov(A, Q):
    """Solve ``A^T P + P A = -Q`` for symmetric ``Q``.

    The equation is vectorized into an n^2 x n^2 dense system, which is
    cheap at the scales handled here.  Raises
    ``SingularLyapunovOperatorError`` when ``spec(A)`` and ``spec(-A^T)``
    intersect (an eigenvalue pair sums to zero).
    """
    A = as_matrix(A, "A", square=True)
    Q = symmetrize(as_matrix(Q, "Q", square=True), "Q")
    n = A.shape[0]
    if Q.shape[0] != n:
        raise InputError("A and Q must have matching dimensions")
    if n == 0:
        return np.zeros((0, 0))
    vals = np.linalg.eigvals(A)
    scale = 1.0 + float(np.abs(vals).max())
    pair_sums = np.abs(vals[:, None] + vals[None, :])
    if pair_sums.min() <= 1e-9 * scale:
        raise SingularLyapunovOperatorError(
            "Lyapunov operator is singular: eigenvalue pair sums to "
            f"{pair_sums.min():.3e}")
    eye = np.eye(n)
    L = np.kron(A.T, eye) + np.kron(eye, A.T)
    P = np.linalg.solve(L, -Q.flatten()).reshape(n, n)
    P = (P + P.T) / 2.0
    residual = spectral_norm(A.T @ P + P @ A + Q)
    bound = 1e-8 * (spectral_norm(A) * spectral_norm(P) + spectral_norm(Q) + 1e-300)
    if residual > bound:
        raise NumericalError(
            f"Lyapunov residual {residual:.3e} exceeds bound {bound:.3e}")
    return P


def kernel_pd_solution(A):
    """Positive definite ``P`` with ``A^T P + P A = 0``.

    Requires every eigenvalue of ``A`` purely imaginary and semisimple.
    ``P`` is assembled as ``sum Re(u u*)`` over a complete set of unit
    eigenvectors of ``A^T`` (each term solves the equation individually
    because ``A^T u = conj(lambda) u`` and ``Re lambda = 0``).
    """
    A = as_matrix(A, "A", square=True)
    n = A.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    scale = 1.0 + spectral_norm(A)
    res = eig(A)
    if np.any(np.abs(res.values.real) > 1e-7 * scale):
        worst = res.values[np.argmax(np.abs(res.values.real))]
        raise SpectrumError(
            f"spectrum not purely imaginary: eigenvalue {worst}")
    if not res.semisimple:
        raise SpectrumError("defective purely imaginary eigenvalue")
    resT = eig(A.T)
    U = resT.vectors / np.linalg.norm(resT.vectors, axis=0, keepdims=True)
    P = np.real(U @ U.conj().T)
    P = (P + P.T) / 2.0
    residual = spectral_norm(A.T @ P + P @ A)
    if residual > 1e-8 * scale * spectral_norm(P):
        raise NumericalError(
            f"kernel solution residual {residual:.3e} too large")
    lam_min = float(np.linalg.eigvalsh(P)[0])
    if lam_min <= n * EPS * spectral_norm(P):
        raise NumericalError("kernel solution is not positive definite")
    return P


def sqrtm_pd(P):
    """Unique positive definite square root of a symmetric PD matrix."""
    P = symmetrize(as_matrix(P, "P", square=True), "P")
    if P.shape[0] == 0:
        return np.zeros((0, 0))
    lam, V = np.linalg.eigh(P)
    if lam[0] <= P.shape[0] * EPS * max(abs(lam[-1]), 1e-300):
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite (lambda_min {lam[0]:.3e})")
    S = (V * np.sqrt(lam)) @ V.T
    return (S + S.T) / 2.0


def pbh_test(A, M, mode):
    """Pencil-rank form of the eigenvector tests.

    ``mode="controllable"`` checks ``rank [lambda I - A, B] == n`` at every
    eigenvalue; ``mode="observable"`` checks ``rank [lambda I - A; C] == n``.
    """
    return _pbh_witness(A, M, mode) is None


def _pbh_witness(A, M, mode, values=None):
    """Return the first eigenvalue failing the PBH rank test, or None.

    ``values`` (default ``eig(A).values``) lets a caller reuse its spectrum.
    """
    A = as_matrix(A, "A", square=True)
    M = as_matrix(M, "M")
    n = A.shape[0]
    if mode not in ("controllable", "observable"):
        raise InputError(f"unknown PBH mode {mode!r}")
    if mode == "controllable" and M.shape[0] != n:
        raise InputError("B must have n rows")
    if mode == "observable" and M.shape[1] != n:
        raise InputError("C must have n columns")
    if n == 0:
        return None
    eye = np.eye(n)
    for lam in eig(A).values if values is None else values:
        if mode == "controllable":
            pencil = np.hstack([lam * eye - A, M])
        else:
            pencil = np.vstack([lam * eye - A, M])
        if rank(pencil) < n:
            return complex(lam)
    return None


def stability_class(A):
    """Classify ``A`` as Hurwitz, Lyapunov stable, or unstable.

    Hurwitz: every ``Re lambda < -tol``.  Lyapunov stable: every
    ``Re lambda <= tol`` and each eigenvalue with ``|Re lambda| <= tol``
    is semisimple.  ``tol = 1e-8 * (1 + ||A||)``.
    """
    A = as_matrix(A, "A", square=True)
    if A.shape[0] == 0:
        return StabilityClass.HURWITZ
    tol = 1e-8 * (1.0 + spectral_norm(A))
    res = eig(A)
    re = res.values.real
    if np.all(re < -tol):
        return StabilityClass.HURWITZ
    if np.any(re > tol):
        return StabilityClass.UNSTABLE
    critical = np.abs(re) <= tol
    if np.any(res.algebraic[critical] != res.geometric[critical]):
        return StabilityClass.UNSTABLE
    return StabilityClass.LYAPUNOV_STABLE
