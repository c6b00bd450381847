"""Dense matrix kernels for small state-space computations.

Everything here works on plain ``numpy`` arrays at desk scale (n up to a
few dozen).  All routines are pure functions of their arguments with no
global state; the one cache is an ``EigenResult``'s left eigenvectors,
computed from its own right eigenvectors on first use.

Conventions
-----------
* ``solve_lyapunov(A, Q)`` solves ``A^T P + P A = -Q`` in the eigenbasis of
  ``A`` (no Schur machinery).  A matrix whose eigenbasis is not trusted
  (``EigenResult.left`` is None), or whose eigenbasis solution misses the
  residual gate, is vectorized to an n^2 x n^2 linear system instead.
* Tolerances are fixed constants, relative to the norm of the matrix at
  hand, written at their point of use; no routine takes an override.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

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
    # the singular values come sorted: the first is the norm's max, bit for bit
    return float(np.linalg.svd(A, compute_uv=False)[0])


class StabilityClass(Enum):
    HURWITZ = "hurwitz"
    LYAPUNOV_STABLE = "lyapunov-stable"
    UNSTABLE = "unstable"


@dataclass(frozen=True)
class EigenResult:
    """Eigendecomposition with per-eigenvalue multiplicities.

    ``values`` are sorted by (real, imag); ``vectors[:, k]`` is the right
    eigenvector of ``values[k]``.  ``algebraic``/``geometric`` hold the
    multiplicities of the cluster each eigenvalue belongs to; ``norm`` is
    the spectral norm of the decomposed matrix.  ``left`` holds the left
    eigenvectors, computed once on first use when the eigenbasis is
    trusted; the hot paths that work in the eigenbasis key on it.
    """

    values: np.ndarray
    vectors: np.ndarray
    algebraic: np.ndarray
    geometric: np.ndarray
    norm: float

    @property
    def semisimple(self):
        return bool(np.all(self.algebraic == self.geometric))

    @cached_property
    def left(self):
        """``W = V^{-1}``, whose row ``k`` is a left eigenvector of
        ``values[k]`` with ``W[k] @ vectors[:, k] = 1``; None unless the
        eigenbasis is trusted, ``kappa_2(V) <= 1e6``.

        Work done in the eigenbasis loses about ``kappa_2(V) eps`` relative
        accuracy, so the bound keeps it under 1e-9 (the bound acceptance
        criterion 4b puts on its modal reference); defective and nearly
        defective matrices get None and their callers take the direct
        route."""
        V = self.vectors
        if V.size == 0:
            return V
        s = np.linalg.svd(V, compute_uv=False)
        if not s[0] <= 1e6 * s[-1]:
            return None
        return np.linalg.inv(V)


def _cluster(values, radius):
    """Group eigenvalues into clusters of radius ``radius``.

    Returns a list of index arrays.  Greedy sweep over the sorted values:
    the first value not yet taken opens a cluster of every untaken value
    within ``radius`` of it, listed in sweep order.  Adequate for the
    well-separated spectra handled here.
    """
    order = np.lexsort((values.imag, values.real))
    close = np.abs(values[:, None] - values[None, :]) <= radius
    clusters = []
    free = np.ones(len(values), dtype=bool)
    for idx in order:
        if not free[idx]:
            continue
        members = order[close[idx, order] & free[order]]
        free[members] = False
        clusters.append(members)
    return clusters


def eig(A):
    """Eigendecomposition of a real square matrix.

    Eigenvalues are returned conjugate-closed and sorted by (real, imag).
    Algebraic multiplicity is the cluster size within the cluster radius.
    Geometric multiplicity is 1 for a single eigenvalue and
    ``n - rank(A - mu I)`` at the cluster mean of a larger cluster.
    """
    A = as_matrix(A, "A", square=True)
    n = A.shape[0]
    if n == 0:
        empty = np.zeros(0)
        return EigenResult(empty.astype(complex), empty.reshape(0, 0).astype(complex),
                           empty.astype(int), empty.astype(int), 0.0)
    try:
        values, vectors = np.linalg.eig(A)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise EigNonConvergenceError(f"eigenvalue iteration failed: {exc}") from exc
    order = np.lexsort((values.imag, values.real))
    values = values[order]
    vectors = vectors[:, order]
    norm = spectral_norm(A)
    alg = np.zeros(n, dtype=int)
    geo = np.zeros(n, dtype=int)
    for members in _cluster(values, CLUSTER_TOL * norm):
        g = 1
        if len(members) > 1:
            mu = values[members].mean()
            # every eigenvalue has an eigenvector, and the rank tolerance
            # can swallow a nearby cluster: keep g within [1, cluster size]
            g = min(max(n - rank(A - mu * np.eye(n)), 1), len(members))
        alg[members] = len(members)
        geo[members] = g
    return EigenResult(values, vectors, alg, geo, norm)


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

    In the eigenbasis ``A = V diag(lambda) W`` with ``W = V^{-1}``, the
    equation decouples: ``X = -(V^T Q V) / (lambda_i + lambda_j)``
    entrywise and ``P = Re(W^T X W)``, O(n^3) from one ``eig(A)``.  When
    that eigenbasis is not trusted (``EigenResult.left`` is None) or the
    residual gate rejects its ``P``, the equation is vectorized into an
    n^2 x n^2 dense system instead.  Raises
    ``SingularLyapunovOperatorError`` when ``spec(A)`` and ``spec(-A^T)``
    intersect (an eigenvalue pair sums to zero), and ``NumericalError``
    when neither route meets the residual gate.
    """
    A = as_matrix(A, "A", square=True)
    Q = symmetrize(as_matrix(Q, "Q", square=True), "Q")
    n = A.shape[0]
    if Q.shape[0] != n:
        raise InputError("A and Q must have matching dimensions")
    if n == 0:
        return np.zeros((0, 0))
    res = eig(A)
    vals = res.values
    scale = 1.0 + float(np.abs(vals).max())
    pair_sums = vals[:, None] + vals[None, :]
    gap = np.abs(pair_sums).min()
    if gap <= 1e-9 * scale:
        raise SingularLyapunovOperatorError(
            "Lyapunov operator is singular: eigenvalue pair sums to "
            f"{gap:.3e}")
    W = res.left
    if W is not None:
        V = res.vectors
        X = -(V.T @ Q @ V) / pair_sums
        P = np.real(W.T @ X @ W)
        P = (P + P.T) / 2.0
        residual, bound = _lyapunov_residual(A, P, Q, res.norm)
        if residual <= bound:
            return P
    eye = np.eye(n)
    L = np.kron(A.T, eye) + np.kron(eye, A.T)
    P = np.linalg.solve(L, -Q.flatten()).reshape(n, n)
    P = (P + P.T) / 2.0
    residual, bound = _lyapunov_residual(A, P, Q, res.norm)
    if residual > bound:
        raise NumericalError(
            f"Lyapunov residual {residual:.3e} exceeds bound {bound:.3e}")
    return P


def _lyapunov_residual(A, P, Q, a_norm):
    """Residual ``||A^T P + P A + Q||_2`` and the bound it must meet."""
    residual = spectral_norm(A.T @ P + P @ A + Q)
    bound = 1e-8 * (a_norm * spectral_norm(P) + spectral_norm(Q) + 1e-300)
    return residual, bound


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
    res = eig(A)
    scale = 1.0 + res.norm
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


def pbh_failures(A, M, mode, spectrum):
    """PBH rank test at every eigenvalue of ``spectrum = eig(A)``.

    Returns a boolean array over ``spectrum.values``, True where
    ``rank [lambda I - A, M] < n`` (``mode="controllable"``) or
    ``rank [lambda I - A; M] < n`` (``mode="observable"``), the ranks
    decided by ``rank``.  A simple eigenvalue passes without that SVD when
    its unit left eigenvector ``w_k`` (controllable) or unit right
    eigenvector ``v_k`` (observable) keeps ``||w_k^H M||`` or ``||M v_k||``
    above ``1e-6 s_k (||A||_2 + ||M||_F)``, with ``s_k = ||w_k|| ||v_k||``
    the condition number of the eigenvalue for ``w_k^H v_k = 1``; the rank
    tolerance grows with ``||A||``, so the bound does too.  Repeated
    eigenvalues, eigenvalues under the bound and every eigenvalue of a
    numerically defective ``A`` (``spectrum.left`` is None) take the SVD
    test, so every failure is decided by it.
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
    failed = np.zeros(n, dtype=bool)
    if n == 0:
        return failed
    V, W = spectrum.vectors, spectrum.left
    screened = np.zeros(n, dtype=bool)
    if W is not None:
        w_norm = np.linalg.norm(W, axis=1)
        v_norm = np.linalg.norm(V, axis=0)
        if mode == "controllable":
            reach = np.linalg.norm(W @ M, axis=1) / w_norm
        else:
            reach = np.linalg.norm(M @ V, axis=0) / v_norm
        scale = spectrum.norm + np.linalg.norm(M)
        bound = 1e-6 * w_norm * v_norm * scale
        screened = (spectrum.algebraic == 1) & (reach > bound)
    eye = np.eye(n)
    for k in np.flatnonzero(~screened):
        shifted = spectrum.values[k] * eye - A
        pencil = np.hstack([shifted, M]) if mode == "controllable" \
            else np.vstack([shifted, M])
        failed[k] = rank(pencil) < n
    return failed


def pbh_witness(A, M, mode, spectrum):
    """First eigenvalue of ``spectrum = eig(A)`` failing the PBH rank
    test of ``pbh_failures``, or None when the pair passes at all of them
    (controllable or observable)."""
    failed = pbh_failures(A, M, mode, spectrum)
    return complex(spectrum.values[np.argmax(failed)]) if failed.any() \
        else None


def stability_class(res):
    """Classify the matrix decomposed by ``res = eig(A)``.

    Hurwitz: every ``Re lambda < -tol``.  Lyapunov stable: every
    ``Re lambda <= tol`` and each eigenvalue with ``|Re lambda| <= tol``
    is semisimple.  ``tol = 1e-8 * (1 + ||A||)``.
    """
    re = res.values.real
    tol = 1e-8 * (1.0 + res.norm)
    if np.all(re < -tol):
        return StabilityClass.HURWITZ
    if np.any(re > tol):
        return StabilityClass.UNSTABLE
    critical = np.abs(re) <= tol
    if np.any(res.algebraic[critical] != res.geometric[critical]):
        return StabilityClass.UNSTABLE
    return StabilityClass.LYAPUNOV_STABLE
