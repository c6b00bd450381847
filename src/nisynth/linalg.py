"""Dense matrix kernels for small state-space computations.

Everything here works on plain ``numpy`` arrays at desk scale (n up to a
few dozen).  All routines are pure functions of their arguments with no
global state.  An ``EigenResult`` caches what is derived from its own
eigenvectors, each computed on first use: the left eigenvectors and the
norms of the left and right ones.

Conventions
-----------
* ``solve_lyapunov(A, Q)`` solves ``A^T P + P A = -Q`` in the eigenbasis of
  ``A`` (no Schur machinery).  A matrix whose eigenbasis is not trusted
  (``EigenResult.left`` is None), or whose eigenbasis solution misses the
  residual gate, is vectorized to an n^2 x n^2 linear system instead.
* A caller that holds a matrix's eigen-data passes it as an ``EigenResult``
  (``pbh_failures``, ``solve_lyapunov``); ``carried_spectrum`` builds one
  for a block of a similarity from the eigenvectors of the matrix it came
  from, so the block is not decomposed.
* There is one PBH screen, ``EigenResult.pbh_screen``: an eigenvalue it
  passes is controllable (observable) without an SVD.  ``pbh_failures``
  runs it on a system's own spectrum before its rank tests; the normal
  form runs it on the spectrum of its internal dynamics, where every mode
  that can fail the plant's PBH test lies
  (``structure.NormalForm.screened_minimal``).  A failure is only ever
  decided by ``rank``.
* Every tolerance of the package is an entry of the one table ``TOL``,
  never a parameter; ``EigenResult`` applies the spectral ones.
* A gate ``||X||_2 <= limit`` whose limit is known to be at least some
  ``low`` passes without the SVD when ``frobenius_clears(X, low)``; only
  otherwise is ``spectral_norm`` taken, so every verdict is the SVD's.
  Likewise ``full_rank_inverse`` forms a square matrix's inverse first
  and calls the matrix of full rank without the SVD when
  ``condition_clears``; only otherwise is ``rank`` asked.
* Frobenius norms and the norms of rows or columns come from the one
  helper ``frobenius_norm``, which is ``np.linalg.norm``'s formula bit for
  bit without its dispatch.
"""

from __future__ import annotations

import math
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
)

EPS = float(np.finfo(float).eps)


class Tol:
    """The tolerance table: each entry is named by the fact it decides,
    and its comment says what it is scaled by.  ``TOL`` is the one
    instance every gate reads; it takes no arguments and, having no
    slots, no assignment, so no caller overrides an entry."""

    __slots__ = ()

    # -- spectra and kernels (linalg) --
    #: eigenvalues this close are one root of ``eig``, times ``||A||_2``
    cluster: float = 1e-7
    #: an eigenvalue this close to the imaginary axis is on it, to the
    #: real axis real, to zero at the origin; times ``1 + ||A||_2``
    axis: float = 1e-8
    #: a singular value at most this is zero; times ``max(rows, cols)
    #: sigma_max`` (``sv_rank``, ``EigenResult.singular``)
    rank: float = EPS
    #: ``smin`` at most this is too close to singular to decide; times
    #: ``1 + ||A||_2`` (``EigenResult.nearly_singular``)
    nearly_singular: float = 1e-10
    #: largest ``kappa_2(V)`` of a trusted eigenbasis (``EigenResult.left``)
    eigenbasis: float = 1e6
    #: an eigenvalue of a symmetric matrix this close to zero is zero;
    #: times ``dim max|lambda|`` (``pd_floor``)
    definite: float = EPS
    #: largest ``||M - M*||_2`` taken as rounding; times ``max(1, ||M||_2)``
    #: (``hermitian_defect``)
    hermitian: float = 1e-8
    #: an eigenvalue pair summing to this makes the Lyapunov operator
    #: singular; times ``1 + max|lambda|``
    lyapunov_singular: float = 1e-9
    #: largest ``||A^T P + P A + Q||_2``; times ``||A|| ||P|| + ||Q||``
    lyapunov_residual: float = 1e-8
    #: an eigenvector reach above this passes PBH without the SVD; times
    #: ``s_k (||A||_2 + ||M||_F)``
    pbh_screen: float = 1e-6
    #: ``|w v|`` of a left/right eigenvector pair at most this is
    #: orthogonal; times ``1 + ||A||_2``
    biorthogonal: float = EPS
    #: ``kappa_F = ||M||_F ||M^-1||_F`` at most this over ``n TOL.rank``
    #: shows ``rank(M) = n`` without the SVD (``condition_clears``)
    rank_clearance: float = 1e-3

    # -- evaluation and simulation (statespace) --
    #: a point this close to a pole is at it; times ``1 + ||A||_2``
    pole_distance: float = 1e-9
    #: ``t_end / dt`` this far above an integer is that integer (absolute)
    step_ratio: float = 1e-12

    # -- structure --
    #: a row or singular value of ``C B`` below this is zero, times
    #: ``||C||_F ||B||_F``; one of ``C A B`` or of its decoupling block,
    #: times ``||C||_F ||A||_F ||B||_F``
    markov_zero: float = 1e-8
    #: largest ``||T T^-1 - I||_2`` of a transform; times ``max(1, ||T||_2)``
    inverse_residual: float = 1e-8
    #: largest distance of a supplied ``T_u`` or ``T_x`` block from the one
    #: ``T_y`` implies; times ``max(1, norm)`` of the transform
    supplied_transform: float = 1e-8
    #: largest defect of the normal form's x2 rows and input matrix; times
    #: ``max(1, norm)`` of the transformed matrix
    normal_form: float = 1e-5
    #: largest coupling the spectral split leaves between its blocks;
    #: times ``1 + ||A00||_2``
    split_coupling: float = 1e-7
    #: largest ``||A_a + A_a^T||_2`` of the split's critical block; times
    #: ``1 + ||A_a||_2``
    skew_defect: float = 1e-8

    # -- class tests and certificates (certify) --
    #: floor of the NI and OSNI class matrices (absolute)
    ni_floor: float = -1e-8
    #: positivity floor of the strict classes (absolute)
    strict_floor: float = 1e-10
    #: largest ``||D - D^T||_2`` of a symmetric feedthrough, absolute: the
    #: limit ``j(D - D^T)`` of ``j(R - R*)`` stays above the NI floor
    feedthrough_asymmetry: float = 1e-8
    #: largest ``||R(0) - R(0)^T||_F`` the NI route through ``Gamma``
    #: accepts (absolute): it loosens the floor by at most half of it; the
    #: rounding of ``R(0)`` of a 26-state loop is about 4e-12
    dc_asymmetry: float = 1e-10
    #: widest spread of ``|eigenvalues|`` of a level-set Hamiltonian's
    #: feedthrough ``W - level I``: its smallest, as small as ``|level|``,
    #: is known to ``eps ||W||``, under 0.3 % of itself
    w_condition: float = 1e13
    #: a residue eigenvalue above minus this is nonnegative; times ``p
    #: max(1, ||K0||_2)``, not ``pd_floor``: ``K0 = C v w B`` carries the
    #: rounding of the product, so the zero residue of a hidden undamped
    #: mode would fail against its own norm
    residue_psd: float = EPS
    #: an eigenvalue of a level-set matrix ``M`` this close to the
    #: imaginary axis is a candidate: times ``|lambda|``, plus
    #: ``crossing_axis_norm`` times ``||M||_F``; loose on purpose
    crossing_axis: float = 1e-6
    crossing_axis_norm: float = 1e-10
    #: candidate frequencies this close are one; times the frequency
    crossing_merge: float = 1e-8
    #: a singular value of ``D - D^T + j level I`` this small is the level;
    #: times ``|level|``
    level_separation: float = 1e-3
    #: largest ``||B + A Y C^T||_2``; times ``1 + ||B|| + ||A|| ||Y|| ||C||``
    coupling: float = 1e-9
    #: largest ``lambda_max`` of the NI/OSNI certificate matrix; times
    #: ``1 + ||A|| ||Y||``
    lyapunov_inequality: float = 1e-8

    # -- synthesis (synth) --
    #: room ``2 - eps - c`` at most this leaves no admissible output-strict
    #: ``H`` (absolute)
    osni_h_room: float = 1e-12
    #: the SSNI Lyapunov residual must stay below minus this; times
    #: ``||A00||_2``
    ssni_margin: float = 1e-8
    #: largest ``||K13^T K13 - I||_2`` of an orthonormal ``K13`` (absolute)
    orthonormal: float = 1e-8
    #: largest distance of the SSNI loop's DC gain from its target; times
    #: ``1 + ||T_y^-1 Y2 T_y^-T||_2``
    dc_gain: float = 1e-8
    #: the DC condition's margin below ``1 / gamma``, relative
    dc_condition: float = 1e-12


TOL = Tol()


#: entry types numpy reads as numbers that ``as_matrix`` refuses: a JSON
#: string such as ``"1.5"`` and a JSON boolean
_NOT_NUMBERS = frozenset({str, bytes, bool, np.str_, np.bytes_, np.bool_})


def as_matrix(M, name="matrix", square=False, dtype=float):
    """Return ``M`` as a validated 2-D float array (finite entries only).

    Anything numpy cannot read as a numeric array (a JSON object, a ragged
    list, an integer beyond the float range) is an ``InputError``, and so
    is a string or boolean entry of an ``M`` that is not an ndarray yet,
    which numpy would read as a number.
    """
    try:
        A = np.asarray(M, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{name} must be a matrix of numbers: {exc}") from exc
    if not isinstance(M, np.ndarray) and not _NOT_NUMBERS.isdisjoint(
            map(type, np.asarray(M, dtype=object).flat)):
        raise InputError(f"{name} must be a matrix of numbers, not strings "
                         "or booleans")
    if A.ndim == 0:
        A = A.reshape(1, 1)
    if A.ndim != 2:
        raise InputError(f"{name} must be 2-D, got ndim={A.ndim}")
    if A.size and not np.isfinite(A).all():
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


def frobenius_norm(X, axis=None):
    """``np.linalg.norm(X, axis=axis)`` of a float or complex array, bit
    for bit, by numpy's own formula without its dispatch: with ``axis``
    None the Frobenius norm, ``sqrt(x . x)`` of the raveled array (the dots
    of its real and imaginary parts when complex), as a Python float; with
    ``axis`` 0 or 1 the Euclidean norms of the columns or rows."""
    if axis is None:
        x = X.ravel(order="K")
        if x.dtype.kind == "c":
            re, im = x.real, x.imag
            return math.sqrt(re.dot(re) + im.dot(im))
        return math.sqrt(x.dot(x))
    return np.sqrt(np.add.reduce((X.conj() * X).real, axis=axis))


def scaled_norm(X):
    """``(m, k)`` with ``||X||_F = m 2^k``: ``m`` is the norm of ``X 2^-k``,
    ``k`` the binary exponent of the largest magnitude, so ``m`` neither
    overflows nor underflows; binary scaling is exact."""
    _, k = math.frexp(float(np.abs(X).max(initial=0.0)))
    return frobenius_norm(np.ldexp(X, -k)), k


def safe_norm(X):
    """``||X||_F`` from ``scaled_norm``: finite wherever the norm is
    representable, and ``frobenius_norm(X)`` bit for bit wherever that
    neither overflows nor underflows."""
    m, k = scaled_norm(X)
    try:
        return math.ldexp(m, k)
    except OverflowError:  # a norm above the float range
        return math.inf


def frobenius_clears(X, low):
    """True when ``||X||_F <= low / 2``: since ``||X||_2 <= ||X||_F``
    (Golub & Van Loan, *Matrix Computations*, 2.3), a gate ``||X||_2 <=
    limit`` with ``limit >= low`` then passes without the SVD.  The factor
    1/2 leaves room for the rounding of both norms and of the limit, so
    the gate's verdict is the one ``spectral_norm`` would give."""
    return frobenius_norm(X) <= low / 2.0


def condition_clears(M, Minv):
    """True when ``kappa_F = ||M||_F ||Minv||_F``, for the ``n x n`` ``M``
    and its computed inverse ``Minv``, is at most ``TOL.rank_clearance /
    (n TOL.rank)``: since ``kappa_2(M) <= kappa_F`` (Golub & Van Loan,
    *Matrix Computations*, 2.6), ``rank(M) = n`` then holds without the
    SVD.  The margin is the SVD's own rounding: its singular values are
    exact for ``M + E`` with ``||E||_2 <= p(n) eps ||M||_2`` (ibid., 8.6),
    so ``rank``'s rule ``s_min > n eps s_max`` holds whenever ``1 /
    kappa_2 >= n eps / TOL.rank_clearance`` exceeds ``(n + 2 p(n)) eps``,
    for any ``p(n)`` below ``499 n``; the inverse's own relative error,
    about ``kappa_2 eps`` per entry, is then below ``1e-3 / n``.  A
    ``kappa_F`` that overflows, or is nan, clears nothing."""
    with np.errstate(over="ignore"):
        kappa = frobenius_norm(M) * frobenius_norm(Minv)
    return kappa <= TOL.rank_clearance / (M.shape[0] * TOL.rank)


def full_rank_inverse(M):
    """``M^{-1}`` of the nonempty square ``M`` when ``rank`` calls it of
    full rank, else None.  The inverse is formed first, and
    ``condition_clears`` of the pair passes the rank gate without the SVD;
    only an inverse LAPACK refuses, or a pair the bound leaves open, asks
    ``rank``.  A matrix ``rank`` passes but LAPACK cannot invert raises
    LAPACK's ``LinAlgError``, as inverting it after the rank test would."""
    try:
        Minv = np.linalg.inv(M)
    except np.linalg.LinAlgError:
        Minv = None
    if Minv is not None and condition_clears(M, Minv):
        return Minv
    if rank(M) < M.shape[0]:
        return None
    return np.linalg.inv(M) if Minv is None else Minv


class StabilityClass(Enum):
    HURWITZ = "hurwitz"
    LYAPUNOV_STABLE = "lyapunov-stable"
    UNSTABLE = "unstable"


@dataclass(frozen=True)
class EigenResult:
    """Eigendecomposition with per-eigenvalue multiplicities.

    ``values`` are sorted by (real, imag); ``vectors[:, k]`` is the right
    eigenvector of ``values[k]``.  ``algebraic``/``geometric`` hold the
    multiplicities of the cluster each eigenvalue belongs to; ``norm`` and
    ``smin`` are the largest and smallest singular values of the decomposed
    matrix, from one SVD.  ``left`` holds the left eigenvectors, computed
    once on first use when the eigenbasis is trusted; the hot paths that
    work in the eigenbasis key on it.  ``right_norms`` and ``left_norms``
    cache the Euclidean norms of the columns of ``vectors`` and of the
    rows of ``left``, and ``screen_scale`` the PBH screen's factor.
    """

    values: np.ndarray
    vectors: np.ndarray
    algebraic: np.ndarray
    geometric: np.ndarray
    norm: float
    smin: float

    @property
    def axis_tol(self):
        """``TOL.axis (1 + norm)``: an eigenvalue this close to the imaginary
        axis is ``on_axis``, to the real axis real, to zero ``at_origin``."""
        return TOL.axis * (1.0 + self.norm)

    @property
    def on_axis(self):
        return np.abs(self.values.real) <= self.axis_tol

    @property
    def at_origin(self):
        return np.abs(self.values) <= self.axis_tol

    @property
    def singular(self):
        """``rank``'s rule, ``smin <= n TOL.rank norm``; ``nearly_singular``,
        ``TOL.nearly_singular``'s band.  An empty matrix is neither."""
        n = self.values.size
        return n > 0 and self.smin <= n * TOL.rank * self.norm

    @property
    def nearly_singular(self):
        return self.values.size > 0 and \
            self.smin <= TOL.nearly_singular * (1 + self.norm)

    @cached_property
    def left(self):
        """``W = V^{-1}``, whose row ``k`` is a left eigenvector of
        ``values[k]`` with ``W[k] @ vectors[:, k] = 1``; None unless the
        eigenbasis is trusted, ``kappa_2(V) <= TOL.eigenbasis``.

        Work done in the eigenbasis loses about ``kappa_2(V) eps`` relative
        accuracy, so the bound keeps it under 1e-9 (the bound acceptance
        criterion 4b puts on its modal reference); defective and nearly
        defective matrices get None and their callers take the direct
        route.  ``V`` has unit columns, so ``max|W| <= kappa_2(V) <=
        ||V||_F ||W||_F``: the SVD of ``V`` decides only when these bounds
        leave the gate open.  ``max|W|`` is tested first, as the Frobenius
        norm of an exactly defective matrix's ``W`` overflows."""
        V = self.vectors
        if V.size == 0:
            return V
        try:
            W = np.linalg.inv(V)
        except np.linalg.LinAlgError:
            return None
        if not np.abs(W).max() <= TOL.eigenbasis:
            return None
        if frobenius_norm(V) * frobenius_norm(W) <= TOL.eigenbasis:
            return W
        s = np.linalg.svd(V, compute_uv=False)
        return W if s[0] <= TOL.eigenbasis * s[-1] else None

    @cached_property
    def right_norms(self):
        """``||vectors[:, k]||`` for each ``k``."""
        return frobenius_norm(self.vectors, axis=0)

    @cached_property
    def left_norms(self):
        """``||left[k]||`` for each ``k``; None when ``left`` is."""
        W = self.left
        return None if W is None else frobenius_norm(W, axis=1)

    @cached_property
    def screen_scale(self):
        """``TOL.pbh_screen ||left[k]|| ||vectors[:, k]||`` for each ``k``,
        the bound of ``pbh_screen`` per unit of its scale; None when
        ``left`` is."""
        w_norm = self.left_norms
        return None if w_norm is None else \
            TOL.pbh_screen * w_norm * self.right_norms

    def pbh_screen(self, M, mode):
        """The eigenvalues that pass the PBH test of the decomposed ``A``
        and ``M`` (controllable or observable) without an SVD: a boolean
        array over ``values``, True where the eigenvalue is simple and its
        unit left eigenvector ``w_k`` (controllable) or unit right
        eigenvector ``v_k`` (observable) keeps ``||w_k^H M||`` or ``||M
        v_k||`` above ``TOL.pbh_screen s_k (norm + ||M||_F)``, with ``s_k =
        ||w_k|| ||v_k||`` the condition number of the eigenvalue for
        ``w_k^H v_k = 1``; the rank tolerance grows with ``||A||``, so the
        bound does too.  All False when the eigenbasis is not trusted
        (``left`` is None)."""
        W = self.left
        if W is None:
            return np.zeros(self.values.size, dtype=bool)
        if mode == "controllable":
            reach = frobenius_norm(W @ M, axis=1) / self.left_norms
        else:
            reach = frobenius_norm(M @ self.vectors, axis=0) / \
                self.right_norms
        bound = self.screen_scale * (self.norm + frobenius_norm(M))
        return (self.algebraic == 1) & (reach > bound)


def carried_spectrum(res, keep, vectors, block, left):
    """``eig(block)`` from eigen-data already held: ``block`` is similar
    to the restriction of the matrix ``res = eig(.)`` decomposed to the
    invariant subspace of its eigenvalues ``keep`` (a boolean mask), and
    ``vectors`` are their eigenvectors carried to ``block`` by that
    similarity, column ``k`` that of ``res.values[keep][k]`` (Golub & Van
    Loan, *Matrix Computations*, ch. 7), with the inverse ``left``.  The
    values and multiplicities are those of ``res``; ``norm`` and ``smin``
    come from the SVD of ``block``, or are those of ``res`` when ``block``
    is None (the block is that matrix itself, or its transpose)."""
    if block is None:
        norm, smin = res.norm, res.smin
    else:
        sv = np.linalg.svd(block, compute_uv=False)
        norm, smin = float(sv[0]), float(sv[-1])
    out = EigenResult(res.values[keep], vectors, res.algebraic[keep],
                      res.geometric[keep], norm, smin)
    # the cached_property's slot: a frozen dataclass refuses setattr
    out.__dict__["left"] = left
    return out


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
                           empty.astype(int), empty.astype(int), 0.0, 0.0)
    try:
        values, vectors = np.linalg.eig(A)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise EigNonConvergenceError(f"eigenvalue iteration failed: {exc}") from exc
    order = np.lexsort((values.imag, values.real))
    values = values[order]
    vectors = vectors[:, order]
    # sorted singular values: the first is spectral_norm's, bit for bit
    sv = np.linalg.svd(A, compute_uv=False)
    norm, smin = float(sv[0]), float(sv[-1])
    alg = np.ones(n, dtype=int)
    geo = np.ones(n, dtype=int)
    radius = TOL.cluster * norm
    if np.count_nonzero(np.abs(values[:, None] - values) <= radius) == n:
        # no two eigenvalues within the radius (the common case): every
        # cluster is a singleton, and the sweep is not needed
        return EigenResult(values, vectors, alg, geo, norm, smin)
    for members in _cluster(values, radius):
        if len(members) == 1:
            continue
        mu = values[members].mean()
        alg[members] = len(members)
        # every eigenvalue has an eigenvector, and the rank tolerance
        # can swallow a nearby cluster: keep g within [1, cluster size]
        geo[members] = min(max(n - rank(A - mu * np.eye(n)), 1), len(members))
    return EigenResult(values, vectors, alg, geo, norm, smin)


def rank(M):
    """Number of singular values above ``max(shape) TOL.rank s_max``."""
    M = np.asarray(M)
    if M.size == 0:
        return 0
    return sv_rank(np.linalg.svd(M, compute_uv=False), M.shape)


def sv_rank(s, shape):
    """``rank`` of a matrix of ``shape`` from its sorted singular values
    ``s``, for callers that use the SVD for more than the rank."""
    return int(np.count_nonzero(s > max(shape) * TOL.rank * s[0]))


def symmetrize(M, name="matrix"):
    """Check near-symmetry (Hermitian for complex) by ``hermitian_defect``
    and return (M + M*)/2."""
    M = np.asarray(M)
    defect, hermitian = hermitian_defect(M)
    if not hermitian:
        raise AsymmetricMatrixError(
            f"{name} is not symmetric within tolerance (defect {defect:.3e})")
    return (M + M.conj().T) / 2.0


def hermitian_defect(M):
    """``(||M - M*||_2, within TOL.hermitian max(1, ||M||_2))``; an exactly
    Hermitian ``M`` has no defect to measure and takes no SVD."""
    Mh = M.conj().T
    if M.shape == Mh.shape and (M == Mh).all():
        return 0.0, True
    defect = spectral_norm(M - Mh)
    return defect, defect <= TOL.hermitian * max(1.0, spectral_norm(M))


def pd_floor(lam):
    """``dim TOL.definite max|lambda|`` for the eigenvalues ``lam`` of a
    symmetric matrix (0.0 for none); an eigenvalue within it is zero."""
    return len(lam) * TOL.definite * float(np.abs(lam).max(initial=0.0))


def definiteness(M, mode):
    """Test definiteness of a symmetric/Hermitian matrix.

    Parameters
    ----------
    mode : {"pd", "psd"}
        Positive definite or semidefinite, with eigenvalue tolerance
        ``pd_floor``.
    """
    if mode not in ("pd", "psd"):
        raise InputError(f"unknown definiteness mode {mode!r}")
    M = symmetrize(as_matrix(M, "M", square=True, dtype=None), "M")
    if M.shape[0] == 0:
        return True
    lam = np.linalg.eigvalsh(M)
    if mode == "pd":
        return bool(lam[0] > pd_floor(lam))
    return bool(lam[0] >= -pd_floor(lam))


def solve_lyapunov(A, Q, spectrum=None):
    """Solve ``A^T P + P A = -Q`` for symmetric ``Q``.

    In the eigenbasis ``A = V diag(lambda) W`` with ``W = V^{-1}``, the
    equation decouples: ``X = -(V^T Q V) / (lambda_i + lambda_j)``
    entrywise and ``P = Re(W^T X W)``, O(n^3) from one ``eig(A)``, or
    none when the caller passes ``spectrum``, an ``EigenResult`` of ``A``
    (``carried_spectrum``).  When that eigenbasis is not trusted
    (``EigenResult.left`` is None) or the residual gate rejects its ``P``,
    the equation is vectorized into an n^2 x n^2 dense system instead.
    Raises
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
    res = eig(A) if spectrum is None else spectrum
    vals = res.values
    scale = 1.0 + float(np.abs(vals).max())
    pair_sums = vals[:, None] + vals[None, :]
    gap = np.abs(pair_sums).min()
    if gap <= TOL.lyapunov_singular * scale:
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
    """Residual ``||A^T P + P A + Q||_2`` and the bound ``TOL.lyapunov_residual
    (||A||_2 ||P||_2 + ||Q||_2)`` it must meet.  No entry of a matrix
    exceeds its 2-norm, so the bound with the largest entries of ``P`` and
    ``Q`` is a lower one; when ``frobenius_clears`` decides the gate with
    it, the pair is ``(||R||_F, low / 2)``, which meets the gate as well,
    and no SVD is taken."""
    R = A.T @ P + P @ A + Q
    low = TOL.lyapunov_residual * (a_norm * np.abs(P).max()
                                   + np.abs(Q).max())
    r_norm = frobenius_norm(R)
    if r_norm <= low / 2.0:  # frobenius_clears(R, low), R's norm kept
        return r_norm, low / 2.0
    residual = spectral_norm(R)
    bound = TOL.lyapunov_residual * (a_norm * spectral_norm(P)
                                     + spectral_norm(Q))
    return residual, bound


def sqrtm_pd(P):
    """Unique positive definite square root of a symmetric PD matrix."""
    P = symmetrize(as_matrix(P, "P", square=True), "P")
    if P.shape[0] == 0:
        return np.zeros((0, 0))
    lam, V = np.linalg.eigh(P)
    if lam[0] <= pd_floor(lam):
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite (lambda_min {lam[0]:.3e})")
    S = (V * np.sqrt(lam)) @ V.T
    return (S + S.T) / 2.0


#: 1-norm up to which the degree-13 Pade approximant of e^M is accurate to
#: unit roundoff (Higham, SIAM J. Matrix Anal. Appl. 26, 2005, Table 2.3)
THETA_13 = 5.371920351148152
PADE_13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)


def expm(M):
    """Matrix exponential ``e^M`` by scaling and squaring with the
    degree-13 Pade approximant (Higham 2005).

    ``M`` is scaled by ``2^-s``, the least power that brings its 1-norm
    to ``THETA_13``, and the approximant is squared ``s`` times.  An entry
    that overflows in the squarings comes back inf or nan without a
    warning, as does every entry when ``||M||_1`` itself is not finite:
    the caller tests the result.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        norm = float(np.abs(M).sum(axis=0).max(initial=0.0))
    if norm == 0.0:
        return np.eye(n)
    if not np.isfinite(norm):
        return np.full((n, n), np.nan)
    s = max(0, int(np.ceil(np.log2(norm / THETA_13))))
    A = M / 2.0 ** s
    b, eye = PADE_13, np.eye(n)
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye)
    E = np.linalg.solve(V - U, V + U)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(s):
            E = E @ E
    return E


def pbh_failures(A, M, mode, spectrum):
    """PBH rank test at every eigenvalue of ``spectrum = eig(A)``.

    Returns a boolean array over ``spectrum.values``, True where
    ``rank [lambda I - A, M] < n`` (``mode="controllable"``) or
    ``rank [lambda I - A; M] < n`` (``mode="observable"``), the ranks
    decided by ``rank``.  An eigenvalue ``EigenResult.pbh_screen`` passes
    takes no SVD; repeated eigenvalues, eigenvalues under the screen's
    bound and every eigenvalue of a numerically defective ``A``
    (``spectrum.left`` is None) take the rank test, so every failure is
    decided by it.
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
    screened = spectrum.pbh_screen(M, mode)
    if screened.all():
        return failed
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

    Hurwitz: every ``Re lambda < -res.axis_tol``.  Lyapunov stable: every
    ``Re lambda <= res.axis_tol``, each eigenvalue ``on_axis`` semisimple.
    """
    re = res.values.real
    if (re < -res.axis_tol).all():
        return StabilityClass.HURWITZ
    if (re > res.axis_tol).any():
        return StabilityClass.UNSTABLE
    critical = res.on_axis
    if (res.algebraic[critical] != res.geometric[critical]).any():
        return StabilityClass.UNSTABLE
    return StabilityClass.LYAPUNOV_STABLE
