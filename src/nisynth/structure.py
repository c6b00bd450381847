"""Structural analysis: relative degrees, output transformations, normal form.

The central object is the normal form of a square system whose (possibly
output-transformed) relative degrees are all 1 or 2.  State blocks are
``(z, x1, x2, x3)``: internal dynamics ``z``, the degree-1 outputs ``x1``,
and the degree-2 output chain ``x2, x3 = x2dot``.  The input enters only
the ``x1`` and ``x3`` rows, through an invertible input transform; the
free ``z`` rows (Isidori, 1995) are taken in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .errors import (
    InputError,
    NoRdLeqTwoError,
    NotControllableError,
    NotWeaklyMinimumPhaseError,
    NumericalError,
    VerdictError,
)
from .linalg import TOL, StabilityClass, as_matrix, spectral_norm
from .statespace import StateSpace


@dataclass(frozen=True)
class RelativeDegreeInfo:
    """Relative degrees of a system's outputs, read from ``C B`` and
    ``C A B``.

    ``r[i]`` is 1 when row ``i`` of ``C B`` is nonzero, else 2 when row
    ``i`` of ``C A B`` is, else the string ``">=3"``.  ``p1 = rank(C B)``
    and ``p2`` is the rank of the decoupling block ``U2^T C A B V2``, with
    ``U2`` and ``V2`` the singular vectors of ``C B`` past ``p1``.  The
    decoupling matrix ``[U1^T C B; U2^T C A B]`` times ``[V1 V2]`` is
    block lower triangular with that block last, so an output
    transformation gives every output degree 1 or 2 exactly when ``p1 +
    p2 = p`` (``find_output_transformation``).
    """

    r: tuple
    p1: int
    p2: int


def _decoupling(sys, C):
    """``(info, U)`` for the outputs ``C`` of the square ``sys``: the
    ``RelativeDegreeInfo`` and the left singular vectors ``U`` of ``C B``.

    An entry of ``C B`` or ``C A B`` is zero up to ``TOL.markov_zero
    ||C||_F ||B||_F`` or ``TOL.markov_zero ||C||_F ||A||_F ||B||_F``, each
    norm ``linalg.safe_norm``'s: rows by their norms, ranks by their
    singular values.  Refuses ``D != 0`` and, where the decoupling matrix
    is singular, ``rank(B) < p`` or ``rank(C) < p`` (``InputError``), which
    a nonsingular one rules out; a product or threshold that overflows is
    ``NumericalError``.
    """
    if sys.D.any():
        raise InputError("relative-degree analysis requires a strictly "
                         "proper system (D = 0)")
    A, B = sys.A, sys.B
    p = C.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        CB, CAB = C @ B, C @ A @ B
        zero_cb = TOL.markov_zero * (linalg.safe_norm(C)
                                     * linalg.safe_norm(B))
        zero_cab = zero_cb * linalg.safe_norm(A)
        finite = np.isfinite(CAB).all() and math.isfinite(zero_cab)
        rows = zip(linalg.frobenius_norm(CB, axis=1),
                   linalg.frobenius_norm(CAB, axis=1))
    if not finite:
        raise NumericalError("the Markov parameters C B, C A B or their zero "
                             "thresholds overflow")
    U, s, Vt = np.linalg.svd(CB)
    p1 = int(np.count_nonzero(s > zero_cb))
    p2 = 0
    if p1 < p:
        block = U[:, p1:].T @ CAB @ Vt[p1:].T
        p2 = int(np.count_nonzero(
            np.linalg.svd(block, compute_uv=False) > zero_cab))
        if p1 + p2 < p and (linalg.rank(B) < p or linalg.rank(C) < p):
            raise InputError(
                "relative-degree analysis requires rank(B) = rank(C) = p")
    r = tuple(1 if cb > zero_cb else 2 if cab > zero_cab else ">=3"
              for cb, cab in rows)
    return RelativeDegreeInfo(r, p1, p2), U


def relative_degree_vector(sys):
    """Relative degree of each output row, 1, 2 or ``">=3"``, with ``p1``
    and ``p2`` (``RelativeDegreeInfo``).  Requires a strictly proper
    system (``D = 0``), as the theorem does; the errors are
    ``_decoupling``'s."""
    sys.require_square("relative-degree analysis")
    return _decoupling(sys, sys.C)[0]


def find_output_transformation(sys):
    """``T_y`` making the output-transformed system relative degree at
    most two, with the ``RelativeDegreeInfo`` of its outputs.

    ``T_y = [U1 U2]^T`` from the SVD of ``C B``, so it is orthogonal: its
    first ``p1 = rank(C B)`` outputs have degree 1 and the others degree
    2 when the decoupling matrix ``[U1^T C B; U2^T C A B]`` is
    nonsingular (Isidori, *Nonlinear Control Systems*, 1995; Silverman,
    IEEE TAC 14(3), 1969).  When it is singular, ``NoRdLeqTwoError``
    certifies that no output transformation achieves degrees <= 2 (the
    system is not state-feedback equivalent to a negative imaginary
    system when it is minimal with no zero at the origin).  The search
    reads ``C B`` and ``C A B`` alone and requires no controllability;
    ``to_normal_form`` decides it.
    """
    p = sys.require_square("output-transformation search")
    info, U = _decoupling(sys, sys.C)
    if info.p1 + info.p2 < p:
        raise NoRdLeqTwoError(
            "no output transformation yields relative degree <= 2: the "
            "decoupling matrix [U1^T C B; U2^T C A B] is singular")
    return U.T, RelativeDegreeInfo((1,) * info.p1 + (2,) * info.p2,
                                   info.p1, info.p2)


def _checked_inverse(M, name):
    """The inverse of the transform ``M``, under ``TransformSet.build``'s
    two gates."""
    n = M.shape[0]
    if not n:
        return M.copy()
    Minv = linalg.full_rank_inverse(M)
    if Minv is None:
        raise InputError(f"{name} is singular")
    # an entry that overflows shows as inf, which clears nothing
    with np.errstate(over="ignore", invalid="ignore"):
        defect = M @ Minv
        defect.flat[::n + 1] -= 1.0  # minus I
        cleared = linalg.frobenius_clears(defect, TOL.inverse_residual)
    if not cleared:
        residual = spectral_norm(defect)
        limit = TOL.inverse_residual * max(1.0, spectral_norm(M))
        if residual > limit:
            raise NumericalError(
                f"{name} inverse residual {residual:.3e} too large")
    return Minv


@dataclass(frozen=True)
class TransformSet:
    """Output/state/input transforms with recorded inverses."""

    T_y: np.ndarray
    T_x: np.ndarray
    T_u: np.ndarray
    T_y_inv: np.ndarray
    T_x_inv: np.ndarray
    T_u_inv: np.ndarray

    @classmethod
    def build(cls, T_y, T_x, T_u):
        """The transforms and their inverses.  Refuses a transform that
        ``rank`` calls singular (``InputError``) and one whose inverse
        misses ``||T T^-1 - I||_2 <= TOL.inverse_residual max(1,
        ||T||_2)`` (``NumericalError``).  Each inverse comes from
        ``linalg.full_rank_inverse``, and ``frobenius_clears`` of its
        defect at the limit's floor ``TOL.inverse_residual`` passes the
        residual gate: a transform clear of both bounds takes no SVD, and
        every verdict is the SVD's."""
        mats = {}
        for name, M in (("T_y", T_y), ("T_x", T_x), ("T_u", T_u)):
            M = as_matrix(M, name, square=True)
            mats[name] = (M, _checked_inverse(M, name))
        return cls(T_y=mats["T_y"][0], T_x=mats["T_x"][0], T_u=mats["T_u"][0],
                   T_y_inv=mats["T_y"][1], T_x_inv=mats["T_x"][1],
                   T_u_inv=mats["T_u"][1])

    def to_dict(self):
        return {"T_y": self.T_y.tolist(), "T_x": self.T_x.tolist(),
                "T_u": self.T_u.tolist()}


@dataclass(frozen=True)
class NormalForm:
    """Block decomposition of a degree-(1,2) system.

    The transformed state matrix has rows ``(z, x1, x2, x3)`` with the x2
    row structurally equal to ``[0 0 0 I]``; the transformed input matrix
    is the indicator of the (x1, x3) rows.  ``rd_info`` holds the relative
    degrees of ``T_y C`` for the given or found ``T_y``, before sorting.
    ``zero_spectrum`` caches ``eig(A00)`` for the split and the syntheses.
    """

    p1: int
    p2: int
    m: int
    A00: np.ndarray
    A01: np.ndarray
    A02: np.ndarray
    A03: np.ndarray
    A10: np.ndarray
    A11: np.ndarray
    A12: np.ndarray
    A13: np.ndarray
    A30: np.ndarray
    A31: np.ndarray
    A32: np.ndarray
    A33: np.ndarray
    transforms: TransformSet
    source: StateSpace
    rd_info: RelativeDegreeInfo

    @property
    def n(self):
        return self.m + self.p1 + 2 * self.p2

    @property
    def p(self):
        return self.p1 + self.p2

    @cached_property
    def zero_spectrum(self):
        """``linalg.eig(A00)``, the spectrum of the internal dynamics,
        computed once per normal form."""
        return linalg.eig(self.A00)

    @cached_property
    def chain_input(self):
        """``A00 A03 + A02``: with ``x3 = x2dot``, the degree-2 outputs'
        input to the internal dynamics, the second controllability pair
        ``(A00, A00 A03 + A02)`` of the syntheses."""
        return self.A00 @ self.A03 + self.A02

    @cached_property
    def screened_minimal(self):
        """True when ``EigenResult.pbh_screen`` passes every mode of the
        internal dynamics for both PBH pairs below: then the source system
        is minimal, and its ``A`` need not be decomposed to show it.

        The input enters the x1 and x3 rows and the outputs are x1 and x2,
        so a mode can fail the PBH test only at an eigenvalue of ``A00``,
        where a pole cancels an invariant zero (Kailath, *Linear Systems*,
        1980): it is uncontrollable iff a left eigenvector ``w`` of ``A00``
        there has ``w^H [A01, A00 A03 + A02] = 0``, and unobservable iff a
        right eigenvector ``v`` has ``[A10; A30] v = 0``.  False decides
        nothing; the source's own PBH test does (``is_minimal``).  The full
        PBH test of these blocks is no substitute: its rank rule, at the
        scale of rounding, does not survive the conditioning of ``T_x``."""
        res = self.zero_spectrum
        return bool(
            res.pbh_screen(np.hstack([self.A01, self.chain_input]),
                           "controllable").all()
            and res.pbh_screen(np.vstack([self.A10, self.A30]),
                               "observable").all())


def normal_form_input_matrix(m, p1, p2):
    n, p = m + p1 + 2 * p2, p1 + p2
    B = np.zeros((n, p))
    # the diagonals of the x1 and x3 rows: an identity each
    B[m:m + p1, :p1].flat[::p1 + 1] = 1.0
    B[m + p1 + p2:, p1:].flat[::p2 + 1] = 1.0
    return B


def normal_form_output_matrix(m, p1, p2):
    n, p = m + p1 + 2 * p2, p1 + p2
    C = np.zeros((p, n))
    # output k reads x1_k or, past p1, x2_(k - p1): column m + k
    C[:, m:m + p].flat[::p + 1] = 1.0
    return C


def _internal_rows(B, C_T):
    """Orthonormal basis of the common left null space of ``B`` and
    ``C_T^T``, from a complete Householder QR (Golub & Van Loan, 5.2)."""
    k = B.shape[1] + C_T.shape[0]
    return np.linalg.qr(np.hstack([B, C_T.T]), mode="complete")[0][:, k:].T


def _require_controllable(sys):
    """The normal form's controllability verdict: the PBH test of ``sys``."""
    if sys.controllability_failures.any():
        raise NotControllableError(
            "the normal form requires a controllable system")


def to_normal_form(sys, T_y=None, T_x=None, T_u=None):
    """Transform a degree-(1,2) system into normal form.

    ``T_y`` defaults to the one ``find_output_transformation`` finds; a
    supplied one must give the outputs ``T_y C`` degrees 1 and 2 with
    ``p1 + p2 = p`` (``_decoupling``).  Rows are sorted so degree-1
    outputs precede degree-2 (the permutation is folded into ``T_y``).
    The state transform stacks the internal rows ``Cz`` (``_internal_rows``,
    smooth in ``B`` and ``C_T``) over ``[C_O; C_T; C_T A]``; the input
    transform is ``T_u = [C_O; C_T A] B``.  ``T_x`` is nonsingular when
    ``T_u`` is: times ``B``, then ``C_T^T``, a vanishing row combination
    leaves ``T_u`` and ``C_T C_T^T > 0``.  Explicit ``T_x``/``T_u`` may be
    supplied to pin a particular choice; they are validated against the
    same structure.

    Requires a controllable system.  An ``InputError`` comes first; then,
    when the degrees or the normal form fail or ``NormalForm.screened_minimal``
    cannot prove ``sys`` minimal, the PBH test of ``sys`` decides
    (``NotControllableError``).  A screened plant's ``A`` is not decomposed.
    """
    p = sys.require_square("normal form")
    if T_y is not None:
        T_y = as_matrix(T_y, "T_y", square=True)
        if T_y.shape[0] != p:
            raise InputError(f"T_y must be {p}x{p}")
    try:
        if T_y is None:
            T_y, info = find_output_transformation(sys)
        else:
            info = _decoupling(sys, T_y @ sys.C)[0]
        nf = _normal_form(sys, T_y, info, T_x, T_u)
    except (VerdictError, NumericalError, np.linalg.LinAlgError):
        _require_controllable(sys)
        raise
    if not nf.screened_minimal:
        _require_controllable(sys)
    return nf


def _normal_form(sys, T_y, info, T_x, T_u):
    """``to_normal_form`` for the output transform ``T_y`` and the
    relative degrees ``info`` of its outputs."""
    p = sys.n_outputs
    A, B = sys.A, sys.B
    n = sys.n
    p1, p2 = info.p1, info.p2
    if p1 + p2 < p or info.r.count(1) != p1 or info.r.count(2) != p2:
        raise InputError(
            "T_y does not yield a relative degree vector with degrees in "
            f"{{1, 2}} (got r={info.r}, p1={p1}, p2={p2})")
    order = sorted(range(p), key=lambda i: (info.r[i], i))
    T_y_eff = T_y[order, :]
    m = n - p - p2
    if m < 0:
        raise InputError("state dimension too small for the degree structure")
    Ct = T_y_eff @ sys.C
    C_O, C_T = Ct[:p1, :], Ct[p1:, :]
    base = np.vstack([C_O, C_T, C_T @ A])

    T_u_expected = np.vstack([C_O, C_T @ A]) @ B
    if T_u is None:
        T_u = T_u_expected
    else:
        T_u = as_matrix(T_u, "T_u", square=True)
        if T_u.shape[0] != p:
            raise InputError(f"T_u must be {p}x{p}")
        # this limit and those of T_x are TOL.supplied_transform times at
        # least 1: frobenius_clears passes them without the SVDs
        defect = T_u - T_u_expected
        if not linalg.frobenius_clears(defect, TOL.supplied_transform) and \
                spectral_norm(defect) > TOL.supplied_transform * max(
                    1.0, spectral_norm(T_u_expected)):
            raise InputError(
                "supplied T_u does not match the input transform implied by "
                "T_y (it is determined by [C_O; C_T A] B)")

    if T_x is None:
        T_x = np.vstack([_internal_rows(B, C_T), base])
    else:
        T_x = as_matrix(T_x, "T_x", square=True)
        if T_x.shape[0] != n:
            raise InputError(f"T_x must be {n}x{n}")
        defect, leak = T_x[m:, :] - base, T_x[:m, :] @ B
        if not (linalg.frobenius_clears(defect, TOL.supplied_transform)
                and linalg.frobenius_clears(leak, TOL.supplied_transform)):
            scale = max(1.0, spectral_norm(T_x))
            if spectral_norm(defect) > TOL.supplied_transform * scale:
                raise InputError(
                    "supplied T_x rows m..n must equal [C_O; C_T; C_T A]")
            if m and spectral_norm(leak) > \
                    TOL.supplied_transform * scale * max(1.0, spectral_norm(B)):
                raise InputError(
                    "supplied T_x internal rows must annihilate B")

    transforms = TransformSet.build(T_y_eff, T_x, T_u)
    At = transforms.T_x @ A @ transforms.T_x_inv
    Bt = transforms.T_x @ B @ transforms.T_u_inv
    # each defect's limit TOL.normal_form max(1, norm) is at least
    # TOL.normal_form: frobenius_clears passes it without the SVDs
    x2_defect = At[m + p1:m + p1 + p2, :].copy()
    x2_defect[:, m + p1 + p2:].flat[::p2 + 1] -= 1.0  # minus I
    if not linalg.frobenius_clears(x2_defect, TOL.normal_form) and \
            spectral_norm(x2_defect) > \
            TOL.normal_form * max(1.0, spectral_norm(At)):
        raise NumericalError(
            "normal-form structure check failed on the x2 rows")
    b_defect = Bt - normal_form_input_matrix(m, p1, p2)
    if not linalg.frobenius_clears(b_defect, TOL.normal_form) and \
            spectral_norm(b_defect) > \
            TOL.normal_form * max(1.0, spectral_norm(Bt)):
        raise NumericalError(
            "normal-form structure check failed on the input matrix")

    s0, s1, s2, s3 = slice(0, m), slice(m, m + p1), \
        slice(m + p1, m + p1 + p2), slice(m + p1 + p2, n)
    return NormalForm(
        p1=p1, p2=p2, m=m,
        A00=At[s0, s0], A01=At[s0, s1], A02=At[s0, s2], A03=At[s0, s3],
        A10=At[s1, s0], A11=At[s1, s1], A12=At[s1, s2], A13=At[s1, s3],
        A30=At[s3, s0], A31=At[s3, s1], A32=At[s3, s2], A33=At[s3, s3],
        transforms=transforms, source=sys, rd_info=info)


@dataclass(frozen=True)
class ZeroDynamicsSplit:
    """Similarity splitting the internal dynamics into a skew-symmetric
    imaginary-axis block and a Hurwitz block.

    ``S_inv = [V_a, Q_b]`` is the split's basis and ``S`` its inverse;
    ``A00a`` is the skew part of the critical block in that basis, which
    is skew but for rounding, and ``A01``, ``A02``, ``A03`` are ``S`` times
    the normal form's blocks, their first ``m_a`` rows those of the
    critical block.  ``stability`` is the class of the internal
    dynamics: HURWITZ (minimum phase) or LYAPUNOV_STABLE (weakly minimum
    phase only).  ``hurwitz_spectrum`` is ``eig(A00b^T)`` carried from the
    normal form's ``zero_spectrum`` (``linalg.carried_spectrum``), for the
    syntheses' Lyapunov solve; None when that eigenbasis is not trusted or
    the block is empty.
    """

    stability: StabilityClass
    S: np.ndarray
    S_inv: np.ndarray
    A00a: np.ndarray
    A00b: np.ndarray
    m_a: int
    m_b: int
    A01: np.ndarray
    A02: np.ndarray
    A03: np.ndarray
    hurwitz_spectrum: linalg.EigenResult | None

    @property
    def A00(self):
        m = self.m_a + self.m_b
        out = np.zeros((m, m))
        out[:self.m_a, :self.m_a] = self.A00a
        out[self.m_a:, self.m_a:] = self.A00b
        return out


def _real_eigenbasis(res, vectors):
    """Real basis of the invariant subspace spanned by the eigenvectors
    ``vectors[:, k]`` of the eigenvalues ``res.values[k]`` ``on_axis``.

    A real eigenvalue contributes its (real) eigenvector.  A conjugate pair,
    which ``linalg.eig`` returns as exact conjugates, contributes
    (Re v, Im v) of its member with negative imaginary part.
    """
    cols = []
    lam, tol = res.values, res.axis_tol
    for k in np.flatnonzero(res.on_axis & (lam.imag <= tol)):
        v = vectors[:, k]
        cols += [v.real] if lam[k].imag >= -tol else [v.real, v.imag]
    return np.column_stack(cols) if cols else np.zeros((vectors.shape[0], 0))


def _complement_basis(U, k):
    """Orthonormal basis of the ``k``-dimensional complement of span ``U``,
    fixed by the subspace alone: Loewdin's ``P G (G^T P G)^(-1/2)``
    (J. Chem. Phys. 1950) for the projector ``P = I - Q Q^T``, ``Q`` from
    a QR of ``U``, and a constant Gaussian ``G``; it is the polar factor
    ``W Z^T`` of the thin SVD ``P G = W Sigma Z^T``."""
    Q = np.linalg.qr(U)[0]
    G = np.random.default_rng(0).standard_normal((U.shape[0], k))
    W, _, Zt = np.linalg.svd(G - Q @ (Q.T @ G), full_matrices=False)
    return W @ Zt


def split_zero_dynamics(nf):
    """Split the internal dynamics spectrum across the imaginary axis.

    Works from the cached ``nf.zero_spectrum``.  The critical block is
    spanned by the right eigenvectors ``on_axis``, the Hurwitz block by the
    complement of the left critical subspace: ``U_a`` is the rows of
    ``EigenResult.left`` there (``eig(A00^T)`` only when the eigenbasis is
    untrusted), and ``_complement_basis`` fixes the basis ``Q_b``, so no
    gain depends on which basis of span ``U_a`` LAPACK returns.  With
    ``V_a = [Re v, Im v]``, ``A00 V_a = V_a J`` for the real rotation form
    ``J``, so the critical block ``A_a`` is skew but for rounding; its skew
    part is taken, under the one gate ``||A_a + A_a^T||_2 <=
    TOL.skew_defect (1 + ||A_a||_2)``.  The Hurwitz block is not
    decomposed when the eigenbasis is trusted: with ``V`` and ``W =
    V^{-1}`` of ``A00``, it has the right eigenvectors ``Q_b^T V[hurw]``
    and left ones ``W[hurw] Q_b`` (``W`` and ``V`` when the block is
    ``A00``), which ``linalg.carried_spectrum`` hands, as
    ``hurwitz_spectrum``, to the syntheses.  The basis ``S_inv`` must be
    of full rank by ``rank``'s rule, which ``linalg.full_rank_inverse``
    decides from the inverse it forms, without an SVD when its bound
    clears.  Requires the internal dynamics Lyapunov stable and not
    ``singular`` (a zero at the origin); ``nearly_singular`` ones, an
    eigenvalue ``at_origin`` and a critical block the skew gate rejects
    are undecided (``NumericalError``, its message beginning ``internal
    dynamics:``).
    """
    A00 = nf.A00
    m = nf.m
    res = nf.zero_spectrum
    scale = 1.0 + res.norm
    klass = linalg.stability_class(res)
    if klass is StabilityClass.UNSTABLE:
        raise NotWeaklyMinimumPhaseError(
            "internal dynamics are not Lyapunov stable")
    if res.singular:
        raise VerdictError("plant has a zero at the origin")
    if res.nearly_singular or res.at_origin.any():
        raise NumericalError("internal dynamics: too close to singular to "
                             "decide on a zero at the origin")

    V, W = res.vectors, res.left
    crit = res.on_axis
    hurw = ~crit
    m_a = int(np.count_nonzero(crit))
    m_b = m - m_a
    hurwitz_spectrum = None
    if m_a == 0:
        S, S_inv = np.eye(m), np.eye(m)
        A00a = np.zeros((0, 0))
        A00b = A00.copy()
        if W is not None and m_b:
            # the block is A00: eig(A00^T) has the eigenvectors W^T
            hurwitz_spectrum = linalg.carried_spectrum(res, hurw, W.T, None,
                                                       V.T)
    else:
        V_a = _real_eigenbasis(res, V)
        if m_b == 0:
            Q_b = np.zeros((m, 0))
        else:
            if W is None:
                resT = linalg.eig(A00.T)
                U_a = _real_eigenbasis(resT, resT.vectors)
            else:
                U_a = _real_eigenbasis(res, W.T)
            Q_b = _complement_basis(U_a, m_b)
        S_inv = np.hstack([V_a, Q_b])
        S = linalg.full_rank_inverse(S_inv)
        if S is None:
            raise NumericalError(
                "internal dynamics: invariant-subspace basis is singular")
        Ad = S @ A00 @ S_inv
        limit = TOL.split_coupling * scale
        if not (linalg.frobenius_clears(Ad[:m_a, m_a:], limit)
                and linalg.frobenius_clears(Ad[m_a:, :m_a], limit)):
            off = max(spectral_norm(Ad[:m_a, m_a:]),
                      spectral_norm(Ad[m_a:, :m_a]))
            if off > limit:
                raise NumericalError(
                    f"internal dynamics: spectral split left coupling "
                    f"{off:.3e} between blocks")
        A_a = Ad[:m_a, :m_a]
        defect = A_a + A_a.T
        # the spectral radius bounds ||A_a||_2 from below
        low = TOL.skew_defect * (1.0 + np.abs(res.values[crit]).max())
        if not linalg.frobenius_clears(defect, low):
            skew_defect = spectral_norm(defect)
            if skew_defect > TOL.skew_defect * (1.0 + spectral_norm(A_a)):
                raise NumericalError(
                    f"internal dynamics: critical block skew defect "
                    f"{skew_defect:.3e}")
        A00a = (A_a - A_a.T) / 2.0
        A00b = Ad[m_a:, m_a:]
        if W is not None and m_b:
            hurwitz_spectrum = linalg.carried_spectrum(
                res, hurw, (W[hurw] @ Q_b).T, A00b.T, V[:, hurw].T @ Q_b)
    return ZeroDynamicsSplit(
        stability=klass, S=S, S_inv=S_inv, A00a=A00a, A00b=A00b,
        m_a=m_a, m_b=m_b, A01=S @ nf.A01, A02=S @ nf.A02, A03=S @ nf.A03,
        hurwitz_spectrum=hurwitz_spectrum)
