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
from enum import Enum
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


class RdKind(Enum):
    FULL = "full-rd-vector"
    LIRD_ONLY = "lird-only"
    NONE = "none"


@dataclass(frozen=True)
class RelativeDegreeInfo:
    """Per-output relative degrees and the high-frequency gain matrix.

    ``r[i]`` is the smallest j with ``C_i A^{j-1} B != 0`` (None when every
    Markov parameter up to order n vanishes).  ``H`` stacks the rows
    ``C_i A^{r_i - 1} B`` and is None when some degree is undefined.
    """

    r: tuple
    H: np.ndarray | None
    kind: RdKind
    notes: tuple = ()

    @property
    def max_degree(self):
        return max(self.r) if all(d is not None for d in self.r) else None


def _independent_rows(M):
    """Rows of a wide ``M`` are independent when ``sigma_min`` clears the
    relative threshold at which ``find_output_transformation`` eliminates
    a row."""
    s = np.linalg.svd(M, compute_uv=False)
    return s[-1] > TOL.markov_zero * s[0]


def relative_degree_vector(sys):
    """Relative degree of each output row, with kind classification.

    Requires a strictly proper system (``D = 0``), as the theorem does, and
    ``rank(B) = rank(C) = p``.  The search per row is capped at ``n``.  The
    result is FULL when the stacked ``H`` has independent rows, LIRD_ONLY
    when only the equal-degree row groups of ``H`` do, and NONE otherwise
    (including rows whose Markov parameters all vanish).  Raises
    ``NumericalError`` naming the output when a Markov parameter or its
    threshold overflows before the row's degree is found.
    """
    p = sys.require_square("relative-degree analysis")
    if sys.D.any():
        raise InputError("relative-degree analysis requires a strictly "
                         "proper system (D = 0)")
    A, B, C = sys.A, sys.B, sys.C
    # rank(B) and ||B||_2 from one SVD
    sv_b = np.linalg.svd(B, compute_uv=False) if B.size else np.zeros(1)
    if linalg.sv_rank(sv_b, B.shape) != p or linalg.rank(C) != p:
        raise InputError("relative-degree analysis requires rank(B) = rank(C) = p")
    n = sys.n
    a_norm = sys.a_norm
    b_norm = float(sv_b[0])
    powers = [np.eye(n)]  # A^j, extended when a row's search reaches j
    degrees = []
    h_rows = []
    notes = []
    # an overflow shows as a non-finite row or threshold
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(p):
            ci = C[i:i + 1, :]
            c_norm = linalg.frobenius_norm(ci)
            found = None
            for j in range(n):
                if j == len(powers):
                    powers.append(powers[-1] @ A)
                row = ci @ powers[j] @ B
                row_norm = linalg.frobenius_norm(row)
                try:
                    threshold = TOL.markov_zero * (c_norm * a_norm ** j
                                                   * b_norm)
                except OverflowError:
                    threshold = np.inf
                if not (math.isfinite(row_norm)
                        and math.isfinite(threshold)):
                    raise NumericalError(
                        f"output {i}: the Markov parameter C_{i} A^{j} B or "
                        "its zero threshold overflows")
                if row_norm > threshold:
                    found = j + 1
                    h_rows.append(row)
                    break
            degrees.append(found)
            if found is None:
                h_rows.append(None)
                notes.append(f"output {i}: all Markov parameters up to "
                             f"order {n} vanish")
    if any(d is None for d in degrees):
        return RelativeDegreeInfo(tuple(degrees), None, RdKind.NONE, tuple(notes))
    H = np.vstack(h_rows)
    if _independent_rows(H):
        kind = RdKind.FULL
    else:
        kind = RdKind.LIRD_ONLY
        for d in sorted(set(degrees)):
            idx = [i for i in range(p) if degrees[i] == d]
            if not _independent_rows(H[idx, :]):
                kind = RdKind.NONE
                notes.append(f"degree-{d} rows of H are linearly dependent")
                break
    return RelativeDegreeInfo(tuple(degrees), H, kind, tuple(notes))


def _with_outputs(sys, T):
    """``sys`` with the outputs ``T C`` and the feedthrough ``T D``.  Its
    ``A`` is that of ``sys``, so what ``sys`` has cached of ``A``, its
    spectrum and ``a_norm``, fills the new system's slots, as
    ``linalg.carried_spectrum`` fills its own, and
    ``relative_degree_vector`` reads ``a_norm`` without an SVD of ``A``."""
    out = StateSpace(A=sys.A, B=sys.B, C=T @ sys.C, D=T @ sys.D,
                     name=sys.name)
    for slot in ("spectrum", "a_norm"):
        if slot in vars(sys):
            out.__dict__[slot] = vars(sys)[slot]
    return out


def find_output_transformation(sys):
    """Search for ``T_y`` making the output-transformed system relative
    degree at most two.

    Two-stage row elimination on the Markov parameters: stage 1 picks a
    maximal independent row set of ``C B`` by largest-magnitude pivoting
    and records the eliminating combinations into ``T_y`` so dependent
    rows become degree >= 2; stage 2 requires the stacked high-frequency
    gain matrix of the resulting degree vector to be nonsingular.  Failure
    certifies that no output transformation achieves degrees <= 2 (the
    system is not state-feedback equivalent to a negative imaginary system
    when it is minimal with no zero at the origin).  Returns ``(T_y,
    info)``, ``info`` the relative degrees of the transformed outputs.
    """
    p = sys.require_square("output-transformation search")
    # the PBH test below needs the spectrum, and the degrees read ||A||_2
    # from it: decomposed first, A takes one SVD, not two
    sys.spectrum
    original = relative_degree_vector(sys)
    if sys.uncontrollable_mode is not None:
        raise NotControllableError(
            "output-transformation search requires a controllable system")
    if original.kind is RdKind.FULL and original.max_degree <= 2:
        return np.eye(p), original

    A, B, C = sys.A, sys.B, sys.C
    M = C @ B
    T = np.eye(p)
    zero_tol = TOL.markov_zero * spectral_norm(M)
    work = M.copy()
    remaining = list(range(p))
    while remaining:
        sub = np.abs(work[remaining, :])
        i_loc, j_piv = np.unravel_index(np.argmax(sub), sub.shape)
        if sub[i_loc, j_piv] <= zero_tol:
            break
        i_piv = remaining.pop(i_loc)
        for k in remaining:
            factor = work[k, j_piv] / work[i_piv, j_piv]
            if factor != 0.0:
                work[k, :] -= factor * work[i_piv, :]
                T[k, :] -= factor * T[i_piv, :]
    # remaining rows are now (numerically) zero rows of T C B: degree >= 2
    transformed = _with_outputs(sys, T)
    deg2 = sorted(remaining)
    W = transformed.C[deg2, :] @ A @ B if deg2 else np.zeros((0, p))
    if deg2 and linalg.rank(W) < len(deg2):
        raise NoRdLeqTwoError(
            "no output transformation yields relative degree <= 2: "
            "a combined output has relative degree >= 3")
    result = relative_degree_vector(transformed)
    if result.kind is not RdKind.FULL or result.max_degree > 2:
        raise NoRdLeqTwoError(
            "no output transformation yields relative degree <= 2: "
            "mixed-degree rows of the high-frequency gain matrix are "
            "dependent and cannot be repaired by output transformation")
    return T, result


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
        mats = {}
        for name, M in (("T_y", T_y), ("T_x", T_x), ("T_u", T_u)):
            M = as_matrix(M, name, square=True)
            norm = 0.0
            if M.shape[0]:
                sv = np.linalg.svd(M, compute_uv=False)
                if linalg.sv_rank(sv, M.shape) < M.shape[0]:
                    raise InputError(f"{name} is singular")
                norm = float(sv[0])
            Minv = np.linalg.inv(M) if M.shape[0] else M.copy()
            defect = M @ Minv - np.eye(M.shape[0])
            limit = TOL.inverse_residual * max(1.0, norm)
            if not linalg.frobenius_clears(defect, limit):
                residual = spectral_norm(defect)
                if residual > limit:
                    raise NumericalError(
                        f"{name} inverse residual {residual:.3e} too large")
            mats[name] = (M, Minv)
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


def normal_form_input_matrix(m, p1, p2):
    n, p = m + p1 + 2 * p2, p1 + p2
    B = np.zeros((n, p))
    B[m:m + p1, :p1] = np.eye(p1)
    B[m + p1 + p2:, p1:] = np.eye(p2)
    return B


def normal_form_output_matrix(m, p1, p2):
    n, p = m + p1 + 2 * p2, p1 + p2
    C = np.zeros((p, n))
    C[:p1, m:m + p1] = np.eye(p1)
    C[p1:, m + p1:m + p1 + p2] = np.eye(p2)
    return C


def _internal_rows(B, C_T):
    """Orthonormal basis of the common left null space of ``B`` and
    ``C_T^T``, from a complete Householder QR (Golub & Van Loan, 5.2)."""
    k = B.shape[1] + C_T.shape[0]
    return np.linalg.qr(np.hstack([B, C_T.T]), mode="complete")[0][:, k:].T


def to_normal_form(sys, T_y=None, T_x=None, T_u=None):
    """Transform a degree-(1,2) system into normal form.

    ``T_y`` defaults to the one ``find_output_transformation`` finds.
    Rows are sorted so degree-1 outputs precede degree-2 (the permutation
    is folded into ``T_y``).  The state transform stacks the internal rows
    ``Cz`` (``_internal_rows``, smooth in ``B`` and ``C_T``) over
    ``[C_O; C_T; C_T A]``; the input transform is ``T_u = [C_O; C_T A] B``.
    ``T_x`` is nonsingular when ``T_u`` is: times ``B``, then ``C_T^T``, a
    vanishing row combination leaves ``T_u`` and ``C_T C_T^T > 0``.
    Explicit ``T_x``/``T_u`` may be supplied to pin a particular choice;
    they are validated against the same structure.
    """
    p = sys.require_square("normal form")
    A, B = sys.A, sys.B
    n = sys.n
    if T_y is None:
        T_y, info = find_output_transformation(sys)
    else:
        T_y = as_matrix(T_y, "T_y", square=True)
        if T_y.shape[0] != p:
            raise InputError(f"T_y must be {p}x{p}")
        info = relative_degree_vector(_with_outputs(sys, T_y))
    if info.kind is not RdKind.FULL or any(d not in (1, 2) for d in info.r):
        raise InputError(
            "T_y does not yield a relative degree vector with degrees in "
            f"{{1, 2}} (got r={info.r}, kind={info.kind.value})")
    order = sorted(range(p), key=lambda i: (info.r[i], i))
    perm = np.eye(p)[order, :]
    T_y_eff = perm @ T_y
    r_sorted = [info.r[i] for i in order]
    p1 = sum(1 for d in r_sorted if d == 1)
    p2 = p - p1
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
    x2_defect[:, m + p1 + p2:] -= np.eye(p2)
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
    ``hurwitz_spectrum``, to the syntheses.  Requires the internal
    dynamics Lyapunov stable and not ``singular`` (a zero at the origin);
    ``nearly_singular`` ones, an eigenvalue ``at_origin`` and a critical
    block the skew gate rejects are undecided (``NumericalError``, its
    message beginning ``internal dynamics:``).
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
        if linalg.rank(S_inv) < m:
            raise NumericalError(
                "internal dynamics: invariant-subspace basis is singular")
        S = np.linalg.inv(S_inv)
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
