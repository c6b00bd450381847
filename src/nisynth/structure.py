"""Structural analysis: relative degrees, output transformations, normal form.

The central object is the normal form of a square system whose (possibly
output-transformed) relative degrees are all 1 or 2.  State blocks are
``(z, x1, x2, x3)``: internal dynamics ``z``, the degree-1 outputs ``x1``,
and the degree-2 output chain ``x2, x3 = x2dot``.  The input enters only
the ``x1`` and ``x3`` rows, through an invertible input transform.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import linalg
from .errors import (
    InputError,
    NoRdLeqTwoError,
    NotControllableError,
    NotWeaklyMinimumPhaseError,
    NumericalError,
    SpectrumError,
)
from .linalg import StabilityClass, as_matrix, spectral_norm
from .statespace import StateSpace

#: relative threshold below which a Markov-parameter row counts as zero
MARKOV_ZERO_TOL = 1e-8

#: relative |Re lambda| threshold for the imaginary-axis spectral split
SPLIT_AXIS_TOL = 1e-7


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


def _markov_zero_threshold(c_norm, a_norm, b_norm, j):
    scale = c_norm * (a_norm ** j if a_norm > 0 else (1.0 if j == 0 else 0.0))
    return MARKOV_ZERO_TOL * max(scale * b_norm, 1e-300)


def _independent_rows(M):
    """Rows of a wide ``M`` are independent when ``sigma_min`` clears the
    relative threshold at which ``find_output_transformation`` eliminates
    a row."""
    s = np.linalg.svd(M, compute_uv=False)
    return s[-1] > MARKOV_ZERO_TOL * s[0]


def relative_degree_vector(sys):
    """Relative degree of each output row, with kind classification.

    Requires ``rank(B) = rank(C) = p``.  The search per row is capped at
    ``n``.  The result is FULL when the stacked ``H`` has independent rows,
    LIRD_ONLY when only the equal-degree row groups of ``H`` do, and NONE
    otherwise (including rows whose Markov parameters all vanish).
    """
    p = sys.require_square("relative-degree analysis")
    A, B, C = sys.A, sys.B, sys.C
    if linalg.rank(B) != p or linalg.rank(C) != p:
        raise InputError("relative-degree analysis requires rank(B) = rank(C) = p")
    n = sys.n
    a_norm = spectral_norm(A)
    b_norm = spectral_norm(B)
    powers = [np.eye(n)]
    for _ in range(n - 1):
        powers.append(powers[-1] @ A)
    degrees = []
    h_rows = []
    notes = []
    for i in range(p):
        ci = C[i:i + 1, :]
        c_norm = max(float(np.linalg.norm(ci)), 1e-300)
        found = None
        for j in range(n):
            row = ci @ powers[j] @ B
            threshold = _markov_zero_threshold(c_norm, a_norm, b_norm, j)
            if float(np.linalg.norm(row)) > threshold:
                found = j + 1
                h_rows.append(row)
                break
        degrees.append(found)
        if found is None:
            h_rows.append(None)
            notes.append(f"output {i}: all Markov parameters up to order {n} vanish")
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
    when it is minimal with no zero at the origin).
    """
    T, info, _ = _search_output_transformation(sys)
    return T, info


def _search_output_transformation(sys):
    """``find_output_transformation``, returning the relative-degree info
    of the original outputs too, after that of the transformed ones."""
    p = sys.require_square("output-transformation search")
    original = relative_degree_vector(sys)
    if linalg.pbh_witness(sys.A, sys.B, "controllable",
                          sys.spectrum) is not None:
        raise NotControllableError(
            "output-transformation search requires a controllable system")
    if original.kind is RdKind.FULL and original.max_degree <= 2:
        return np.eye(p), original, original

    A, B, C = sys.A, sys.B, sys.C
    M = C @ B
    T = np.eye(p)
    m_scale = max(spectral_norm(M), 1e-300)
    zero_tol = MARKOV_ZERO_TOL * m_scale
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
    Ct = T @ C
    deg2 = sorted(remaining)
    W = Ct[deg2, :] @ A @ B if deg2 else np.zeros((0, p))
    if deg2 and linalg.rank(W) < len(deg2):
        raise NoRdLeqTwoError(
            "no output transformation yields relative degree <= 2: "
            "a combined output has relative degree >= 3")
    result = relative_degree_vector(
        StateSpace(A=A, B=B, C=Ct, name=sys.name))
    if result.kind is not RdKind.FULL or result.max_degree > 2:
        raise NoRdLeqTwoError(
            "no output transformation yields relative degree <= 2: "
            "mixed-degree rows of the high-frequency gain matrix are "
            "dependent and cannot be repaired by output transformation")
    return T, result, original


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
            if M.shape[0] and linalg.rank(M) < M.shape[0]:
                raise InputError(f"{name} is singular")
            Minv = np.linalg.inv(M) if M.shape[0] else M.copy()
            residual = spectral_norm(M @ Minv - np.eye(M.shape[0]))
            if residual > 1e-8 * max(1.0, spectral_norm(M)):
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
    degrees of ``T_y C`` for the given or found ``T_y``, before sorting;
    ``source_rd_info`` those of the source's own outputs when the ``T_y``
    search ran, else None.
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
    source_rd_info: RelativeDegreeInfo | None

    @property
    def n(self):
        return self.m + self.p1 + 2 * self.p2

    @property
    def p(self):
        return self.p1 + self.p2

    def assemble(self):
        """Exact-pattern realization of the normal form."""
        m, p1, p2 = self.m, self.p1, self.p2
        A = np.block([
            [self.A00, self.A01, self.A02, self.A03],
            [self.A10, self.A11, self.A12, self.A13],
            [np.zeros((p2, m)), np.zeros((p2, p1)), np.zeros((p2, p2)), np.eye(p2)],
            [self.A30, self.A31, self.A32, self.A33]])
        B = normal_form_input_matrix(m, p1, p2)
        C = normal_form_output_matrix(m, p1, p2)
        return StateSpace(A=A, B=B, C=C, name=self.source.name)


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


def _complete_internal_rows(B, base, m, n):
    """Choose ``m`` rows from the left null space of B completing ``base``.

    Greedy selection from an orthonormal null-space basis, maximizing the
    smallest singular value of the partial stack at each step (the first
    best candidate wins a tie).  A step forms the Gram matrix of the rows
    chosen so far once; each candidate borders it, and one stacked
    ``eigvalsh`` gives every candidate's ``sigma_min^2``.
    """
    p = B.shape[1]
    candidates = np.linalg.svd(B, full_matrices=True)[0][:, p:].T
    chosen = np.zeros((0, n))
    for _ in range(m):
        X = np.vstack([chosen, base])
        r = X.shape[0]
        cross = candidates @ X.T
        gram = np.empty((len(candidates), r + 1, r + 1))
        gram[:, 0, 0] = (candidates * candidates).sum(axis=1)
        gram[:, 0, 1:] = cross
        gram[:, 1:, 0] = cross
        gram[:, 1:, 1:] = X @ X.T
        sigma2 = np.linalg.eigvalsh(gram)[:, 0]
        best = int(np.argmax(sigma2))
        if sigma2[best] <= 0.0:
            raise NumericalError(
                "could not complete the state transform from the left "
                "null space of B")
        chosen = np.vstack([chosen, candidates[best]])
        candidates = np.delete(candidates, best, axis=0)
    return chosen


def to_normal_form(sys, T_y=None, T_x=None, T_u=None):
    """Transform a degree-(1,2) system into normal form.

    ``T_y`` defaults to the one ``find_output_transformation`` finds.
    Rows are sorted so degree-1 outputs precede degree-2 (the permutation
    is folded into ``T_y``).  The state transform stacks the internal rows
    (annihilating B) over ``[C_O; C_T; C_T A]``; the input transform is
    ``[C_O; C_T A] B``.  Explicit ``T_x``/``T_u`` may be supplied to pin a
    particular choice; they are validated against the same structure.
    """
    p = sys.require_square("normal form")
    A, B = sys.A, sys.B
    n = sys.n
    source_info = None
    if T_y is None:
        T_y, info, source_info = _search_output_transformation(sys)
    else:
        T_y = as_matrix(T_y, "T_y", square=True)
        if T_y.shape[0] != p:
            raise InputError(f"T_y must be {p}x{p}")
        info = relative_degree_vector(
            StateSpace(A=A, B=B, C=T_y @ sys.C, name=sys.name))
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
    C_O = Ct[:p1, :]
    C_T = Ct[p1:, :]
    base = np.vstack([C_O, C_T, C_T @ A])

    T_u_expected = np.vstack([C_O, C_T @ A]) @ B
    if T_u is None:
        T_u = T_u_expected
    else:
        T_u = as_matrix(T_u, "T_u", square=True)
        if spectral_norm(T_u - T_u_expected) > 1e-8 * max(1.0, spectral_norm(T_u_expected)):
            raise InputError(
                "supplied T_u does not match the input transform implied by "
                "T_y (it is determined by [C_O; C_T A] B)")

    if T_x is None:
        Cz = _complete_internal_rows(B, base, m, n)
        T_x = np.vstack([Cz, base])
    else:
        T_x = as_matrix(T_x, "T_x", square=True)
        if T_x.shape[0] != n:
            raise InputError(f"T_x must be {n}x{n}")
        scale = max(1.0, spectral_norm(T_x))
        if spectral_norm(T_x[m:, :] - base) > 1e-8 * scale:
            raise InputError(
                "supplied T_x rows m..n must equal [C_O; C_T; C_T A]")
        if m and spectral_norm(T_x[:m, :] @ B) > 1e-8 * scale * max(1.0, spectral_norm(B)):
            raise InputError("supplied T_x internal rows must annihilate B")

    transforms = TransformSet.build(T_y_eff, T_x, T_u)
    At = transforms.T_x @ A @ transforms.T_x_inv
    Bt = transforms.T_x @ B @ transforms.T_u_inv
    scale_A = max(1.0, spectral_norm(At))
    x2_rows = At[m + p1:m + p1 + p2, :]
    x2_expected = np.zeros((p2, n))
    x2_expected[:, m + p1 + p2:] = np.eye(p2)
    if spectral_norm(x2_rows - x2_expected) > 1e-5 * scale_A:
        raise NumericalError(
            "normal-form structure check failed on the x2 rows")
    if spectral_norm(Bt - normal_form_input_matrix(m, p1, p2)) > 1e-5 * max(1.0, spectral_norm(Bt)):
        raise NumericalError(
            "normal-form structure check failed on the input matrix")

    s0, s1, s2, s3 = slice(0, m), slice(m, m + p1), \
        slice(m + p1, m + p1 + p2), slice(m + p1 + p2, n)
    return NormalForm(
        p1=p1, p2=p2, m=m,
        A00=At[s0, s0], A01=At[s0, s1], A02=At[s0, s2], A03=At[s0, s3],
        A10=At[s1, s0], A11=At[s1, s1], A12=At[s1, s2], A13=At[s1, s3],
        A30=At[s3, s0], A31=At[s3, s1], A32=At[s3, s2], A33=At[s3, s3],
        transforms=transforms, source=sys, rd_info=info,
        source_rd_info=source_info)


@dataclass(frozen=True)
class ZeroDynamicsSplit:
    """Similarity splitting the internal dynamics into a skew-symmetric
    imaginary-axis block and a Hurwitz block.

    ``stability`` is the class of the internal dynamics: HURWITZ (minimum
    phase) or LYAPUNOV_STABLE (weakly minimum phase only).
    """

    stability: StabilityClass
    S: np.ndarray
    S_inv: np.ndarray
    A00a: np.ndarray
    A00b: np.ndarray
    m_a: int
    m_b: int
    A01a: np.ndarray
    A01b: np.ndarray
    A02a: np.ndarray
    A02b: np.ndarray
    A03a: np.ndarray
    A03b: np.ndarray

    @property
    def A00(self):
        m = self.m_a + self.m_b
        out = np.zeros((m, m))
        out[:self.m_a, :self.m_a] = self.A00a
        out[self.m_a:, self.m_a:] = self.A00b
        return out


def _real_eigenbasis(values, vectors, indices, tol):
    """Real basis of the invariant subspace spanned by selected eigenvectors.

    Conjugate pairs contribute (Re v, Im v); real eigenvalues contribute
    their (real) eigenvector.
    """
    cols = []
    done = set()
    for k in indices:
        if k in done:
            continue
        lam, v = values[k], vectors[:, k]
        if abs(lam.imag) <= tol:
            cols.append(np.real(v))
            done.add(k)
            continue
        partner = None
        for j in indices:
            if j not in done and j != k and abs(values[j] - lam.conjugate()) <= tol:
                partner = j
                break
        if partner is None:
            raise NumericalError("eigenvalues do not pair into conjugates")
        cols.append(np.real(v))
        cols.append(np.imag(v))
        done.add(k)
        done.add(partner)
    return np.column_stack(cols) if cols else np.zeros((vectors.shape[0], 0))


def split_zero_dynamics(nf):
    """Split the internal dynamics spectrum across the imaginary axis.

    The critical block is rendered exactly skew-symmetric by a congruence
    with the square root of the neutral Lyapunov solution; the Hurwitz
    block is left as produced by the subspace split.  Requires the
    internal dynamics nonsingular and Lyapunov stable.
    """
    A00 = nf.A00
    m = nf.m
    if m == 0:
        S = np.zeros((0, 0))
        return ZeroDynamicsSplit(
            stability=StabilityClass.HURWITZ,
            S=S, S_inv=S, A00a=S, A00b=S, m_a=0, m_b=0,
            A01a=nf.A01[:0], A01b=nf.A01, A02a=nf.A02[:0], A02b=nf.A02,
            A03a=nf.A03[:0], A03b=nf.A03)
    res = linalg.eig(A00)
    scale = 1.0 + res.norm
    tol = SPLIT_AXIS_TOL * scale
    klass = linalg.stability_class(res)
    if klass is StabilityClass.UNSTABLE:
        raise NotWeaklyMinimumPhaseError(
            "internal dynamics are not Lyapunov stable")
    smin = np.linalg.svd(A00, compute_uv=False)[-1]
    if smin <= 1e-10 * scale:
        raise SpectrumError(
            "internal dynamics are singular (the system has a zero at the "
            "origin)")

    critical = [k for k in range(m) if abs(res.values[k].real) <= tol]
    m_a = len(critical)
    m_b = m - m_a
    if m_a == 0:
        S = np.eye(m)
        A00a = np.zeros((0, 0))
        A00b = A00.copy()
    else:
        V_a = _real_eigenbasis(res.values, res.vectors, critical, tol)
        if m_b == 0:
            S0_inv = V_a
        else:
            resT = linalg.eig(A00.T)
            critT = [k for k in range(m) if abs(resT.values[k].real) <= tol]
            U_a = _real_eigenbasis(resT.values, resT.vectors, critT, tol)
            # the complement of the left critical subspace is invariant
            Q_b = np.linalg.svd(U_a.T, full_matrices=True)[2][m_a:, :].T
            S0_inv = np.hstack([V_a, Q_b])
        if linalg.rank(S0_inv) < m:
            raise NumericalError("invariant-subspace basis is singular")
        S0 = np.linalg.inv(S0_inv)
        Ad = S0 @ A00 @ S0_inv
        off = max(spectral_norm(Ad[:m_a, m_a:]), spectral_norm(Ad[m_a:, :m_a]))
        if off > 1e-7 * scale:
            raise NumericalError(
                f"spectral split left coupling {off:.3e} between blocks")
        A_a = Ad[:m_a, :m_a]
        A00b = Ad[m_a:, m_a:]
        P = linalg.kernel_pd_solution(A_a)
        R = linalg.sqrtm_pd(P)
        A00a = R @ A_a @ np.linalg.inv(R)
        skew_defect = spectral_norm(A00a + A00a.T)
        if skew_defect > 1e-8 * scale:
            raise NumericalError(
                f"skew-symmetrization left defect {skew_defect:.3e}")
        A00a = (A00a - A00a.T) / 2.0
        Sa = np.zeros((m, m))
        Sa[:m_a, :m_a] = R
        Sa[m_a:, m_a:] = np.eye(m_b)
        S = Sa @ S0
    S_inv = np.linalg.inv(S)
    A01s = S @ nf.A01
    A02s = S @ nf.A02
    A03s = S @ nf.A03
    return ZeroDynamicsSplit(
        stability=klass, S=S, S_inv=S_inv, A00a=A00a, A00b=A00b,
        m_a=m_a, m_b=m_b,
        A01a=A01s[:m_a], A01b=A01s[m_a:], A02a=A02s[:m_a], A02b=A02s[m_a:],
        A03a=A03s[:m_a], A03b=A03s[m_a:])
