"""Random test-system generators with planted structure.

Systems are built backwards from a normal form with known block
dimensions, then hidden behind random well-conditioned state, output and
input transformations.  The planted properties (relative degrees after an
output transform, Lyapunov-stable nonsingular zero dynamics, minimality)
are re-checked and the draw is retried on the rare degenerate sample.
"""

import numpy as np

from nisynth import StateSpace, is_minimal
from nisynth.errors import NumericalError, VerdictError
from nisynth.structure import (
    _normal_form,
    normal_form_input_matrix,
    normal_form_output_matrix,
    relative_degree_vector,
)

#: matrices whose eigenbasis is not trusted (``EigenResult.left`` is None):
#: a 3-state Jordan block (V singular) and a Hurwitz matrix whose V is
#: nonsingular but too ill-conditioned, 1e6 < kappa_2(V) = 2e7 < 1e12
UNTRUSTED_EIGENBASES = {
    "jordan": np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0],
                        [0.0, 0.0, -1.0]]),
    "kappa-2e7": np.array([[-1.0, 1e7], [0.0, -2.0]]),
}


def _rotation(re, w):
    return np.array([[re, w], [-w, re]])


#: internal dynamics at the edges of the axis and singularity decisions,
#: with the error ``split_zero_dynamics`` raises on them: exactly singular
#: (a zero at the origin), ``smin`` inside the band ``1e-10 (1 + norm)``,
#: an eigenvalue within the axis tolerance of 0 but ``smin`` above the
#: band, and two pairs the axis tolerance ``1e-8 (1 + ||A00||)`` calls
#: critical but the split's skew gate ``||A_a + A_a^T|| <= 1e-8 (1 +
#: ||A_a||)`` rejects: a slow pair next to a fast mode (Re = -5e-7, within
#: 1.01e-6 of the axis; defect 1e-6 over the limit 2e-8) and a pair alone
#: (Re = -1.5e-8, within 2e-8; the defect 2 |Re| = 3e-8 is over the same
#: 2e-8, as the gate bounds twice the damping the axis tolerance bounds)
EDGE_ZERO_DYNAMICS = {
    "exactly-singular": (np.array([[0.0]]), VerdictError),
    "smin-in-band": (np.array([[-1e-11]]), NumericalError),
    "eigenvalue-at-origin": (np.array([[-1e-9]]), NumericalError),
    "slow-pair": (np.block([[_rotation(-5e-7, 1.0), np.zeros((2, 1))],
                            [np.zeros((1, 2)), -100.0 * np.eye(1)]]),
                  NumericalError),
    "skew-defect": (_rotation(-1.5e-8, 1.0), NumericalError),
}


def edge_blocks(A00):
    """The p1 = 2, p2 = 0 normal-form blocks with internal dynamics ``A00``
    and ``A01``, ``A10``, ``A11`` drawn from ``default_rng(0)``."""
    m, p1 = len(A00), 2
    rng = np.random.default_rng(0)
    blk = {"A00": A00, "A01": rng.standard_normal((m, p1)),
           "A10": rng.standard_normal((p1, m)),
           "A11": rng.standard_normal((p1, p1))}
    for name, shape in (("A02", (m, 0)), ("A03", (m, 0)), ("A12", (p1, 0)),
                        ("A13", (p1, 0)), ("A30", (0, m)), ("A31", (0, p1)),
                        ("A32", (0, 0)), ("A33", (0, 0))):
        blk[name] = np.zeros(shape)
    return blk


def edge_plant(A00):
    """The realization of ``edge_blocks(A00)``."""
    return assemble_normal_realization(edge_blocks(A00), 2, 0, len(A00))


def feedthrough_plant():
    """``R(s) = 1/(s + 1) + 1/(s + 2) + 5``: minimal, but not strictly
    proper (``D = 5``), so its output has relative degree 0."""
    return StateSpace(A=np.diag([-1.0, -2.0]), B=[[1.0], [1.0]],
                      C=[[1.0, 1.0]], D=[[5.0]])


def random_orthogonal(rng, n):
    if n == 0:
        return np.zeros((0, 0))
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return Q


def well_conditioned(rng, n, spread=2.0):
    """Random matrix with singular values in [1/spread, spread]."""
    if n == 0:
        return np.zeros((0, 0))
    s = rng.uniform(1.0 / spread, spread, size=n)
    return random_orthogonal(rng, n) @ np.diag(s) @ random_orthogonal(rng, n)


def random_hurwitz(rng, n, margin=(0.3, 1.2)):
    if n == 0:
        return np.zeros((0, 0))
    G = rng.standard_normal((n, n))
    shift = np.max(np.linalg.eigvals(G).real) + rng.uniform(*margin)
    return G - shift * np.eye(n)


def random_skew_nonsingular(rng, m_a):
    """Skew-symmetric block with eigenvalues +-j omega, omega in [0.5, 2]."""
    assert m_a % 2 == 0
    blocks = np.zeros((m_a, m_a))
    for k in range(m_a // 2):
        w = rng.uniform(0.5, 2.0)
        blocks[2 * k:2 * k + 2, 2 * k:2 * k + 2] = [[0.0, w], [-w, 0.0]]
    Q = random_orthogonal(rng, m_a)
    return Q @ blocks @ Q.T


def planted_normal_blocks(rng, p1, p2, m_a, m_b):
    """Random normal-form blocks with Lyapunov-stable internal dynamics."""
    m = m_a + m_b
    A00_canon = np.zeros((m, m))
    A00_canon[:m_a, :m_a] = random_skew_nonsingular(rng, m_a)
    A00_canon[m_a:, m_a:] = random_hurwitz(rng, m_b)
    Tz = well_conditioned(rng, m)
    A00 = np.linalg.solve(Tz, A00_canon) @ Tz if m else A00_canon
    blk = {
        "A00": A00,
        "A01": rng.standard_normal((m, p1)),
        "A02": rng.standard_normal((m, p2)),
        "A03": rng.standard_normal((m, p2)),
        "A10": rng.standard_normal((p1, m)),
        "A11": rng.standard_normal((p1, p1)),
        "A12": rng.standard_normal((p1, p2)),
        "A13": rng.standard_normal((p1, p2)),
        "A30": rng.standard_normal((p2, m)),
        "A31": rng.standard_normal((p2, p1)),
        "A32": rng.standard_normal((p2, p2)),
        "A33": rng.standard_normal((p2, p2)),
    }
    return blk


def assemble_normal_realization(blk, p1, p2, m):
    A = np.block([
        [blk["A00"], blk["A01"], blk["A02"], blk["A03"]],
        [blk["A10"], blk["A11"], blk["A12"], blk["A13"]],
        [np.zeros((p2, m)), np.zeros((p2, p1)), np.zeros((p2, p2)),
         np.eye(p2)],
        [blk["A30"], blk["A31"], blk["A32"], blk["A33"]],
    ]) if m + p1 + p2 else np.zeros((2 * p2, 2 * p2))
    return StateSpace(A=A, B=normal_form_input_matrix(m, p1, p2),
                      C=normal_form_output_matrix(m, p1, p2))


def normal_form_from_blocks(blk, p1, p2, m):
    """NormalForm with identity transforms (blocks taken literally).  It
    takes no controllability gate: the syntheses' own controllability
    tests are fed blocks that are uncontrollable on purpose."""
    sysnf = assemble_normal_realization(blk, p1, p2, m)
    return _normal_form(sysnf, np.eye(p1 + p2),
                        relative_degree_vector(sysnf), np.eye(sysnf.n), None)


def zero_at_origin(sys):
    """Reference test of a zero at the origin: the system pencil
    ``[[A, B], [C, D]]`` of a square system loses rank at ``s = 0``."""
    pencil = np.block([[sys.A, sys.B], [sys.C, sys.D]])
    return np.linalg.matrix_rank(pencil) < len(pencil)


def planted_system(rng, p1, p2, m_a, m_b, max_attempts=20):
    """Random system whose output-transformed relative degrees are planted.

    Returns ``(sys, truth)`` where ``truth`` holds the generating blocks
    and transforms.  Guaranteed minimal, square, zero-free at the origin
    and weakly minimum phase (re-checked; degenerate draws are retried).
    """
    p = p1 + p2
    m = m_a + m_b
    n = m + p1 + 2 * p2
    for _ in range(max_attempts):
        blk = planted_normal_blocks(rng, p1, p2, m_a, m_b)
        nf_sys = assemble_normal_realization(blk, p1, p2, m)
        T_x = well_conditioned(rng, n)
        T_y = well_conditioned(rng, p)
        W = well_conditioned(rng, p)
        A = np.linalg.solve(T_x, nf_sys.A) @ T_x
        B = np.linalg.solve(T_x, nf_sys.B) @ W
        C = np.linalg.solve(T_y, nf_sys.C) @ T_x
        sys = StateSpace(A=A, B=B, C=C)
        if not is_minimal(sys).minimal:
            continue
        if zero_at_origin(sys):
            continue
        return sys, {"blocks": blk, "T_x": T_x, "T_y": T_y, "W": W,
                     "p1": p1, "p2": p2, "m_a": m_a, "m_b": m_b}
    raise RuntimeError("could not draw a valid planted system")


def degree3_system(rng, p1, m):
    """Square system with ``p1`` outputs of relative degree 1 and one of
    degree 3 and Hurwitz zero dynamics of ``m`` states, hidden like
    ``planted_system``'s: the output combination that removes ``C B``
    also removes ``C A B``, so no output transformation gives relative
    degrees <= 2."""
    n, p = m + p1 + 3, p1 + 1
    A = rng.standard_normal((n, n))
    A[:m, :m] = random_hurwitz(rng, m)
    c = m + p1                            # the chain y, y', y''
    A[c:c + 2, :] = 0.0
    A[c, c + 1] = A[c + 1, c + 2] = 1.0
    B = np.zeros((n, p))
    B[m:m + p1, :p1] = np.eye(p1)
    B[c + 2, p1] = 1.0
    C = np.zeros((p, n))
    C[:p1, m:m + p1] = np.eye(p1)
    C[p1, c] = 1.0
    T_x = well_conditioned(rng, n)
    return StateSpace(A=np.linalg.solve(T_x, A) @ T_x,
                      B=np.linalg.solve(T_x, B) @ well_conditioned(rng, p),
                      C=np.linalg.solve(well_conditioned(rng, p), C) @ T_x)


def random_shape(rng, max_p=3, max_n=8, force_p2=None, force_ma=None):
    """Random block dimensions within the given budget."""
    while True:
        p1 = int(rng.integers(0, max_p + 1))
        p2 = int(rng.integers(0, max_p + 1)) if force_p2 is None else force_p2
        if p1 + p2 == 0 or p1 + p2 > max_p:
            continue
        n_ext = p1 + 2 * p2
        if n_ext >= max_n:
            continue
        m_budget = max_n - n_ext
        m_a = int(2 * rng.integers(0, m_budget // 2 + 1)) \
            if force_ma is None else force_ma
        if m_a > m_budget:
            continue
        m_b = int(rng.integers(0, m_budget - m_a + 1))
        return p1, p2, m_a, m_b


def uncontrollable_plant():
    """``A = diag(-1, -2)``, ``B = [1; 0]``, ``C = [1, 1]``: the mode at
    -2 is observable but not driven, so the realization is not minimal;
    ``R(s) = 1/(s + 1)`` has relative degree 1."""
    return StateSpace(A=np.diag([-1.0, -2.0]), B=[[1.0], [0.0]],
                      C=[[1.0, 1.0]])


#: system JSON texts that are no system, each an ``InputError`` of
#: ``load_system``: a matrix that is no 2-D array of finite numbers, a
#: present ``"D": null``, a JSON value that is no object, a missing key
MALFORMED_SYSTEMS = {
    "empty-list": '{"A": [], "B": [[1]], "C": [[1]]}',
    "flat-list": '{"A": [1, 2], "B": [[1]], "C": [[1]]}',
    "object": '{"A": {}, "B": [[1]], "C": [[1]]}',
    "string-entry": '{"A": [["x"]], "B": [[1]], "C": [[1]]}',
    "numeric-string-entry": '{"A": [["-1.5"]], "B": [[1]], "C": [[1]]}',
    "boolean-entry": '{"A": [[-1.5]], "B": [[true]], "C": [[1]]}',
    "ragged": '{"A": [[1, 0], [1]], "B": [[1], [1]], "C": [[1, 0]]}',
    "D-null": '{"A": [[-1]], "B": [[1]], "C": [[1]], "D": null}',
    "NaN": '{"A": [[NaN]], "B": [[1]], "C": [[1]]}',
    "top-level-array": '[[-1], [1], [1]]',
    "missing-C": '{"A": [[-1]], "B": [[1]]}',
}
