"""Correctness checks that use numpy alone.

Nothing here imports ``nisynth``: every verdict of the program is judged
against a computation made from the generated inputs and the emitted
gains.  Each ``check_*`` function takes plain arrays and numbers and
returns a list of failure messages; an empty list means the output passed.
"""

import numpy as np

#: frequency grid of the checks, offset from the program's 400-point grid
#: on [1e-4, 1e4]
GRID = np.logspace(-4.1, 4.1, 256)

#: relative tolerances
FREQ_TOL = 1e-7
LYAP_TOL = 1e-8
COUPLING_TOL = 1e-8
PAPER_TOL = 1e-9

#: the paper's worked example (gamma = 1, pinned parameters)
PAPER_K_X = np.array([[0.0, -3.0, -1.0, -2.0], [-3.0, -6.0, 14.5, -1.5]])
PAPER_K_W = np.array([[0.0, 1.0], [0.0, -2.0]])
PAPER_LAM_R0 = (3.0 + np.sqrt(5.0)) / 8.0


def _norm(M):
    M = np.asarray(M)
    return float(np.linalg.norm(M, 2)) if M.size else 0.0


def _sym(M):
    return (M + M.conj().T) / 2.0


def closed_loop(A, B, K_x, K_v):
    """``(A + B K_x, B K_v)`` of the law ``u = K_x x + K_v v``."""
    return A + B @ K_x, B @ K_v


def transfer(A, B, C, omegas):
    """``C (j w I - A)^-1 B`` at every frequency, stacked (N, p, m)."""
    n = A.shape[0]
    M = 1j * omegas[:, None, None] * np.eye(n) - A
    rhs = np.broadcast_to(B.astype(complex), (len(omegas),) + B.shape)
    return C @ np.linalg.solve(M, rhs)


def frequency_margin(A, B, C, eps=None):
    """Smallest scaled eigenvalue of the NI (or OSNI) matrix.

    The matrix is ``j (R - R*)``, minus ``eps w R* R`` for the output-strict
    class, each divided by ``1 + ||R(jw)||``.  It is sampled on ``GRID``
    plus the frequency of every damped pole (where a narrow resonance
    peaks); points within 1e-6 relative of a pole are skipped.  Returns
    ``(margin, omega)``.
    """
    poles = np.linalg.eigvals(A)
    peaks = np.abs(poles.imag[(poles.real < 0) & (poles.imag > 0)])
    omegas = np.concatenate([GRID, peaks])
    dist = np.abs(1j * omegas[:, None] - poles[None, :])
    omegas = omegas[np.all(dist >= 1e-6 * (1.0 + np.abs(poles)), axis=1)]
    scaled = np.concatenate([_scaled_margins(A, B, C, omegas[k:k + 32], eps)
                             for k in range(0, len(omegas), 32)])
    k = int(np.argmin(scaled))
    return float(scaled[k]), float(omegas[k])


def _scaled_margins(A, B, C, omegas, eps):
    # in chunks of frequencies, so the check's arrays stay small next to
    # the program's and do not set the peak resident set
    R = transfer(A, B, C, omegas)
    RH = np.conj(np.swapaxes(R, 1, 2))
    H = 1j * (R - RH)
    if eps is not None:
        H = H - eps * omegas[:, None, None] * (RH @ R)
    lam = np.linalg.eigvalsh(_sym_stack(H))[:, 0]
    return lam / (1.0 + np.linalg.norm(R, 2, axis=(1, 2)))


def _sym_stack(H):
    return (H + np.conj(np.swapaxes(H, 1, 2))) / 2.0


def check_certificate(A, B, C, K_x, K_v, Y, ni_class, eps=None):
    """Y > 0, A_cl Y + Y A_cl^T (+ eps (C A_cl Y)^T C A_cl Y) <= 0 (< 0 for
    SSNI) and B_cl + A_cl Y C^T = 0, in the plant's own coordinates."""
    errors = []
    A_cl, B_cl = closed_loop(A, B, K_x, K_v)
    scale_y = max(1.0, _norm(Y))
    if _norm(Y - Y.T) > 1e-9 * scale_y:
        errors.append("certificate Y is not symmetric")
    Y = _sym(Y)
    pd = float(np.linalg.eigvalsh(Y)[0])
    if not pd > 1e-12 * scale_y:
        errors.append(f"certificate Y is not positive definite ({pd:.3e})")
    L = A_cl @ Y + Y @ A_cl.T
    if ni_class == "osni":
        CAY = C @ A_cl @ Y
        L = L + eps * (CAY.T @ CAY)
    lam = float(np.linalg.eigvalsh(_sym(L))[-1])
    scale = 1.0 + _norm(A_cl) * scale_y
    if ni_class == "ssni":
        if not lam < -1e-9 * scale:
            errors.append(f"A_cl Y + Y A_cl^T is not negative definite "
                          f"(lambda_max {lam:.3e})")
    elif lam > LYAP_TOL * scale:
        errors.append(f"{ni_class} Lyapunov inequality fails "
                      f"(lambda_max {lam:.3e})")
    coupling = _norm(B_cl + A_cl @ Y @ C.T)
    if coupling > COUPLING_TOL * (1.0 + _norm(B_cl) + scale * _norm(C)):
        errors.append(f"B_cl + A_cl Y C^T = {coupling:.3e}, not 0")
    return errors


def check_frequency(A_cl, B_cl, C, claimed, ni_class="ni", eps=None,
                    expect=True):
    """The sampled NI (OSNI, SSNI) condition against the program's claim
    and against what the system is known to be (``expect``)."""
    margin, omega = frequency_margin(A_cl, B_cl, C,
                                     eps if ni_class == "osni" else None)
    truth = margin > 0.0 if ni_class == "ssni" else margin >= -FREQ_TOL
    where = f"scaled lambda_min {margin:.3e} at w = {omega:.6g}"
    if truth != claimed:
        return [f"program says {ni_class} holds={claimed}; the check finds "
                + where]
    if truth != expect:
        return [f"{ni_class} condition holds={truth}, expected {expect}: "
                + where]
    return []


def dc_gain(A_cl, B_cl, C):
    """lambda_max of the symmetric part of R(0) = -C A_cl^-1 B_cl."""
    R0 = -C @ np.linalg.solve(A_cl, B_cl)
    return float(np.linalg.eigvalsh(_sym(R0))[-1])


def check_dc(A_cl, B_cl, C, gamma):
    lam = dc_gain(A_cl, B_cl, C)
    if not lam < 1.0 / gamma:
        return [f"lambda_max(R(0)) = {lam:.6g} is not below 1/gamma = "
                f"{1.0 / gamma:.6g}"]
    return []


def loop_matrix(A_cl, B_cl, C, A_d, B_d, C_d):
    """State matrix of the positive-feedback loop of the closed loop and an
    uncertainty ``(A_d, B_d, C_d)``, both without feedthrough."""
    return np.block([[A_cl, B_cl @ C_d], [B_d @ C, A_d]])


def check_robust_loop(A_cl, B_cl, C, gamma, a, frac):
    """The loop with Delta = k/(s+a) I, k = frac * gamma * a, is Hurwitz."""
    p = C.shape[0]
    k = frac * gamma * a
    M = loop_matrix(A_cl, B_cl, C, -a * np.eye(p), np.eye(p), k * np.eye(p))
    alpha = float(np.max(np.linalg.eigvals(M).real))
    if not alpha < -1e-9 * (1.0 + _norm(M)):
        return [f"loop with Delta = {k:.4g}/(s+{a:.4g}) I is not Hurwitz "
                f"(spectral abscissa {alpha:.3e})"]
    return []


def check_shape(planted, found):
    if tuple(planted) != tuple(found):
        return [f"structure (p1, p2, m, m_a, m_b) = {tuple(found)}, "
                f"planted {tuple(planted)}"]
    return []


def check_rejection(expected, raised):
    """``raised`` is the class names of the raised exception's MRO."""
    if raised is None:
        return [f"expected {expected}, but the program returned a result"]
    if expected not in raised:
        return [f"expected {expected}, the program raised {raised[0]}"]
    return []


def degree3_witness(A, B, C):
    """Smallest scaled singular value of [C B, C A B]: 0 when an output
    combination has relative degree >= 3."""
    M = np.hstack([C @ B, C @ A @ B])
    s = np.linalg.svd(M, compute_uv=False)
    return float(s[-1] / s[0])


def modal_state(A, x0, t):
    """Exact ``e^(tA) x0`` from the eigendecomposition of A."""
    lam, V = np.linalg.eig(A)
    return np.real(V @ (np.exp(lam * t) * np.linalg.solve(V, x0)))


def check_simulation(A_loop, x0, t_end, final):
    err = float(np.linalg.norm(final - modal_state(A_loop, x0, t_end)))
    if err > 1e-9 * float(np.linalg.norm(x0)):
        return [f"simulated state at t={t_end:g} is {err:.3e} from the "
                "exact modal solution"]
    return []


def check_paper_law(K_x, K_w, lam_R0):
    errors = []
    for name, got, want in (("K_x", K_x, PAPER_K_X), ("K_w", K_w, PAPER_K_W)):
        err = float(np.max(np.abs(np.asarray(got) - want)))
        if not err <= PAPER_TOL:
            errors.append(f"{name} deviates from the paper by {err:.3e}")
    if not abs(lam_R0 - PAPER_LAM_R0) <= PAPER_TOL:
        errors.append(f"lambda_max(R(0)) = {lam_R0:.12g}, paper "
                      f"{PAPER_LAM_R0:.12g}")
    return errors


def check_normal_form(A, B, C, transforms, blocks, p1, p2, m):
    """The reported transforms carry the plant to the reported blocks."""
    T_y, T_x, T_u = (np.asarray(transforms[k]) for k in ("T_y", "T_x", "T_u"))
    At = T_x @ A @ np.linalg.inv(T_x)
    Bt = T_x @ B @ np.linalg.inv(T_u)
    Ct = T_y @ C @ np.linalg.inv(T_x)
    n, p = A.shape[0], B.shape[1]
    rows = {"0": slice(0, m), "1": slice(m, m + p1),
            "3": slice(m + p1 + p2, n)}
    cols = {"0": slice(0, m), "1": slice(m, m + p1),
            "2": slice(m + p1, m + p1 + p2), "3": slice(m + p1 + p2, n)}
    errors = []
    tol = 1e-9 * (1.0 + _norm(At))
    for name, got in blocks.items():
        want = At[rows[name[1]], cols[name[2]]]
        if _norm(np.asarray(got) - want) > tol:
            errors.append(f"normal-form block {name} does not match "
                          "T_x A T_x^-1")
    x2 = np.zeros((p2, n))
    x2[:, m + p1 + p2:] = np.eye(p2)
    B_nf = np.zeros((n, p))
    B_nf[m:m + p1, :p1] = np.eye(p1)
    B_nf[m + p1 + p2:, p1:] = np.eye(p2)
    C_nf = np.zeros((p, n))
    C_nf[:p1, m:m + p1] = np.eye(p1)
    C_nf[p1:, m + p1:m + p1 + p2] = np.eye(p2)
    for what, got, want in (("x2 rows", At[m + p1:m + p1 + p2], x2),
                            ("input matrix", Bt, B_nf),
                            ("output matrix", Ct, C_nf)):
        if _norm(got - want) > tol:
            errors.append(f"normal-form {what} do not have the normal "
                          "pattern")
    return errors
