"""Constructive state-feedback synthesis of negative-imaginary closed loops.

Given the normal form of a degree-(1,2) system with Lyapunov-stable,
nonsingular internal dynamics, explicit gain formulas render the closed
loop negative imaginary (or output-strictly / strongly-strictly NI) and
produce the certificate matrix in closed form.  The free parameters are
collected in ``SynthesisConfig``; randomized choices are seeded and
retried until the observability targets that make the closed loop minimal
are met.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import certify, linalg
from .certify import Certificate, Verdict
from .errors import (
    DcGainConditionError,
    InputError,
    NotControllableError,
    NotMinimumPhaseError,
    NumericalError,
    RelativeDegreeNotOneError,
    RetryExhaustedError,
    UnsupportedShapeError,
    VerdictError,
)
from .linalg import StabilityClass, as_matrix, spectral_norm
from .statespace import StateSpace, UncertainSystem, eval_tf, is_minimal, has_zero_at_origin
from .structure import (
    NormalForm,
    ZeroDynamicsSplit,
    normal_form_input_matrix,
    normal_form_output_matrix,
    split_zero_dynamics,
    to_normal_form,
)

#: largest output-strictness level the constructive certificate supports
OSNI_EPS_MAX = (3.0 - np.sqrt(5.0)) / 2.0

#: fraction of its admissible set a random H or K13 draw may reach
THETA = 0.9

#: seeded draws of (H, K13) before the observability targets are given up
MAX_RETRIES = 32


@dataclass(frozen=True)
class SynthesisConfig:
    """Free parameters of the synthesis.

    Matrix-valued fields accept a scalar (meaning ``scalar * I``), an
    explicit matrix, or None for the module default.  ``Y1b`` fixes the
    Hurwitz-block Lyapunov solution (by default it solves the Lyapunov
    equation with ``Qb = I``); ``H`` and ``K13`` pin the randomized choices.
    """

    Y2: object = None            # p1 x p1 SPD, default I
    Y3: object = None            # p2 x p2 SPD, default I
    Y1b: object = None           # explicit Lyapunov solution for the Hurwitz block
    H: object = None             # explicit p2 x m_b parameter
    K13: object = None           # explicit p1 x p2 parameter
    epsilon: float = OSNI_EPS_MAX
    rng_seed: int = 0


def _bind_spd(value, dim, name):
    """Expand scalar/None to ``c * I`` and validate symmetric PD."""
    if value is None:
        return np.eye(dim)
    if np.isscalar(value):
        if value <= 0:
            raise InputError(f"{name} must be positive")
        return float(value) * np.eye(dim)
    M = as_matrix(value, name, square=True)
    if M.shape[0] != dim:
        raise InputError(f"{name} must be {dim}x{dim}, got {M.shape}")
    if dim and not linalg.definiteness(M, "pd"):
        raise InputError(f"{name} must be symmetric positive definite")
    return linalg.symmetrize(M, name)


def _bind_matrix(value, rows, cols, name):
    if np.isscalar(value):
        value = float(value) * np.eye(rows, cols)
    M = as_matrix(value, name)
    if M.shape != (rows, cols):
        raise InputError(f"{name} must be {rows}x{cols}, got {M.shape}")
    return M


@dataclass(frozen=True)
class GainSet:
    """Block gains, chosen free parameters, closed loop, and certificate.

    The closed-loop realization lives in the split normal-form coordinates
    (internal state transformed by ``split.S``).  ``K_tilde`` is the full
    state-feedback gain expressed in the unsplit normal-form coordinates,
    relative to the open-loop blocks.
    """

    ni_class: str
    K10: np.ndarray
    K11: np.ndarray
    K12: np.ndarray
    K13: np.ndarray
    K20: np.ndarray
    K21: np.ndarray
    K22: np.ndarray
    K23: np.ndarray
    K_tilde: np.ndarray
    closed_loop: StateSpace
    Y: np.ndarray
    certificate: Certificate
    verdict: Verdict
    free_parameters: dict
    normal_form: NormalForm
    split: ZeroDynamicsSplit
    epsilon: float | None = None

    # strongly-strict synthesis naming (single degree-1 block)
    @property
    def K1(self):
        return self.K10

    @property
    def K2(self):
        return self.K11

    def gains_dict(self):
        d = {f"K{k}": getattr(self, f"K{k}").tolist()
             for k in ("10", "11", "12", "13", "20", "21", "22", "23")}
        d["K_tilde"] = self.K_tilde.tolist()
        return d


@dataclass(frozen=True)
class FeedbackLaw:
    """State feedback ``u = K_x x + K_v v`` in original coordinates.

    ``K_w = K_v - I`` is the companion gain for the uncertainty channel
    ``u = K_x x + K_w w``.  The uncertainty signal enters at the plant
    input, ``x' = A x + B (u + w)``: only then is the loop of this law
    ``(A + B K_x, B K_v, C)`` in positive feedback with ``Delta``.  The
    model follows from ``K_w = K_v - I`` and from that loop.
    """

    K_x: np.ndarray
    K_v: np.ndarray

    @property
    def K_w(self):
        return self.K_v - np.eye(self.K_v.shape[0])


def _draw_h(rng, p2, m_b, Qb_sqrt, scale):
    if p2 == 0 or m_b == 0 or scale == 0.0:
        return np.zeros((p2, m_b))
    G = rng.standard_normal((p2, m_b))
    smax = max(spectral_norm(G), 1e-300)
    return THETA * scale * (G / smax) @ Qb_sqrt


def _draw_k13(rng, p1, p2, policy):
    if p1 == 0 or p2 == 0:
        return np.zeros((p1, p2))
    G = rng.standard_normal((p1, p2))
    if policy == "orthonormal":
        if p2 > p1:
            raise InputError(
                "orthonormal K13 columns require p2 <= p1 "
                f"(got p1={p1}, p2={p2})")
        Q = np.linalg.qr(G)[0]
        return Q[:, :p2]
    smax = max(spectral_norm(G), 1e-300)
    return np.sqrt(2.0) * THETA * G / smax


def _osni_h_shrink(eps):
    """Scale factor keeping H admissible for the output-strict certificate.

    The Schur complement of the certificate matrix requires
    ``g(eps) H^T H <= Qb``, where ``g -> 1`` as ``eps -> 0`` and
    ``g -> inf`` at the maximal strictness level, so H is drawn from the
    shrunk set ``THETA U (Qb / g)^(1/2)``.
    """
    den = 1.0 - 2.0 * eps
    if den <= 0:
        return 0.0
    c = (1.0 - eps) ** 2 / den
    rem = 2.0 - eps - c
    if rem <= 1e-12:
        return 0.0
    g = eps + c + (1.0 - eps - c) ** 2 / rem
    return 1.0 / np.sqrt(g)


def _block(rows):
    return np.vstack([np.hstack(r) for r in rows])


def _assemble_certificate(split, Y1b, Y2, Y3):
    """Certificate blocks for the (z, x1, x2, x3) split coordinates."""
    m_a, m_b = split.m_a, split.m_b
    m = m_a + m_b
    A00 = split.A00
    A01 = np.vstack([split.A01a, split.A01b])
    A02 = np.vstack([split.A02a, split.A02b])
    iA00 = np.linalg.inv(A00) if m else A00
    Y1 = np.zeros((m, m))
    Y1[:m_a, :m_a] = np.eye(m_a)
    Y1[m_a:, m_a:] = Y1b
    p1 = A01.shape[1]
    p2 = A02.shape[1]
    G1 = iA00 @ A01          # m x p1
    G2 = iA00 @ A02          # m x p2
    Y11 = Y1 + G1 @ Y2 @ G1.T + G2 @ Y3 @ G2.T
    Y = _block([
        [Y11, -G1 @ Y2, -G2 @ Y3, np.zeros((m, p2))],
        [-Y2 @ G1.T, Y2, np.zeros((p1, p2)), np.zeros((p1, p2))],
        [-Y3 @ G2.T, np.zeros((p2, p1)), Y3, np.zeros((p2, p2))],
        [np.zeros((p2, m)), np.zeros((p2, p1)), np.zeros((p2, p2)), np.eye(p2)],
    ])
    return (Y + Y.T) / 2.0


def _check_emitted(sys, Y, ni_class, eps):
    verdict, cert = certify.verify_certificate(sys, ni_class, Y, eps)
    if not verdict.holds:
        raise NumericalError(
            f"emitted {ni_class} certificate failed verification: "
            f"{'; '.join(verdict.notes)}")
    return verdict, cert


def _synthesize_deg12(nf, cfg, ni_class):
    """Shared core of the NI and output-strict syntheses."""
    p1, p2, m = nf.p1, nf.p2, nf.m

    eps = None
    h_scale = 1.0
    if ni_class == "osni":
        if p2 > 0 and (p1 == 0 or p2 > p1):
            raise UnsupportedShapeError(
                f"output-strict synthesis needs p2 <= p1 with p1 > 0 "
                f"(got p1={p1}, p2={p2}); plain NI synthesis remains "
                "available for this shape")
        if cfg.epsilon <= 0:
            raise InputError("epsilon must be positive")
        eps = min(cfg.epsilon, OSNI_EPS_MAX)
        h_scale = _osni_h_shrink(eps)

    split = split_zero_dynamics(nf)
    m_a, m_b = split.m_a, split.m_b
    A00 = split.A00
    A01 = np.vstack([split.A01a, split.A01b])
    A02 = np.vstack([split.A02a, split.A02b])
    A03 = np.vstack([split.A03a, split.A03b])

    res00 = linalg.eig(A00)
    c1 = linalg.pbh_witness(A00, A01, "controllable", res00) is None
    c2 = linalg.pbh_witness(A00, A00 @ A03 + A02, "controllable",
                            res00) is None
    if not (c1 or c2):
        raise NotControllableError(
            "the normal form is not controllable: neither (A00, A01) nor "
            "(A00, A00 A03 + A02) is controllable")

    Y2 = _bind_spd(cfg.Y2, p1, "Y2")
    Y3 = _bind_spd(cfg.Y3, p2, "Y3")
    if cfg.Y1b is not None:
        Y1b = _bind_spd(cfg.Y1b, m_b, "Y1b")
        Qb = -(split.A00b @ Y1b + Y1b @ split.A00b.T)
        if m_b and not linalg.definiteness(Qb, "pd"):
            raise InputError(
                "Y1b is not a Lyapunov solution for the Hurwitz block: "
                "-(A00b Y1b + Y1b A00b^T) is not positive definite")
    else:
        Qb = np.eye(m_b)
        Y1b = linalg.solve_lyapunov(split.A00b.T, Qb)
    Qb_sqrt = linalg.sqrtm_pd(Qb) if m_b else np.zeros((0, 0))

    H_fixed = None
    if cfg.H is not None:
        H_fixed = _bind_matrix(cfg.H, p2, m_b, "H")
        # the admissible set shrinks with the output-strictness level
        Qb_admissible = Qb * h_scale ** 2 if ni_class == "osni" else Qb
        if m_b and not linalg.definiteness(
                Qb_admissible - H_fixed.T @ H_fixed, "psd"):
            raise InputError("H violates its admissible set H^T H <= Qb"
                             + (" (shrunk for the output-strict level)"
                                if ni_class == "osni" else ""))
    K13_fixed = None
    if cfg.K13 is not None:
        K13_fixed = _bind_matrix(cfg.K13, p1, p2, "K13")
        if p2 and not linalg.definiteness(
                2.0 * np.eye(p1) - K13_fixed @ K13_fixed.T, "psd"):
            raise InputError("K13 violates its admissible set K13 K13^T <= 2I")
        if ni_class == "osni" and p2 and spectral_norm(
                K13_fixed.T @ K13_fixed - np.eye(p2)) > 1e-8:
            raise InputError(
                "output-strict synthesis requires K13 with orthonormal "
                "columns (K13^T K13 = I)")

    iA00a_T = np.linalg.inv(split.A00a.T) if m_a else split.A00a
    iA00b_T = np.linalg.inv(split.A00b.T) if m_b else split.A00b
    iY1b = np.linalg.inv(Y1b) if m_b else Y1b
    iA00 = np.linalg.inv(A00) if m else A00

    K20a = -split.A02a.T @ iA00a_T - split.A03a.T
    K10a = -split.A01a.T @ iA00a_T

    rng = np.random.default_rng(cfg.rng_seed)
    policy = "orthonormal" if ni_class == "osni" else "random-in-S_K"
    last_witness = None
    retries_used = 0
    for attempt in range(MAX_RETRIES):
        retries_used = attempt
        H = H_fixed if H_fixed is not None else \
            _draw_h(rng, p2, m_b, Qb_sqrt, h_scale)
        K13 = K13_fixed if K13_fixed is not None else \
            _draw_k13(rng, p1, p2, policy)
        K20b = (-split.A02b.T @ iA00b_T - split.A03b.T + H) @ iY1b
        K10b = (-split.A01b.T @ iA00b_T - K13 @ H) @ iY1b
        K10 = np.hstack([K10a, K10b])
        K20 = np.hstack([K20a, K20b])
        ok = True
        if c1:
            w = linalg.pbh_witness(A00, K10, "observable", res00)
            if w is not None:
                ok, last_witness = False, w
        if c2 and ok:
            w = linalg.pbh_witness(A00, K20, "observable", res00)
            if w is not None:
                ok, last_witness = False, w
        if ok:
            break
        if H_fixed is not None and K13_fixed is not None:
            raise RetryExhaustedError(
                "fixed H/K13 do not achieve the observability targets "
                f"(failing eigenvalue {last_witness})", witness=last_witness)
    else:
        raise RetryExhaustedError(
            f"observability targets not met in {MAX_RETRIES} draws "
            f"(last failing eigenvalue {last_witness})", witness=last_witness)

    K11 = K10 @ iA00 @ A01 - np.linalg.inv(Y2) if p1 else np.zeros((0, 0))
    K12 = K10 @ iA00 @ A02
    K21 = K20 @ iA00 @ A01
    K22 = K20 @ iA00 @ A02 - np.linalg.inv(Y3) if p2 else np.zeros((0, 0))
    K23 = -0.5 * np.eye(p2)

    A_cl = _block([
        [A00, A01, A02, A03],
        [K10, K11, K12, K13],
        [np.zeros((p2, m)), np.zeros((p2, p1)), np.zeros((p2, p2)), np.eye(p2)],
        [K20, K21, K22, K23],
    ])
    closed = StateSpace(A=A_cl, B=normal_form_input_matrix(m, p1, p2),
                        C=normal_form_output_matrix(m, p1, p2),
                        name=(nf.source.name or "system") + ":closed")
    Y = _assemble_certificate(split, Y1b, Y2, Y3)
    verdict, cert = _check_emitted(closed, Y, ni_class, eps)

    S = split.S
    K_tilde = _block([
        [K10 @ S - nf.A10, K11 - nf.A11, K12 - nf.A12, K13 - nf.A13],
        [K20 @ S - nf.A30, K21 - nf.A31, K22 - nf.A32, K23 - nf.A33],
    ])

    free = {
        "Y2": Y2.tolist(), "Y3": Y3.tolist(), "y1a": 1.0,
        "Qb": Qb.tolist(), "Y1b": Y1b.tolist(), "H": H.tolist(),
        "K13": K13.tolist(), "theta": THETA,
        "k13_policy": policy, "rng_seed": cfg.rng_seed,
        "retries_used": retries_used,
    }
    if ni_class == "osni":
        free["epsilon"] = eps
        if eps < cfg.epsilon:
            free["epsilon_requested"] = cfg.epsilon
            free["epsilon_clamped"] = True
    return GainSet(
        ni_class=ni_class, K10=K10, K11=K11, K12=K12, K13=K13,
        K20=K20, K21=K21, K22=K22, K23=K23, K_tilde=K_tilde,
        closed_loop=closed, Y=Y, certificate=cert, verdict=verdict,
        free_parameters=free, normal_form=nf, split=split, epsilon=eps)


def synthesize_ni(nf, cfg=None):
    """Render the normal form negative imaginary by state feedback.

    Requires nonsingular, Lyapunov-stable internal dynamics and a
    controllable normal form.  Gains follow the closed-form construction;
    the randomized parameters are retried (seeded) until the closed loop
    is minimal.  The emitted gain set carries the certificate and passes
    verification before being returned.
    """
    return _synthesize_deg12(nf, cfg or SynthesisConfig(), "ni")


def synthesize_osni(nf, cfg=None):
    """Output-strict variant of ``synthesize_ni``.

    ``K13`` is restricted to orthonormal columns and ``H`` is shrunk so
    the certificate holds at the requested strictness level, which is
    clamped to the constructive maximum ``(3 - sqrt 5)/2``.
    """
    return _synthesize_deg12(nf, cfg or SynthesisConfig(), "osni")


def synthesize_ssni(nf, cfg=None):
    """Strongly-strict synthesis for relative degree {1,...,1}.

    Requires ``p2 = 0``, asymptotically stable internal dynamics and
    ``(A00, A01)`` controllable.  The Lyapunov parameter is computed from
    a correction-augmented Lyapunov solve, whose residual (``-I`` up to
    rounding) must reach the strict margin ``-1e-8 ||A00||``.
    """
    cfg = cfg or SynthesisConfig()
    if nf.p2 != 0:
        raise RelativeDegreeNotOneError(
            f"strongly-strict synthesis needs relative degree {{1,...,1}} "
            f"(got p2={nf.p2})")
    p, m = nf.p1, nf.m
    A00, A01 = nf.A00, nf.A01
    res00 = linalg.eig(A00)
    if linalg.stability_class(res00) is not StabilityClass.HURWITZ:
        raise NotMinimumPhaseError(
            "internal dynamics are not asymptotically stable")
    if linalg.pbh_witness(A00, A01, "controllable", res00) is not None:
        raise NotControllableError("(A00, A01) is not controllable")
    Y2 = _bind_spd(cfg.Y2, p, "Y2")
    iY2 = np.linalg.inv(Y2)
    if m:
        iA00 = np.linalg.inv(A00)
        corr = 0.5 * iA00 @ A01 @ A01.T @ iA00.T
        Y1 = linalg.solve_lyapunov(A00.T, np.eye(m) + corr)
        resid = A00 @ Y1 + Y1 @ A00.T + corr
        if float(np.linalg.eigvalsh((resid + resid.T) / 2.0)[-1]) > \
                -1e-8 * spectral_norm(A00):
            raise NumericalError("could not reach the strict Lyapunov margin")
        K1 = -A01.T @ iA00.T @ np.linalg.inv(Y1)
        G1 = iA00 @ A01
        K2 = K1 @ G1 - iY2
        Y = _block([[Y1 + G1 @ Y2 @ G1.T, -G1 @ Y2],
                    [-Y2 @ G1.T, Y2]])
    else:
        Y1 = np.zeros((0, 0))
        K1 = np.zeros((p, 0))
        K2 = -iY2
        Y = Y2.copy()
    A_cl = _block([[A00, A01], [K1, K2]])
    closed = StateSpace(A=A_cl, B=normal_form_input_matrix(m, p, 0),
                        C=normal_form_output_matrix(m, p, 0),
                        name=(nf.source.name or "system") + ":closed")
    if linalg.stability_class(closed.spectrum) is not StabilityClass.HURWITZ:
        raise NumericalError("emitted strongly-strict closed loop is not Hurwitz")
    Y = (Y + Y.T) / 2.0
    verdict, cert = _check_emitted(closed, Y, "ssni", None)
    # the strong-class certificate route tests neither hypothesis
    if not is_minimal(closed).minimal:
        raise NumericalError("emitted closed loop is not minimal")
    if np.linalg.svd(closed.A, compute_uv=False)[-1] <= 1e-10 * closed.a_norm:
        raise NumericalError("emitted closed-loop state matrix is singular")
    R0 = np.real(eval_tf(closed, 0.0))
    if spectral_norm(R0 - Y2) > 1e-8 * (1.0 + spectral_norm(Y2)):
        raise NumericalError("closed-loop DC gain does not equal Y2")

    split = ZeroDynamicsSplit(
        stability=StabilityClass.HURWITZ,
        S=np.eye(m), S_inv=np.eye(m), A00a=np.zeros((0, 0)), A00b=A00,
        m_a=0, m_b=m, A01a=A01[:0], A01b=A01,
        A02a=nf.A02[:0], A02b=nf.A02, A03a=nf.A03[:0], A03b=nf.A03)
    K_tilde = np.hstack([K1 - nf.A10, K2 - nf.A11])
    free = {"Y2": Y2.tolist(), "Y1": Y1.tolist(), "rng_seed": cfg.rng_seed}
    z = np.zeros((0, 0))
    return GainSet(
        ni_class="ssni", K10=K1, K11=K2, K12=np.zeros((p, 0)),
        K13=np.zeros((p, 0)), K20=np.zeros((0, m)), K21=np.zeros((0, p)),
        K22=z, K23=z, K_tilde=K_tilde, closed_loop=closed, Y=Y,
        certificate=cert, verdict=verdict, free_parameters=free,
        normal_form=nf, split=split)


def compose_full_gain(gains):
    """Map normal-form gains back to the original coordinates.

    ``u = T_u^{-1} (K_tilde T_x x + T_y^{-T} v)``, so
    ``K_x = T_u^{-1} K_tilde T_x`` and ``K_v = T_u^{-1} T_y^{-T}``.
    """
    transforms = gains.normal_form.transforms
    K_x = transforms.T_u_inv @ gains.K_tilde @ transforms.T_x
    K_v = transforms.T_u_inv @ transforms.T_y_inv.T
    return FeedbackLaw(K_x=K_x, K_v=K_v)


@dataclass(frozen=True)
class StabilizationResult:
    """Output of the robust stabilization pipeline."""

    law: FeedbackLaw
    gains: GainSet
    nominal_closed: StateSpace
    Y_original: np.ndarray
    certificate_original: Certificate
    lam_max_R0: float
    dc_value: float
    dc_bound: float
    gamma: float

    @property
    def dc_margin(self):
        return self.dc_bound - self.dc_value


def original_coordinates_certificate(gains):
    """Transform the emitted certificate into original coordinates.

    Returns ``(nominal_closed, Y_original, eps_original)`` where the
    nominal closed loop is ``(A + B K_x, B K_v, C)`` of the source system.
    The output-strictness level rescales under the output transformation:
    the original-coordinates loop is output strict at
    ``eps / lambda_max(T_y^-T T_y^-1)``.
    """
    nf = gains.normal_form
    law = compose_full_gain(gains)
    src = nf.source
    A_cl = src.A + src.B @ law.K_x
    closed = StateSpace(A=A_cl, B=src.B @ law.K_v, C=src.C,
                        name=(src.name or "system") + ":nominal-closed")
    n = nf.n
    T_hat = np.zeros((n, n))
    m = nf.m
    T_hat[:m, :m] = gains.split.S
    T_hat[m:, m:] = np.eye(n - m)
    T_total = T_hat @ nf.transforms.T_x
    Ti = np.linalg.inv(T_total)
    Y_orig = Ti @ gains.Y @ Ti.T
    eps_orig = None
    if gains.epsilon is not None:
        Tyi = nf.transforms.T_y_inv
        mu = float(np.linalg.eigvalsh(Tyi.T @ Tyi)[-1])
        eps_orig = gains.epsilon / mu
    return closed, (Y_orig + Y_orig.T) / 2.0, eps_orig


def robust_stabilize(usys, cfg=None, T_y=None, T_x=None, T_u=None):
    """Stabilize a plant with strictly-negative-imaginary uncertainty.

    Runs the full pipeline (output transformation search, normal form, NI
    synthesis, gain composition), choosing the DC parameters so the loop
    gain bound ``lambda_max(R(0)) < 1/gamma`` holds, and returns the law
    ``u = K_x x + K_w w`` together with the certified nominal closed loop.
    ``w`` enters at the plant input, ``x' = A x + B (u + w)``, so the
    uncertain loop is ``nominal_closed`` ``(A + B K_x, B K_v, C)`` in
    positive feedback with ``Delta`` (see ``FeedbackLaw``).
    """
    if not isinstance(usys, UncertainSystem):
        usys = UncertainSystem(plant=usys, gamma=1.0)
    plant = usys.plant
    minim = is_minimal(plant)
    if not minim.controllable:
        raise NotControllableError("plant realization is not controllable")
    if not minim.observable:
        raise VerdictError("plant realization is not observable")
    if has_zero_at_origin(plant):
        raise VerdictError("plant has a zero at the origin")
    nf = to_normal_form(plant, T_y, T_x=T_x, T_u=T_u)

    cfg = cfg or SynthesisConfig()
    Tyi = nf.transforms.T_y_inv
    gram = Tyi @ Tyi.T
    if cfg.Y2 is None and cfg.Y3 is None:
        beta = 0.9 / (usys.gamma * float(np.linalg.eigvalsh(gram)[-1]))
        cfg = replace(cfg, Y2=beta, Y3=beta)
    gains = synthesize_ni(nf, cfg)

    Y2 = np.asarray(gains.free_parameters["Y2"])
    Y3 = np.asarray(gains.free_parameters["Y3"])
    blk = np.zeros((nf.p, nf.p))
    blk[:nf.p1, :nf.p1] = Y2
    blk[nf.p1:, nf.p1:] = Y3
    dc_matrix = Tyi @ blk @ Tyi.T
    dc_value = float(np.linalg.eigvalsh((dc_matrix + dc_matrix.T) / 2.0)[-1])
    dc_bound = 1.0 / usys.gamma
    if dc_value >= dc_bound * (1.0 - 1e-12):
        raise DcGainConditionError(
            f"DC condition fails: lambda_max(T_y^-1 diag(Y2, Y3) T_y^-T) = "
            f"{dc_value:.6g} >= 1/gamma = {dc_bound:.6g}")

    law = compose_full_gain(gains)
    closed, Y_orig, _ = original_coordinates_certificate(gains)
    cert = certify.compute_certificate(closed, "ni", Y_orig)
    R0 = np.real(eval_tf(closed, 0.0))
    lam_max_R0 = float(np.linalg.eigvalsh((R0 + R0.T) / 2.0)[-1])
    return StabilizationResult(
        law=law, gains=gains, nominal_closed=closed, Y_original=Y_orig,
        certificate_original=cert, lam_max_R0=lam_max_R0,
        dc_value=dc_value, dc_bound=dc_bound, gamma=usys.gamma)
