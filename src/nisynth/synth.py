"""Constructive state-feedback synthesis of negative-imaginary closed loops.

Given the normal form of a degree-(1,2) system with Lyapunov-stable,
nonsingular internal dynamics, one construction's explicit gain formulas
render the closed loop negative imaginary and produce the certificate
matrix in closed form.  Output strictness shrinks its free parameters;
strong strictness is its ``p2 = 0``, Hurwitz case with the stricter
Lyapunov right-hand side ``Qb``.  The free parameters are collected in
``SynthesisConfig``; the randomized choices are drawn once from a seeded
generator.  A generic draw meets the observability targets that make the
closed loop minimal; one that misses them raises ``RetryExhaustedError``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import certify, linalg
from .certify import Certificate, Verdict
from .errors import (
    DcGainConditionError,
    InputError,
    NisynthError,
    NotControllableError,
    NotMinimumPhaseError,
    NumericalError,
    RelativeDegreeNotOneError,
    RetryExhaustedError,
    UnsupportedShapeError,
    VerdictError,
)
from .linalg import TOL, StabilityClass, as_matrix, spectral_norm
from .statespace import StateSpace, UncertainSystem, eval_tf, is_minimal
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
    if value is not None and not np.isscalar(value):
        M = as_matrix(value, name, square=True)
        if M.shape[0] != dim:
            raise InputError(f"{name} must be {dim}x{dim}, got {M.shape}")
        M = linalg.symmetrize(M, name)
        if dim and not linalg.definiteness(M, "pd"):
            raise InputError(f"{name} must be symmetric positive definite")
        return M
    if value is None:
        value = 1.0
    elif not 0 < value < np.inf:
        raise InputError(f"{name} must be finite and positive")
    M = np.zeros((dim, dim))
    M.flat[::dim + 1] = float(value)  # value * I
    return M


def _bind_matrix(value, rows, cols, name):
    if np.isscalar(value):
        value = float(value) * np.eye(rows, cols)
    M = as_matrix(value, name)
    if M.shape != (rows, cols):
        raise InputError(f"{name} must be {rows}x{cols}, got {M.shape}")
    return M


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


@dataclass(frozen=True)
class GainSet:
    """Block gains, chosen free parameters, and the law they deliver.

    ``closed_loop`` and ``Y`` are the construction's loop and certificate
    in the split normal-form coordinates (internal state transformed by
    ``split.S``).  ``K_tilde`` is the full state-feedback gain expressed in
    the unsplit normal-form coordinates, relative to the open-loop blocks.
    ``law`` is that gain in the plant's coordinates, ``nominal_closed`` its
    loop ``(A + B K_x, B K_v, C)`` on the plant, and ``Y_original`` and
    ``epsilon_original`` the certificate carried there; ``certificate``
    and ``verdict`` are the check of ``Y_original`` on ``nominal_closed``,
    which every emitted gain set has passed.
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
    law: FeedbackLaw
    nominal_closed: StateSpace
    Y_original: np.ndarray
    certificate: Certificate
    verdict: Verdict
    free_parameters: dict
    normal_form: NormalForm
    split: ZeroDynamicsSplit
    epsilon: float | None = None
    epsilon_original: float | None = None

    def gains_dict(self):
        d = {f"K{k}": getattr(self, f"K{k}").tolist()
             for k in ("10", "11", "12", "13", "20", "21", "22", "23")}
        d["K_tilde"] = self.K_tilde.tolist()
        return d


def _draw_h(rng, p2, m_b, Qb_sqrt, scale):
    G = rng.standard_normal((p2, m_b))
    return THETA * scale * (G / spectral_norm(G)) @ Qb_sqrt


def _draw_k13(rng, p1, p2, policy):
    G = rng.standard_normal((p1, p2))
    if policy == "orthonormal":  # p2 <= p1, by the output-strict shape gate
        return np.linalg.qr(G)[0][:, :p2]
    return np.sqrt(2.0) * THETA * G / spectral_norm(G)


def _osni_h_shrink(eps):
    """Scale factor keeping H admissible for the output-strict certificate.

    The Schur complement of the certificate matrix requires
    ``g(eps) H^T H <= Qb``, where ``g -> 1`` as ``eps -> 0`` and
    ``g -> inf`` at the maximal strictness level, so H is drawn from the
    shrunk set ``THETA U (Qb / g)^(1/2)``.  ``eps`` is at most
    ``OSNI_EPS_MAX``, so ``1 - 2 eps >= sqrt 5 - 2 > 0``.
    """
    c = (1.0 - eps) ** 2 / (1.0 - 2.0 * eps)
    rem = 2.0 - eps - c
    if rem <= TOL.osni_h_room:
        return 0.0
    g = eps + c + (1.0 - eps - c) ** 2 / rem
    return 1.0 / np.sqrt(g)


def _block(rows):
    """``np.block(rows)`` for a grid of 2-D float blocks, filled into one
    preallocated array."""
    heights = [row[0].shape[0] for row in rows]
    widths = [blk.shape[1] for blk in rows[0]]
    out = np.empty((sum(heights), sum(widths)))
    top = 0
    for row, h in zip(rows, heights):
        left = 0
        for blk, w in zip(row, widths):
            out[top:top + h, left:left + w] = blk
            left += w
        top += h
    return out


def _assemble_certificate(m_a, A01, A02, iA00, Y1b, Y2, Y3):
    """Certificate blocks for the (z, x1, x2, x3) split coordinates, from
    the split's ``A01``, ``A02`` and ``inv(A00)``."""
    m = iA00.shape[0]
    Y1 = np.zeros((m, m))
    Y1[:m_a, :m_a].flat[::m_a + 1] = 1.0  # y1a = 1
    Y1[m_a:, m_a:] = Y1b
    p1, p2 = A01.shape[1], A02.shape[1]
    G1 = iA00 @ A01          # m x p1
    G2 = iA00 @ A02          # m x p2
    Y11 = Y1 + G1 @ Y2 @ G1.T + G2 @ Y3 @ G2.T
    Y = _block([
        [Y11, -G1 @ Y2, -G2 @ Y3, np.zeros((m, p2))],
        [-Y2 @ G1.T, Y2, np.zeros((p1, p2)), np.zeros((p1, p2))],
        [-Y3 @ G2.T, np.zeros((p2, p1)), Y3, np.zeros((p2, p2))],
        [np.zeros((p2, m)), np.zeros((p2, p1)), np.zeros((p2, p2)),
         np.zeros((p2, p2))],
    ])
    Y[m + p1 + p2:, m + p1 + p2:].flat[::p2 + 1] = 1.0  # the x3 block: I
    return (Y + Y.T) / 2.0


def _deliver(nf, split, K_tilde, Y, ni_class, eps):
    """The law of ``K_tilde`` on the plant, gated by its certificate.

    ``u = T_u^{-1} (K_tilde T_x x + T_y^{-T} v)``, so
    ``K_x = T_u^{-1} K_tilde T_x`` and ``K_v = T_u^{-1} T_y^{-T}``, and the
    nominal loop is ``(A + B K_x, B K_v, C)``.  It is similar to the
    normal-form loop under ``T = diag(S, I) T_x``, so the certificate maps
    by congruence, ``Y_orig = T^{-1} Y T^{-T}`` with ``T^{-1} = T_x^{-1}
    diag(S^{-1}, I)`` from the inverses the transforms and the split hold,
    and the output-strictness level rescales to ``eps / lambda_max(T_y^{-T}
    T_y^{-1})``.  Returns the ``GainSet`` fields of these objects and of
    their verification; raises ``NumericalError`` when the certificate
    fails on the nominal loop.
    """
    tf, src = nf.transforms, nf.source
    law = FeedbackLaw(K_x=tf.T_u_inv @ K_tilde @ tf.T_x,
                      K_v=tf.T_u_inv @ tf.T_y_inv.T)
    closed = StateSpace(A=src.A + src.B @ law.K_x, B=src.B @ law.K_v,
                        C=src.C,
                        name=(src.name or "system") + ":nominal-closed")
    m = nf.m
    Ti = tf.T_x_inv.copy()
    Ti[:, :m] = tf.T_x_inv[:, :m] @ split.S_inv
    Y_orig = Ti @ Y @ Ti.T
    Y_orig = (Y_orig + Y_orig.T) / 2.0
    eps_orig = None
    if eps is not None:
        mu = float(np.linalg.eigvalsh(tf.T_y_inv.T @ tf.T_y_inv)[-1])
        eps_orig = eps / mu
    verdict, cert = certify.verify_certificate(closed, ni_class, Y_orig,
                                               eps_orig)
    if not verdict.holds:
        raise NumericalError(
            f"emitted {ni_class} certificate failed verification on the "
            f"plant-coordinate loop: {'; '.join(verdict.notes)}")
    return {"law": law, "nominal_closed": closed, "Y_original": Y_orig,
            "epsilon_original": eps_orig, "certificate": cert,
            "verdict": verdict}


def _synthesize(nf, cfg, ni_class):
    """The one gain construction of ``synthesize_ni``, ``_osni`` and
    ``_ssni``; the two strict classes differ only in data and gates."""
    p1, p2, m = nf.p1, nf.p2, nf.m

    eps = None
    h_scale = 1.0
    if ni_class == "osni":
        if p2 > 0 and (p1 == 0 or p2 > p1):
            raise UnsupportedShapeError(
                f"output-strict synthesis needs p2 <= p1 with p1 > 0 "
                f"(got p1={p1}, p2={p2}); plain NI synthesis remains "
                "available for this shape")
        if not 0 < cfg.epsilon < np.inf:
            raise InputError("epsilon must be finite and positive")
        eps = min(cfg.epsilon, OSNI_EPS_MAX)
        h_scale = _osni_h_shrink(eps)
    elif ni_class == "ssni":
        if p2 != 0:
            raise RelativeDegreeNotOneError(
                f"strongly-strict synthesis needs relative degree "
                f"{{1,...,1}} (got p2={p2})")
        if linalg.stability_class(nf.zero_spectrum) is not \
                StabilityClass.HURWITZ:
            raise NotMinimumPhaseError(
                "internal dynamics are not asymptotically stable")

    split = split_zero_dynamics(nf)
    m_a, m_b = split.m_a, split.m_b
    A00, A01, A02, A03 = split.A00, split.A01, split.A02, split.A03

    # PBH tests are similarity invariant: on the unsplit A00, with K S for K
    S = split.S
    res00 = nf.zero_spectrum
    c1 = linalg.pbh_witness(nf.A00, nf.A01, "controllable", res00) is None
    c2 = p2 > 0 and linalg.pbh_witness(nf.A00, nf.chain_input,
                                       "controllable", res00) is None
    if not (c1 or c2):
        # with p2 = 0 the second pair has no columns and is not tested
        raise NotControllableError(
            "the normal form is not controllable: neither (A00, A01) nor "
            "(A00, A00 A03 + A02) is controllable" if p2 else
            "the normal form is not controllable: (A00, A01) is not "
            "controllable")

    Y2 = _bind_spd(cfg.Y2, p1, "Y2")
    Y3 = _bind_spd(cfg.Y3, p2, "Y3")
    # one inverse per diagonal block of the split A00
    iA00a = np.linalg.inv(split.A00a) if m_a else split.A00a
    iA00b = np.linalg.inv(split.A00b) if m_b else split.A00b
    iA00 = np.zeros((m, m))
    iA00[:m_a, :m_a] = iA00a
    iA00[m_a:, m_a:] = iA00b
    # the strong class asks for -(A00b Y1b + Y1b A00b^T) > corr; it has
    # m_a = 0, so A00 and A01 are its Hurwitz blocks
    corr = 0.5 * iA00 @ A01 @ A01.T @ iA00.T if ni_class == "ssni" else 0.0
    if cfg.Y1b is not None:
        Y1b = _bind_spd(cfg.Y1b, m_b, "Y1b")
        Qb = -(split.A00b @ Y1b + Y1b @ split.A00b.T)
        if m_b and not linalg.definiteness(Qb - corr, "pd"):
            raise InputError(
                "Y1b is not a Lyapunov solution for the Hurwitz block: "
                "-(A00b Y1b + Y1b A00b^T)"
                f"{' - corr' if ni_class == 'ssni' else ''} is not positive "
                "definite")
    else:
        Qb = np.eye(m_b)
        if ni_class == "ssni":
            Qb += corr
        Y1b = linalg.solve_lyapunov(split.A00b.T, Qb, split.hurwitz_spectrum)
    if ni_class == "ssni" and m:
        resid = A00 @ Y1b + Y1b @ A00.T + corr
        if float(np.linalg.eigvalsh((resid + resid.T) / 2.0)[-1]) > \
                -TOL.ssni_margin * res00.norm:  # A00 is nf.A00 here
            raise NumericalError("could not reach the strict Lyapunov margin")

    # an empty or zero-scaled parameter is zero and takes no draw; H is
    # drawn before K13
    rng = np.random.default_rng(cfg.rng_seed)
    if cfg.H is not None:
        H = _bind_matrix(cfg.H, p2, m_b, "H")
        # the admissible set shrinks with the output-strictness level
        Qb_admissible = Qb * h_scale ** 2 if ni_class == "osni" else Qb
        if m_b and not linalg.definiteness(Qb_admissible - H.T @ H, "psd"):
            raise InputError("H violates its admissible set H^T H <= Qb"
                             + (" (shrunk for the output-strict level)"
                                if ni_class == "osni" else ""))
    elif p2 == 0 or m_b == 0 or h_scale == 0.0:
        H = np.zeros((p2, m_b))
    else:
        H = _draw_h(rng, p2, m_b, linalg.sqrtm_pd(Qb), h_scale)
    policy = "orthonormal" if ni_class == "osni" else "random-in-S_K"
    if cfg.K13 is not None:
        K13 = _bind_matrix(cfg.K13, p1, p2, "K13")
        if p2:
            room = -(K13 @ K13.T)
            room.flat[::p1 + 1] += 2.0  # 2I - K13 K13^T
            if not linalg.definiteness(room, "psd"):
                raise InputError(
                    "K13 violates its admissible set K13 K13^T <= 2I")
        if ni_class == "osni" and p2:
            gram = K13.T @ K13
            gram.flat[::p2 + 1] -= 1.0  # K13^T K13 - I
            if spectral_norm(gram) > TOL.orthonormal:
                raise InputError(
                    "output-strict synthesis requires K13 with orthonormal "
                    "columns (K13^T K13 = I)")
    elif p1 == 0 or p2 == 0:
        K13 = np.zeros((p1, p2))
    else:
        K13 = _draw_k13(rng, p1, p2, policy)

    iA00a_T, iA00b_T = iA00a.T, iA00b.T
    iY1b = np.linalg.inv(Y1b) if m_b else Y1b
    K10 = np.hstack([-A01[:m_a].T @ iA00a_T,
                     (-A01[m_a:].T @ iA00b_T - K13 @ H) @ iY1b])
    K20 = np.hstack([-A02[:m_a].T @ iA00a_T - A03[:m_a].T,
                     (-A02[m_a:].T @ iA00b_T - A03[m_a:].T + H) @ iY1b])
    # the targets that make the closed loop minimal: (A00, K10) observable
    # when (A00, A01) is controllable, (A00, K20) when the chain input is;
    # a critical mode sees no drawn term and a Hurwitz mode fails only on
    # a null set of draws, so a failure is not redrawn
    w = linalg.pbh_witness(nf.A00, K10 @ S, "observable", res00) \
        if c1 else None
    if w is None and c2:
        w = linalg.pbh_witness(nf.A00, K20 @ S, "observable", res00)
    if w is not None:
        raise RetryExhaustedError(
            "H and K13 do not achieve the observability targets that make "
            f"the closed loop minimal (failing eigenvalue {w})", witness=w)

    K11 = K10 @ iA00 @ A01 - np.linalg.inv(Y2) if p1 else np.zeros((0, 0))
    K12 = K10 @ iA00 @ A02
    K21 = K20 @ iA00 @ A01
    K22 = K20 @ iA00 @ A02 - np.linalg.inv(Y3) if p2 else np.zeros((0, 0))
    # -0.5 I bit for bit: its off-diagonal zeros are -0.5 * 0 = -0.0
    K23 = np.full((p2, p2), -0.0)
    K23.flat[::p2 + 1] = -0.5

    A_cl = _block([
        [A00, A01, A02, A03],
        [K10, K11, K12, K13],
        [np.zeros((p2, m)), np.zeros((p2, p1)), np.zeros((p2, p2)),
         np.zeros((p2, p2))],
        [K20, K21, K22, K23],
    ])
    A_cl[m + p1:m + p1 + p2, m + p1 + p2:].flat[::p2 + 1] = 1.0  # x2dot = x3
    closed = StateSpace(A=A_cl, B=normal_form_input_matrix(m, p1, p2),
                        C=normal_form_output_matrix(m, p1, p2),
                        name=(nf.source.name or "system") + ":closed")
    Y = _assemble_certificate(m_a, A01, A02, iA00, Y1b, Y2, Y3)

    K_tilde = _block([
        [K10 @ S - nf.A10, K11 - nf.A11, K12 - nf.A12, K13 - nf.A13],
        [K20 @ S - nf.A30, K21 - nf.A31, K22 - nf.A32, K23 - nf.A33],
    ])
    delivered = _deliver(nf, split, K_tilde, Y, ni_class, eps)
    if ni_class == "ssni":
        loop = delivered["nominal_closed"]
        if linalg.stability_class(loop.spectrum) is not \
                StabilityClass.HURWITZ:
            raise NumericalError(
                "emitted strongly-strict closed loop is not Hurwitz")
        # the strong-class certificate route tests neither hypothesis
        if not is_minimal(loop).minimal:
            raise NumericalError("emitted closed loop is not minimal")
        if loop.spectrum.nearly_singular:
            raise NumericalError("emitted closed-loop state matrix is singular")
        # the plant's outputs are T_y^{-1} times the normal form's
        Tyi = nf.transforms.T_y_inv
        R0 = np.real(eval_tf(loop, 0.0))
        dc = Tyi @ Y2 @ Tyi.T
        if spectral_norm(R0 - dc) > TOL.dc_gain * (1.0 + spectral_norm(dc)):
            raise NumericalError(
                "closed-loop DC gain does not equal T_y^-1 Y2 T_y^-T")

    free = {
        "Y2": Y2.tolist(), "Y3": Y3.tolist(), "y1a": 1.0,
        "Qb": Qb.tolist(), "Y1b": Y1b.tolist(), "H": H.tolist(),
        "K13": K13.tolist(), "theta": THETA,
        "k13_policy": policy, "rng_seed": cfg.rng_seed,
        "retries_used": 0,
    }
    if ni_class == "osni":
        free["epsilon"] = eps
        if eps < cfg.epsilon:
            free["epsilon_requested"] = cfg.epsilon
            free["epsilon_clamped"] = True
    return GainSet(
        ni_class=ni_class, K10=K10, K11=K11, K12=K12, K13=K13,
        K20=K20, K21=K21, K22=K22, K23=K23, K_tilde=K_tilde,
        closed_loop=closed, Y=Y, free_parameters=free, normal_form=nf,
        split=split, epsilon=eps, **delivered)


def synthesize_ni(nf, cfg=None):
    """Render the normal form negative imaginary by state feedback.

    Requires nonsingular, Lyapunov-stable internal dynamics and a
    controllable normal form.  Gains follow the closed-form construction;
    the randomized parameters are drawn once (seeded), and a closed loop
    they leave non-minimal raises ``RetryExhaustedError``.  The emitted
    gain set carries the law in the plant's coordinates, whose certificate
    passes verification on the plant's closed loop before the set is
    returned.
    """
    return _synthesize(nf, cfg or SynthesisConfig(), "ni")


def synthesize_osni(nf, cfg=None):
    """Output-strict variant of ``synthesize_ni``.

    ``K13`` is restricted to orthonormal columns and ``H`` is shrunk so
    the certificate holds at the requested strictness level, which is
    clamped to the constructive maximum ``(3 - sqrt 5)/2``.
    """
    return _synthesize(nf, cfg or SynthesisConfig(), "osni")


def synthesize_ssni(nf, cfg=None):
    """Strongly-strict variant of ``synthesize_ni``: its ``p2 = 0`` case
    (relative degree {1,...,1}) with asymptotically stable internal
    dynamics, so ``m_a = 0``, and the stricter Lyapunov right-hand side
    ``Qb = I + A00^-1 A01 A01^T A00^-T / 2``.  The residual (``-I`` up to
    rounding) must reach the strict margin ``-TOL.ssni_margin ||A00||``,
    and the delivered loop must be Hurwitz, minimal, nonsingular and of DC
    gain ``T_y^-1 Y2 T_y^-T``.
    """
    return _synthesize(nf, cfg or SynthesisConfig(), "ssni")


def compose_full_gain(gains):
    """The emitted law ``u = K_x x + K_v v`` in the plant's coordinates:
    ``K_x = T_u^{-1} K_tilde T_x`` and ``K_v = T_u^{-1} T_y^{-T}``."""
    return gains.law


def original_coordinates_certificate(gains):
    """The emitted certificate in the plant's coordinates.

    Returns ``(nominal_closed, Y_original, eps_original)`` where the
    nominal closed loop is ``(A + B K_x, B K_v, C)`` of the source system.
    The output-strictness level rescales under the output transformation:
    the original-coordinates loop is output strict at
    ``eps / lambda_max(T_y^-T T_y^-1)``.  Synthesis verified ``Y_original``
    on this very loop before returning ``gains``.
    """
    return gains.nominal_closed, gains.Y_original, gains.epsilon_original


@dataclass(frozen=True)
class StabilizationResult:
    """Output of the robust stabilization pipeline.

    ``law``, ``nominal_closed`` and ``Y_original`` are those of ``gains``,
    whose ``certificate`` and ``verdict`` check ``Y_original`` on
    ``nominal_closed``; the DC fields record the loop-gain bound.
    """

    gains: GainSet
    lam_max_R0: float
    dc_value: float
    dc_bound: float
    gamma: float

    @property
    def law(self):
        return self.gains.law

    @property
    def nominal_closed(self):
        return self.gains.nominal_closed

    @property
    def Y_original(self):
        return self.gains.Y_original

    @property
    def dc_margin(self):
        return self.dc_bound - self.dc_value


def _require_minimal(plant):
    """The plant's minimality verdict, from its own PBH tests."""
    minim = is_minimal(plant)
    if not minim.controllable:
        raise NotControllableError("plant realization is not controllable")
    if not minim.observable:
        raise VerdictError("plant realization is not observable")


def robust_stabilize(usys, cfg=None, T_y=None, T_x=None, T_u=None):
    """Stabilize a plant with strictly-negative-imaginary uncertainty.

    Runs the full pipeline (output transformation search, normal form, NI
    synthesis, gain composition; the zero-dynamics split decides a zero at
    the origin), choosing the DC parameters so the loop gain bound
    ``lambda_max(R(0)) < 1/gamma`` holds, and returns the law ``u = K_x x
    + K_w w`` together with the certified nominal closed loop.
    ``w`` enters at the plant input, ``x' = A x + B (u + w)``, so the
    uncertain loop is ``nominal_closed`` ``(A + B K_x, B K_v, C)`` in
    positive feedback with ``Delta`` (see ``FeedbackLaw``).

    A plant that is not minimal is rejected before any other error is
    reported (``NotControllableError``, else ``VerdictError``), by its own
    PBH tests; they run only when ``NormalForm.screened_minimal`` cannot
    prove the plant minimal or the normal form raises.
    """
    if not isinstance(usys, UncertainSystem):
        usys = UncertainSystem(plant=usys, gamma=1.0)
    plant = usys.plant
    try:
        nf = to_normal_form(plant, T_y, T_x=T_x, T_u=T_u)
    except (NisynthError, np.linalg.LinAlgError):
        _require_minimal(plant)
        raise
    if not nf.screened_minimal:
        _require_minimal(plant)

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
    if dc_value >= dc_bound * (1.0 - TOL.dc_condition):
        raise DcGainConditionError(
            f"DC condition fails: lambda_max(T_y^-1 diag(Y2, Y3) T_y^-T) = "
            f"{dc_value:.6g} >= 1/gamma = {dc_bound:.6g}")

    R0 = np.real(eval_tf(gains.nominal_closed, 0.0))
    lam_max_R0 = float(np.linalg.eigvalsh((R0 + R0.T) / 2.0)[-1])
    return StabilizationResult(
        gains=gains, lam_max_R0=lam_max_R0, dc_value=dc_value,
        dc_bound=dc_bound, gamma=usys.gamma)
