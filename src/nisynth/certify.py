"""Negative-imaginary class membership: frequency checks and certificates.

Two independent routes are provided and kept independent on purpose:

* ``classify_freq`` samples the defining Hermitian matrix of the class on
  a log frequency grid (plus residue checks at imaginary-axis poles and
  finite proxies for the frequency-limit conditions),
* ``verify_certificate`` checks the state-space certificate inequalities
  ``A Y + Y A^T (+ eps (C A Y)^T C A Y) <= 0`` and ``B + A Y C^T = 0``
  for a supplied symmetric positive definite ``Y``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import InputError, PoleInForbiddenRegionError
from .linalg import EPS, spectral_norm, symmetrize
from .statespace import eval_tf, is_minimal, near_pole

NI_CLASSES = ("ni", "sni", "osni", "ssni")

#: default grid extent and size
GRID_POINTS = 400
GRID_RANGE = (1e-4, 1e4)

#: complex entries one stacked array of the frequency sweep may hold: the
#: grid is swept in chunks of 2**14 // n**2 points, since the whole
#: 400-point grid of a 64-state system would stack 26 MB of (sI - A)
SWEEP_ENTRIES = 2 ** 14

#: strict positivity floor for sampled strict inequalities
STRICT_FLOOR = 1e-10

#: finite proxies for the zero/infinity frequency limits
OMEGA_LOW = 1e-6
OMEGA_HIGH = 1e6


@dataclass(frozen=True)
class FrequencyGrid:
    """Sorted positive frequencies with pole-exclusion bookkeeping."""

    omegas: np.ndarray
    lo: float
    hi: float
    excluded: tuple = ()

    @classmethod
    def default(cls, sys=None, points=GRID_POINTS, lo=None, hi=None):
        lo = GRID_RANGE[0] if lo is None else lo
        hi = GRID_RANGE[1] if hi is None else hi
        if not (0 < lo < hi) or points < 2:
            raise InputError("grid needs 0 < lo < hi and at least 2 points")
        omegas = np.logspace(np.log10(lo), np.log10(hi), points)
        excluded = ()
        if sys is not None:
            poles = sys.poles()
            keep = np.ones(len(omegas), dtype=bool)
            for pole in poles:
                radius = 1e-6 * (1.0 + abs(pole))
                keep &= np.abs(1j * omegas - pole) >= radius
            excluded = tuple(float(w) for w in omegas[~keep])
            omegas = omegas[keep]
        if len(omegas) == 0:
            raise InputError("frequency grid is empty after pole exclusion")
        return cls(omegas=omegas, lo=lo, hi=hi, excluded=excluded)


@dataclass(frozen=True)
class Verdict:
    """Outcome of a class test with worst-case witnesses."""

    holds: bool
    ni_class: str
    worst_omega: float | None = None
    worst_margin: float | None = None
    notes: tuple = ()

    def to_dict(self):
        return {"holds": self.holds, "class": self.ni_class,
                "worst_omega": self.worst_omega,
                "worst_margin": self.worst_margin,
                "notes": list(self.notes)}


@dataclass(frozen=True)
class Certificate:
    """Symmetric PD certificate with residual diagnostics.

    Residuals are computed from ``(sys, Y, epsilon)`` at verification time:
    ``lyap_residual`` is the largest eigenvalue of the Lyapunov-type matrix,
    ``coupling_residual`` is ``||B + A Y C^T||``, ``pd_margin`` is the
    smallest eigenvalue of ``Y``.
    """

    Y: np.ndarray
    epsilon: float | None
    ni_class: str
    lyap_residual: float
    coupling_residual: float
    pd_margin: float

    def to_dict(self):
        d = {"Y": self.Y.tolist(), "class": self.ni_class,
             "residuals": {"lyap_residual": self.lyap_residual,
                           "coupling_residual": self.coupling_residual,
                           "pd_margin": self.pd_margin}}
        if self.epsilon is not None:
            d["epsilon"] = self.epsilon
        return d


def _check_class(ni_class):
    ni_class = ni_class.lower()
    if ni_class not in NI_CLASSES:
        raise InputError(f"unknown class {ni_class!r}; expected one of {NI_CLASSES}")
    return ni_class


def _forbidden_pole(sys, ni_class):
    """Return a pole violating the class pole condition, with a reason."""
    poles = sys.poles()
    tol = 1e-8 * (1.0 + sys.a_norm)
    if ni_class == "ni":
        for lam in poles:
            if lam.real > tol:
                return complex(lam), "pole in the open right half-plane"
            if abs(lam) <= tol:
                return complex(lam), "pole at the origin"
    else:
        for lam in poles:
            if lam.real > -tol:
                return complex(lam), "pole in the closed right half-plane"
    return None, None


def _imaginary_axis_pole_frequencies(sys):
    tol = 1e-8 * (1.0 + sys.a_norm)
    out = []
    for lam in sys.poles():
        if abs(lam.real) <= tol and lam.imag > tol:
            if not any(abs(lam.imag - w) <= tol for w in out):
                out.append(float(lam.imag))
    return out


@dataclass(frozen=True)
class ResidueResult:
    omega0: float
    K0: np.ndarray
    psd: bool
    hermitian_defect: float
    simple: bool
    notes: tuple = ()


def residue_at_imaginary_pole(sys, omega0):
    """Residue matrix ``K0 = lim (s - j w0) j R(s)`` at a simple pole.

    Computed from the spectral projector of the eigenvalue ``j w0`` (right
    and left eigenvectors).  Non-simple poles yield ``simple=False`` and a
    failed PSD verdict.
    """
    p = sys.require_square("residue computation")
    if omega0 <= 0:
        raise InputError("omega0 must be positive")
    res = sys.spectrum
    scale = 1.0 + sys.a_norm
    target = 1j * omega0
    dists = np.abs(res.values - target)
    k = int(np.argmin(dists))
    if dists[k] > 1e-7 * scale:
        raise InputError(
            f"j*{omega0} is not a pole (closest eigenvalue {res.values[k]})")
    if res.algebraic[k] != 1:
        return ResidueResult(
            omega0=omega0, K0=np.zeros((p, p)), psd=False,
            hermitian_defect=float("nan"), simple=False,
            notes=(f"pole at j*{omega0} has algebraic multiplicity "
                   f"{res.algebraic[k]}; the class requires simple "
                   "imaginary-axis poles",))
    lam = res.values[k]
    v = res.vectors[:, k]
    resT = linalg.eig(sys.A.T)
    kT = int(np.argmin(np.abs(resT.values - lam)))
    u = resT.vectors[:, kT].conj()
    denom = u.conj() @ v
    if abs(denom) <= EPS * scale:
        raise InputError("left/right eigenvectors are numerically orthogonal")
    proj = np.outer(v, u.conj()) / denom
    K0 = 1j * (sys.C @ proj @ sys.B)
    defect = spectral_norm(K0 - K0.conj().T)
    K0h = (K0 + K0.conj().T) / 2.0
    lam_min = float(np.linalg.eigvalsh(K0h)[0]) if p else 0.0
    psd_tol = p * EPS * max(spectral_norm(K0h), 1.0)
    hermitian_ok = defect <= 1e-8 * max(1.0, spectral_norm(K0))
    return ResidueResult(
        omega0=omega0, K0=np.real_if_close(K0h), psd=bool(lam_min >= -psd_tol) and hermitian_ok,
        hermitian_defect=defect, simple=True,
        notes=() if hermitian_ok else
        (f"residue Hermitian defect {defect:.3e} exceeds tolerance",))


def _hermitian(M):
    return M.conj().swapaxes(-1, -2)


def _class_matrix(R, D, omega, ni_class, eps):
    """Defining Hermitian matrix of the class at one frequency, or the
    stack of them at a 1-D array of frequencies (``R`` stacked alike)."""
    M = 1j * (R - _hermitian(R))
    if ni_class in ("ni", "sni", "ssni"):
        return (M + _hermitian(M)) / 2.0
    # osni: j w (R - R*) - eps w^2 (R - D)* (R - D); each w^2 is the scalar
    # power, which rounds differently from an array square at some points
    w = np.asarray(omega)[..., None, None]
    w2 = np.array([x ** 2 for x in w.flat]).reshape(w.shape)
    Rb = R - D
    M = w * M - eps * w2 * (_hermitian(Rb) @ Rb)
    return (M + _hermitian(M)) / 2.0


def classify_freq(sys, ni_class, grid=None, eps=None):
    """Sampled frequency-domain test of NI/SNI/OSNI/SSNI membership.

    The grid points within the pole distance of ``eval_tf`` are skipped;
    the rest are swept in chunks of stacked evaluations.  NI additionally
    runs residue checks at detected simple imaginary-axis poles; SSNI
    additionally evaluates finite proxies of the two frequency limit
    conditions.  Raises ``PoleInForbiddenRegionError`` when the pole
    precondition of the class fails.
    """
    ni_class = _check_class(ni_class)
    p = sys.require_square("class test")
    pole, reason = _forbidden_pole(sys, ni_class)
    if pole is not None:
        raise PoleInForbiddenRegionError(
            f"{ni_class} forbids a {reason}: found {pole}", pole=pole)
    if ni_class == "osni":
        if eps is None:
            raise InputError("osni test needs a strictness level eps")
        if eps <= 0:
            raise InputError("eps must be positive")
    if grid is None:
        grid = FrequencyGrid.default(sys)
    notes = [f"grid: {len(grid.omegas)} points in [{grid.lo:g}, {grid.hi:g}]"]
    if grid.excluded:
        notes.append(f"excluded {len(grid.excluded)} frequencies near "
                     "imaginary-axis poles")
    omegas = grid.omegas[~near_pole(sys, 1j * grid.omegas)]
    step = max(1, SWEEP_ENTRIES // max(sys.n, 1) ** 2)
    margins = np.zeros(len(omegas))
    for lo in range(0, len(omegas), step):
        w = omegas[lo:lo + step]
        R = eval_tf(sys, 1j * w)
        if p:
            lam = np.linalg.eigvalsh(_class_matrix(R, sys.D, w, ni_class, eps))
            margins[lo:lo + step] = lam[:, 0]
    if np.isnan(margins).all():
        raise InputError("no usable grid points (all near poles)")
    k = int(np.nanargmin(margins))
    worst_margin, worst_omega = float(margins[k]), float(omegas[k])
    floor = -1e-8 if ni_class in ("ni", "osni") else STRICT_FLOOR
    holds = worst_margin >= floor
    if ni_class in ("sni", "ssni"):
        notes.append(f"strict test floor {STRICT_FLOOR:g}")

    if ni_class == "ni":
        for w0 in _imaginary_axis_pole_frequencies(sys):
            rr = residue_at_imaginary_pole(sys, w0)
            if not rr.psd:
                holds = False
                notes.append(
                    f"residue at j*{w0:g} fails the PSD condition" if rr.simple
                    else f"pole at j*{w0:g} is not simple")
            else:
                notes.append(f"residue at j*{w0:g}: PSD, defect "
                             f"{rr.hermitian_defect:.2e} "
                             f"(cluster tolerance {1e-7:g} relative)")

    if ni_class == "ssni" and holds:
        R_hi = eval_tf(sys, 1j * OMEGA_HIGH)
        M_hi = OMEGA_HIGH * _class_matrix(R_hi, sys.D, OMEGA_HIGH, "ssni",
                                          None)
        lam_hi = float(np.linalg.eigvalsh(M_hi)[0])
        R_lo = eval_tf(sys, 1j * OMEGA_LOW)
        M_lo = _class_matrix(R_lo, sys.D, OMEGA_LOW, "ssni", None) / OMEGA_LOW
        lam_lo = float(np.linalg.eigvalsh(M_lo)[0])
        notes.append(
            f"limit proxies at omega={OMEGA_HIGH:g}/{OMEGA_LOW:g}: "
            f"lambda_min {lam_hi:.3e} / {lam_lo:.3e}")
        if lam_hi <= STRICT_FLOOR or lam_lo <= STRICT_FLOOR:
            holds = False
            notes.append("a frequency-limit condition fails at its proxy")

    return Verdict(holds=bool(holds), ni_class=ni_class,
                   worst_omega=worst_omega, worst_margin=worst_margin,
                   notes=tuple(notes))


def compute_certificate(sys, ni_class, Y, eps=None):
    """Residual diagnostics of a certificate candidate (no verdict)."""
    ni_class = _check_class(ni_class)
    Y = symmetrize(linalg.as_matrix(Y, "Y", square=True), "Y")
    if Y.shape[0] != sys.n:
        raise InputError(f"Y must be {sys.n}x{sys.n}, got {Y.shape}")
    A, B, C = sys.A, sys.B, sys.C
    M = A @ Y + Y @ A.T
    if ni_class == "osni":
        if eps is None or eps <= 0:
            raise InputError("osni certificate needs a positive eps")
        CAY = C @ A @ Y
        M = M + eps * (CAY.T @ CAY)
    M = (M + M.T) / 2.0
    lyap = float(np.linalg.eigvalsh(M)[-1]) if sys.n else 0.0
    coupling = spectral_norm(B + A @ Y @ C.T)
    pd = float(np.linalg.eigvalsh(Y)[0]) if sys.n else 0.0
    return Certificate(Y=Y, epsilon=eps, ni_class=ni_class,
                       lyap_residual=lyap, coupling_residual=coupling,
                       pd_margin=pd)


def verify_certificate(sys, ni_class, Y, eps=None):
    """Check the state-space certificate of NI/SSNI/OSNI membership.

    Returns ``(Verdict, Certificate)``.  Hypothesis failures (minimality,
    ``det A != 0``, symmetric feedthrough, and for the strong class the
    absence of observable uncontrollable modes) make the verdict fail with
    an explanatory note rather than raising.
    """
    ni_class = _check_class(ni_class)
    if ni_class == "sni":
        raise InputError(
            "the certificate route covers ni/osni/ssni; use the frequency "
            "test for sni")
    p = sys.require_square("certificate verification")
    cert = compute_certificate(sys, ni_class, Y, eps)
    notes = []
    holds = True

    dsym = spectral_norm(sys.D - sys.D.T)
    if dsym > 1e-10 * (1.0 + spectral_norm(sys.D)):
        holds = False
        notes.append("feedthrough matrix is not symmetric")

    if ni_class in ("ni", "osni"):
        minim = is_minimal(sys)
        if not minim.minimal:
            holds = False
            notes.append("realization is not minimal (certificate-test hypothesis)")
        if sys.n:
            smin = np.linalg.svd(sys.A, compute_uv=False)[-1]
            if smin <= 1e-10 * (1.0 + sys.a_norm):
                holds = False
                notes.append("A is singular (certificate-test hypothesis det(A) != 0)")
    else:  # ssni
        hidden = linalg.pbh_failures(sys.A, sys.B, "controllable",
                                     sys.spectrum) & \
            ~linalg.pbh_failures(sys.A, sys.C, "observable", sys.spectrum)
        if hidden.any():
            holds = False
            notes.append(
                f"observable uncontrollable mode at "
                f"{sys.poles()[np.argmax(hidden)]} "
                "(certificate-test hypothesis)")

    scale_y = max(1.0, spectral_norm(cert.Y))
    if cert.pd_margin <= sys.n * EPS * scale_y:
        holds = False
        notes.append(f"Y is not positive definite "
                     f"(lambda_min {cert.pd_margin:.3e})")
    coupling_scale = 1.0 + spectral_norm(sys.B) + \
        sys.a_norm * scale_y * spectral_norm(sys.C)
    if cert.coupling_residual > 1e-9 * coupling_scale:
        holds = False
        notes.append(f"coupling residual {cert.coupling_residual:.3e} "
                     "violates B + A Y C^T = 0")
    lyap_scale = 1.0 + sys.a_norm * scale_y
    if ni_class == "ssni":
        if cert.lyap_residual > -STRICT_FLOOR:
            holds = False
            notes.append(f"A Y + Y A^T is not negative definite "
                         f"(lambda_max {cert.lyap_residual:.3e})")
    else:
        if cert.lyap_residual > 1e-8 * lyap_scale:
            holds = False
            notes.append(f"Lyapunov-type inequality fails "
                         f"(lambda_max {cert.lyap_residual:.3e})")
    verdict = Verdict(holds=holds, ni_class=ni_class, worst_omega=None,
                      worst_margin=cert.lyap_residual, notes=tuple(notes))
    return verdict, cert


def dc_gain_interconnection_stable(R, Rs):
    """DC-gain internal-stability test of a positive feedback loop.

    Checks the hypotheses ``R(inf) Rs(inf) = 0`` and ``Rs(inf) >= 0`` on
    the feedthroughs, then ``lambda_max(R(0) Rs(0)) < 1``.
    """
    p = R.require_square("DC-gain test")
    if Rs.require_square("DC-gain test") != p:
        raise InputError("systems must share the input/output dimension")
    notes = ["plant: asserted NI", "uncertainty: asserted SNI"]
    holds = True
    dprod = spectral_norm(R.D @ Rs.D)
    if dprod > 1e-9 * (1.0 + spectral_norm(R.D)) * (1.0 + spectral_norm(Rs.D)):
        holds = False
        notes.append(f"R(inf) Rs(inf) = 0 fails (norm {dprod:.3e})")
    if not linalg.definiteness(Rs.D + Rs.D.T, "psd"):
        holds = False
        notes.append("Rs(inf) >= 0 fails")
    R0 = np.real(eval_tf(R, 0.0))
    Rs0 = np.real(eval_tf(Rs, 0.0))
    prod_eigs = np.linalg.eigvals(R0 @ Rs0)
    if np.abs(prod_eigs.imag).max(initial=0.0) > 1e-7 * (1.0 + np.abs(prod_eigs).max(initial=0.0)):
        notes.append("DC product has non-real eigenvalues; using max real part")
    lam_max = float(prod_eigs.real.max()) if p else 0.0
    notes.append(f"lambda_max(R(0) Rs(0)) = {lam_max:.6g}")
    if lam_max >= 1.0 - 1e-9:
        holds = False
    return Verdict(holds=holds, ni_class="interconnection",
                   worst_omega=0.0, worst_margin=1.0 - lam_max,
                   notes=tuple(notes))
