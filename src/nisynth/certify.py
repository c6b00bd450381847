"""Negative-imaginary class membership: frequency checks and certificates.

Two independent routes are provided and kept independent on purpose:

* ``classify_freq`` decides the defining Hermitian matrix of the class at
  exact decision points: a point inside every interval bounded by the
  frequencies where the matrix crosses its floor (the imaginary
  eigenvalues of a level-set Hamiltonian or of a zero matrix) and by the
  imaginary-axis poles, and the pole frequencies, all in one stacked
  evaluation (plus residue checks at imaginary-axis poles and the exact
  frequency-limit conditions of SSNI),
* ``verify_certificate`` checks the state-space certificate inequalities
  ``A Y + Y A^T (+ eps (C A Y)^T C A Y) <= 0`` and ``B + A Y C^T = 0``
  for a supplied symmetric positive definite ``Y``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import InputError, NumericalError, PoleInForbiddenRegionError
from .linalg import TOL, spectral_norm, symmetrize
from .statespace import eval_tf, is_minimal, near_pole

NI_CLASSES = ("ni", "sni", "osni", "ssni")


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
    """The first pole the class forbids, with a reason: NI forbids ``Re
    lambda > axis_tol`` and ``at_origin``, the others ``> -axis_tol``."""
    res = sys.spectrum
    ni = ni_class == "ni"
    right = res.values.real > (res.axis_tol if ni else -res.axis_tol)
    bad = (right | res.at_origin) if ni else right
    if not bad.any():
        return None, None
    k = int(np.argmax(bad))
    reason = f"pole in the {'open' if ni else 'closed'} right half-plane" \
        if right[k] else "pole at the origin"
    return complex(res.values[k]), reason


def _imaginary_axis_poles(sys):
    """Spectrum indices of the poles ``on_axis`` with ``Im lambda >
    axis_tol``, less repeats: of poles within ``axis_tol`` in ``Im
    lambda``, the first."""
    res = sys.spectrum
    k = np.flatnonzero(res.on_axis & (res.values.imag > res.axis_tol))
    w = res.values.imag[k]
    return k[~np.tril(np.abs(w[:, None] - w) <= res.axis_tol, -1).any(axis=1)]


def _residue(sys, k):
    """Hermitian part of the residue ``K0 = lim (s - j w0) j R(s)`` at the
    simple pole ``j w0``, spectrum value ``k``, its Hermitian defect and
    whether it is PSD (and Hermitian).

    Computed from the spectral projector ``v w`` of the eigenvalue: ``v``
    its right eigenvector and ``w`` the matching row of the spectrum's left
    eigenvectors (``w v = 1``), or, when the eigenbasis is not trusted, a
    right eigenvector of ``A^T`` scaled to ``w v = 1``.
    """
    p = sys.n_outputs
    res = sys.spectrum
    v = res.vectors[:, k]
    if res.left is not None:
        proj = np.outer(v, res.left[k])
    else:
        resT = linalg.eig(sys.A.T)
        u = resT.vectors[:, int(np.argmin(np.abs(resT.values - res.values[k])))]
        denom = u @ v
        if abs(denom) <= TOL.biorthogonal * (1.0 + sys.a_norm):
            raise InputError(
                "left/right eigenvectors are numerically orthogonal")
        proj = np.outer(v, u) / denom
    K0 = 1j * (sys.C @ proj @ sys.B)
    defect, hermitian_ok = linalg.hermitian_defect(K0)
    K0h = (K0 + K0.conj().T) / 2.0
    lam_min = float(np.linalg.eigvalsh(K0h)[0]) if p else 0.0
    psd_tol = p * TOL.residue_psd * max(spectral_norm(K0h), 1.0)
    return K0h, defect, bool(lam_min >= -psd_tol) and hermitian_ok


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


def _on_axis(vals, M):
    """Signed imaginary parts of the eigenvalues ``vals`` of ``M`` that
    count as imaginary: ``|Re lambda| <= TOL.crossing_axis |lambda| +
    TOL.crossing_axis_norm ||M||_F``, loose on purpose: a spurious
    candidate costs one more decision point, a missed one a band."""
    keep = np.abs(vals.real) <= TOL.crossing_axis * np.abs(vals) + \
        TOL.crossing_axis_norm * linalg.frobenius_norm(M)
    return vals.imag[keep]


def _popov_crossings(A, B, Q, S, W, level):
    """Sorted ``w > 0`` at which an eigenvalue of the para-Hermitian
    ``Phi(jw) = [x; u]* [[Q, S], [S^T, W]] [x; u]``, ``x = (jw I - A)^{-1}
    B u``, equals ``level``: the positive imaginary eigenvalues ``j w`` of
    the level-set Hamiltonian ``[[E, -B V^{-1} B^T], [S V^{-1} S^T - Q,
    -E^T]]``, ``V = W - level I``, ``E = A - B V^{-1} S^T``.  Between two
    consecutive crossings the inertia of ``Phi - level I`` is constant.
    Returns ``None`` when the spread of ``V`` exceeds
    ``TOL.w_condition``."""
    n = len(A)
    lam, U = np.linalg.eigh(W - level * np.eye(len(W)))
    size = np.abs(lam)
    if not size.min() > size.max() / TOL.w_condition:
        return None
    VS = (U / lam) @ U.T @ S.T
    H = np.empty((2 * n, 2 * n))
    H[:n, :n] = A - B @ VS
    H[:n, n:] = -(B @ ((U / lam) @ U.T) @ B.T)
    H[n:, :n] = S @ VS - Q
    H[n:, n:] = -H[:n, :n].T
    w = _on_axis(np.linalg.eigvals(H), H)
    return np.sort(w[w > 0])


def _gamma_crossings(sys):
    """NI candidates from the real level-set Hamiltonian of ``Gamma(w) =
    (w + 1/w) j(R - R*) / 2`` at ``TOL.ni_floor``, or ``None`` when that route
    does not apply.

    ``Gamma = K + K*`` for ``K(s) = (s (R(s) - D) - (R(s) - R(0)) / s) / 2
    = (C B + C (A - A^{-1}) (s I - A)^{-1} B) / 2``, which needs ``D`` and
    ``R(0)`` symmetric (``D`` exactly, ``R(0)`` to within
    ``TOL.dc_asymmetry``).  Since ``(w + 1/w) / 2 >= 1``, every ``w``
    with ``lambda_min(j(R - R*)) < TOL.ni_floor < 0`` has
    ``lambda_min(Gamma) < TOL.ni_floor``: the bands of ``Gamma`` contain
    every violation, so a verdict none of whose decision points lies in
    such a band holds.
    ``Gamma`` is real, the same size as the OSNI Hamiltonian and about a
    third of the cost of the exact route's complex zero matrix."""
    A, B, C, D = sys.A, sys.B, sys.C, sys.D
    if not (D == D.T).all():  # D is square
        return None
    CAi = np.linalg.solve(A.T, C.T).T
    R0 = D - CAi @ B
    if linalg.frobenius_norm(R0 - R0.T) > TOL.dc_asymmetry:
        return None
    Ct, Dt = (C @ A - CAi) / 2.0, C @ B / 2.0
    return _popov_crossings(A, B, np.zeros_like(A), Ct.T, Dt + Dt.T,
                            TOL.ni_floor)


def _exact_crossings(sys, level):
    """Signed frequencies at which an eigenvalue of ``j(R - R*)`` equals
    ``level`` (``w > 0``) or ``-level`` (``-w``).

    ``M(w) = j(R(jw) - R(jw)*)`` has the eigenvalue ``level`` exactly when
    ``G(jw) + j level I`` is singular, ``G(s) = R(s) - R(-s)^T`` realized
    by ``([[A, 0], [0, -A^T]], [B; C^T], [C, B^T], D - D^T)``; the
    imaginary eigenvalues of its zero matrix ``Z = A_G - B_G (D - D^T +
    j level I)^{-1} C_G`` are the candidates, and ``M(-w) = -M(w)^T`` puts
    those of ``-level`` on the negative axis.  Complex, about three times
    the cost of a real Hamiltonian of the same size.  Raises
    ``NumericalError`` when ``level`` is within ``TOL.level_separation``
    of itself of a singular value of ``D - D^T``."""
    A, B, C, D = sys.A, sys.B, sys.C, sys.D
    n, p = sys.n, len(D)
    BG, CG = np.vstack([B, C.T]), np.hstack([C, B.T])
    DZ = (D - D.T) + 1j * level * np.eye(p)
    if (D - D.T).any():
        if np.linalg.svd(DZ, compute_uv=False)[-1] <= \
                TOL.level_separation * abs(level):
            raise NumericalError(
                f"the level {level:g} is a singular value of D - D^T")
        Z = -(BG @ np.linalg.solve(DZ, CG))
    else:
        Z = (1j / level) * (BG @ CG)
    Z[:n, :n] += A
    Z[n:, n:] -= A.T
    return _on_axis(np.linalg.eigvals(Z), Z)


def _decision_points(sys, crossings, axis_poles):
    """Sorted frequencies at which the class matrix decides the verdict:
    one point inside each interval between the sorted crossings and
    imaginary-axis pole frequencies (``b/2`` and ``2b`` for the two
    unbounded ones, ``1`` when there is no break at all), and
    ``|Im lambda|`` of every pole whose imaginary part exceeds the
    spectrum's ``axis_tol`` (a real pole split by rounding adds no
    frequency); points within the pole distance of ``eval_tf`` are
    dropped.  A crossing itself is no point: its margin is the level, up
    to rounding."""
    breaks = np.sort(np.concatenate([crossings, axis_poles]))
    inside = [[1.0]] if not len(breaks) else [
        (breaks[:-1] + breaks[1:]) / 2.0, [breaks[0] / 2.0, 2.0 * breaks[-1]]]
    pole_w = np.abs(sys.poles().imag)
    points = np.concatenate([*inside, pole_w[pole_w > sys.spectrum.axis_tol]])
    # np.unique's array: sorted, each value once
    points.sort()
    distinct = np.empty(len(points), dtype=bool)
    distinct[:1] = True
    distinct[1:] = points[1:] != points[:-1]
    points = points[distinct]
    return points[~near_pole(sys, 1j * points)]


def _ssni_limits(sys):
    """The two frequency-limit conditions of SSNI, exactly: ``lambda_min``
    of ``lim_{w->inf} w j(R - R*) = C B + B^T C^T`` and of
    ``lim_{w->0} j(R - R*) / w = C A^-2 B + (C A^-2 B)^T``, and the
    ``hermitian_defect`` of ``R(0)``, which the second limit presumes 0."""
    CB = sys.C @ sys.B
    AiB = np.linalg.solve(sys.A, sys.B)
    CA2B = sys.C @ np.linalg.solve(sys.A, AiB)
    return (float(np.linalg.eigvalsh(CB + CB.T)[0]),
            float(np.linalg.eigvalsh(CA2B + CA2B.T)[0]),
            *linalg.hermitian_defect(sys.D - sys.C @ AiB))


def _feedthrough_asymmetry(D):
    """``(lambda_min(j(D - D^T)), symmetric)``: the limit of ``j(R - R*)``
    as ``w -> inf`` is ``-||D - D^T||_2``, at least
    ``-TOL.feedthrough_asymmetry`` for a symmetric ``D``."""
    if D.shape[0] == D.shape[1] and (D == D.T).all():
        return 0.0, True
    lam = float(np.linalg.eigvalsh(1j * (D - D.T))[0])
    return lam, lam >= -TOL.feedthrough_asymmetry


def _candidates(sys, ni_class, eps, exact=False):
    """Crossing candidates of the class's level set, the note that names
    them, and whether they are ``Gamma``'s.  OSNI: ``TOL.ni_floor`` crossings
    of the Popov function ``F + F* - eps F* F``, ``F(s) = s (R(s) - D)``
    realized as ``(A, B, C A, C B)``.  NI: of ``Gamma`` unless ``exact``
    or ``_gamma_crossings`` does not apply, then of ``j(R - R*)`` itself.
    SNI and SSNI: ``+-TOL.strict_floor`` crossings of ``j(R - R*)``, the
    ``-`` ones negated.  Raises ``NumericalError`` when the OSNI
    Hamiltonian cannot be formed."""
    if ni_class == "osni":
        A, B = sys.A, sys.B
        Ct, Dt = sys.C @ A, sys.C @ B
        w = _popov_crossings(
            A, B, -eps * (Ct.T @ Ct), (Ct.T - eps * (Ct.T @ Dt)),
            Dt + Dt.T - eps * (Dt.T @ Dt), TOL.ni_floor)
        if w is None:
            raise NumericalError(
                "level-set Hamiltonian: C B + B^T C^T - eps (C B)^T C B is "
                "too ill-conditioned at the level to invert")
        return w, f"candidates for {TOL.ni_floor:g} of the Popov function", \
            False
    if ni_class == "ni":
        w = None if exact else _gamma_crossings(sys)
        if w is not None:
            return w, (f"candidates for {TOL.ni_floor:g} of "
                       "(w + 1/w) j(R - R*) / 2"), True
        w = _exact_crossings(sys, TOL.ni_floor)
        return (np.sort(w[w > 0]),
                f"candidates for {TOL.ni_floor:g} of j(R - R*)", False)
    w = _exact_crossings(sys, TOL.strict_floor)
    return (w[np.argsort(np.abs(w))],
            f"candidates for +-{TOL.strict_floor:g} of j(R - R*)", False)


def classify_freq(sys, ni_class, eps=None):
    """Frequency-domain test of NI/SNI/OSNI/SSNI membership, decided at
    exact decision points instead of a sampling grid.

    The class matrix is ``j(R - R*)`` (NI, SNI, SSNI) or the Popov
    function ``w j(R - R*) - eps w^2 (R - D)* (R - D)`` (OSNI); the
    verdict holds when its smallest eigenvalue, the margin, is at least
    the class floor (``TOL.ni_floor``, or ``TOL.strict_floor`` for the strict
    classes) at every decision point.  The candidates (``_candidates``)
    are the frequencies where an eigenvalue of the class matrix, or of a
    function whose bands contain its, crosses the floor; those on
    imaginary-axis poles are dropped, since the residue checks cover
    those poles.  The class matrix is evaluated at the decision points
    (``_decision_points``) by one stacked ``eval_tf`` and one stacked
    ``eigvalsh``.

    What the route guarantees: every band of frequencies on which the
    margin is below the floor, up to the accuracy of the candidates,
    holds a decision point, and for OSNI, SNI, SSNI and the exact NI route
    the margin is below the floor at that point.  NI first takes the
    bands of ``Gamma`` (``_gamma_crossings``), a real Hamiltonian of half
    the size, which contain the bands of ``j(R - R*)``: when no decision
    point has ``Gamma`` below the floor, or one has ``j(R - R*)`` below
    it, the verdict is exact; otherwise the exact crossings of
    ``j(R - R*)`` decide (a second evaluation).  The margin is read at the
    points, not minimized over a band.  The strict floor cannot hold as
    ``w -> 0`` or ``w -> inf``, where ``j(R - R*)`` of a proper plant
    tends to 0: it applies from the lowest to the highest decision point
    whose margin reaches it (to every point when none does), and outside,
    in the roll-off, the margin must be at least ``-TOL.strict_floor``, the
    crossings of which are candidates too; SSNI tests its two limits exactly
    (``_ssni_limits``).  ``worst_omega`` is the decision point of the
    smallest margin among those the strict floor applies to and those
    that fail, the lowest such frequency on a tie.  The notes list the
    candidates and the number of decision points.

    ``D`` is taken as symmetric by ``_feedthrough_asymmetry``; otherwise
    the verdict fails, since ``j(R - R*)`` tends to the indefinite
    ``j(D - D^T)`` as ``w -> inf``.  NI additionally runs residue checks
    at simple imaginary-axis poles.  Raises ``PoleInForbiddenRegionError``
    when the pole precondition of the class fails, and ``NumericalError``
    when the candidates cannot be computed.
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
        if not 0 < eps < np.inf:
            raise InputError("eps must be finite and positive")
    axis_k = _imaginary_axis_poles(sys)
    axis_poles = sys.spectrum.values.imag[axis_k]
    floor = TOL.ni_floor if ni_class in ("ni", "osni") else TOL.strict_floor

    def decide(exact):
        signed, what, superset = np.zeros(0), "candidates", False
        if p and sys.n:
            signed, what, superset = _candidates(sys, ni_class, eps, exact)
            if len(axis_poles):
                signed = signed[~near_pole(sys, 1j * np.abs(signed))]
            # a candidate within TOL.crossing_merge, relative, of the last
            # one kept is that one: the copies of a multiple crossing bound
            # no interval, and no chain of copies drops a farther candidate
            signed = signed[np.argsort(np.abs(signed), kind="stable")]
            keep, last = [], -np.inf
            for k, w in enumerate(np.abs(signed).tolist()):
                if w - last > TOL.crossing_merge * w:
                    keep.append(k)
                    last = w
            signed = signed[keep]
        omegas = _decision_points(sys, np.abs(signed), axis_poles)
        margins = np.zeros(len(omegas))
        if p:
            R = eval_tf(sys, 1j * omegas)
            margins = np.linalg.eigvalsh(
                _class_matrix(R, sys.D, omegas, ni_class, eps))[:, 0]
        floors = np.full(len(omegas), floor)
        reach = np.flatnonzero(margins >= floor)
        if ni_class in ("sni", "ssni") and len(reach):
            # the roll-off below and above the points that reach the floor
            floors[:reach[0]] = floors[reach[-1] + 1:] = -floor
        return signed, what, superset, omegas, margins, floors

    signed, what, superset, omegas, margins, floors = decide(False)
    if superset and (margins >= floor).all() and \
            (margins * (omegas + 1.0 / omegas) / 2.0 < floor).any():
        # a band of Gamma without a violation in it: decide exactly
        signed, what, _, omegas, margins, floors = decide(True)
    notes = [f"{what}: " + (", ".join(f"{w:.9g}" for w in signed) or "none"),
             f"decision points: {len(omegas)}"]
    fails = margins < floors
    # the points are sorted: a tie goes to the lowest frequency
    k = int(np.argmin(np.where((floors == floor) | fails, margins, np.inf)))
    worst_margin, worst_omega = float(margins[k]), float(omegas[k])
    holds = not fails.any()
    if ni_class in ("sni", "ssni"):
        core = omegas[floors == floor]
        notes.append(f"strict test floor {TOL.strict_floor:g} from "
                     f"{core[0]:.9g} to {core[-1]:.9g}, "
                     f"{-TOL.strict_floor:g} outside")
    lam_inf, d_symmetric = _feedthrough_asymmetry(sys.D)
    if not d_symmetric:
        holds = False
        notes.append(f"D is not symmetric: the limit j(D - D^T) of "
                     f"j(R - R*) fails (lambda_min {lam_inf:.3e})")

    if ni_class == "ni":
        for k, w0 in zip(axis_k, axis_poles):
            if sys.spectrum.algebraic[k] != 1:
                holds = False
                notes.append(f"pole at j*{w0:g} is not simple")
                continue
            _, defect, psd = _residue(sys, k)
            if not psd:
                holds = False
                notes.append(f"residue at j*{w0:g} fails the PSD condition")
            else:
                notes.append(f"residue at j*{w0:g}: PSD, defect {defect:.2e} "
                             f"(cluster tolerance {TOL.cluster:g} relative)")

    if ni_class == "ssni" and holds:
        lam_hi, lam_lo, r0_defect, r0_symmetric = _ssni_limits(sys)
        notes.append(f"limits: lambda_min(C B + B^T C^T) {lam_hi:.3e}, "
                     f"lambda_min(C A^-2 B + (C A^-2 B)^T) {lam_lo:.3e}")
        if not r0_symmetric:
            holds = False
            notes.append(f"R(0) is not symmetric (defect {r0_defect:.3e}): "
                         "the low-frequency limit fails")
        elif lam_hi <= TOL.strict_floor or lam_lo <= TOL.strict_floor:
            holds = False
            notes.append("a frequency-limit condition fails")

    return Verdict(holds=bool(holds), ni_class=ni_class,
                   worst_omega=worst_omega, worst_margin=worst_margin,
                   notes=tuple(notes))


def verify_certificate(sys, ni_class, Y, eps=None):
    """Check the state-space certificate of NI/SSNI/OSNI membership.

    Returns ``(Verdict, Certificate)``; the verdict's ``worst_margin`` is
    the certificate's ``lyap_residual``.  Hypothesis failures (minimality,
    ``det A != 0``, symmetric feedthrough, and for the strong class the
    absence of observable uncontrollable modes) make the verdict fail with
    an explanatory note rather than raising.
    """
    ni_class = _check_class(ni_class)
    if ni_class == "sni":
        raise InputError(
            "the certificate route covers ni/osni/ssni; use the frequency "
            "test for sni")
    sys.require_square("certificate verification")
    Y = symmetrize(linalg.as_matrix(Y, "Y", square=True), "Y")
    if Y.shape[0] != sys.n:
        raise InputError(f"Y must be {sys.n}x{sys.n}, got {Y.shape}")
    A, B, C = sys.A, sys.B, sys.C
    M = A @ Y + Y @ A.T
    if ni_class == "osni":
        if eps is None or not 0 < eps < np.inf:
            raise InputError("osni certificate needs a finite positive eps")
        CAY = C @ A @ Y
        M = M + eps * (CAY.T @ CAY)
    M = (M + M.T) / 2.0
    lam_y = np.linalg.eigvalsh(Y)
    cert = Certificate(
        Y=Y, epsilon=eps, ni_class=ni_class,
        lyap_residual=float(np.linalg.eigvalsh(M)[-1]) if sys.n else 0.0,
        coupling_residual=spectral_norm(B + A @ Y @ C.T),
        pd_margin=float(lam_y[0]) if sys.n else 0.0)
    notes = []
    holds = True

    if not _feedthrough_asymmetry(sys.D)[1]:
        holds = False
        notes.append("feedthrough matrix is not symmetric")

    if ni_class in ("ni", "osni"):
        minim = is_minimal(sys)
        if not minim.minimal:
            holds = False
            notes.append("realization is not minimal (certificate-test hypothesis)")
        if sys.spectrum.nearly_singular:
            holds = False
            notes.append("A is singular (certificate-test hypothesis det(A) != 0)")
    else:  # ssni
        hidden = sys.controllability_failures & ~sys.observability_failures
        if hidden.any():
            holds = False
            notes.append(
                f"observable uncontrollable mode at "
                f"{sys.poles()[np.argmax(hidden)]} "
                "(certificate-test hypothesis)")

    # ||Y||_2 of the symmetric Y from the eigenvalues already at hand
    scale_y = max(1.0, float(np.abs(lam_y).max(initial=0.0)))
    if cert.pd_margin <= linalg.pd_floor(lam_y):
        holds = False
        notes.append(f"Y is not positive definite "
                     f"(lambda_min {cert.pd_margin:.3e})")
    # the scale 1 + ||B|| + ||A|| ||Y|| ||C|| is at least 1, so a residual
    # of at most TOL.coupling passes without its two SVDs
    if cert.coupling_residual > TOL.coupling and \
            cert.coupling_residual > TOL.coupling * (
                1.0 + spectral_norm(sys.B)
                + sys.a_norm * scale_y * spectral_norm(sys.C)):
        holds = False
        notes.append(f"coupling residual {cert.coupling_residual:.3e} "
                     "violates B + A Y C^T = 0")
    lyap_scale = 1.0 + sys.a_norm * scale_y
    if ni_class == "ssni":
        if cert.lyap_residual > -TOL.strict_floor:
            holds = False
            notes.append(f"A Y + Y A^T is not negative definite "
                         f"(lambda_max {cert.lyap_residual:.3e})")
    else:
        if cert.lyap_residual > TOL.lyapunov_inequality * lyap_scale:
            holds = False
            notes.append(f"Lyapunov-type inequality fails "
                         f"(lambda_max {cert.lyap_residual:.3e})")
    verdict = Verdict(holds=holds, ni_class=ni_class, worst_omega=None,
                      worst_margin=cert.lyap_residual, notes=tuple(notes))
    return verdict, cert
