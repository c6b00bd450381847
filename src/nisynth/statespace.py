"""State-space systems: construction, evaluation, interconnection, simulation.

The JSON schema for a system is::

    {"A": [[...]], "B": [[...]], "C": [[...]], "D": [[...]], "name": "..."}

``D`` and ``name`` are optional; ``D`` defaults to zero.  Matrices are
row-major lists of lists and are validated for rectangularity on load.

A ``StateSpace`` holds read-only copies of its matrices and caches the
spectrum of ``A``, which records ``||A||_2`` too and, once asked, its left
eigenvectors, and the modal factors ``C V`` and ``V^{-1} B`` that
``eval_tf`` works from; the functions keep no other state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .errors import (
    IllPosedInterconnectionError,
    InputError,
    PoleProximityError,
    SimulationDivergedError,
)
from .linalg import as_matrix


@dataclass(frozen=True)
class StateSpace:
    """Continuous-time LTI system ``xdot = A x + B u``, ``y = C x + D u``."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray = None
    name: str | None = None

    def __post_init__(self):
        A = as_matrix(self.A, "A", square=True)
        B = as_matrix(self.B, "B")
        C = as_matrix(self.C, "C")
        n = A.shape[0]
        if B.shape[0] != n:
            raise InputError(f"B must have {n} rows, got {B.shape[0]}")
        if C.shape[1] != n:
            raise InputError(f"C must have {n} columns, got {C.shape[1]}")
        D = self.D
        if D is None:
            D = np.zeros((C.shape[0], B.shape[1]))
        D = as_matrix(D, "D")
        if D.shape != (C.shape[0], B.shape[1]):
            raise InputError(
                f"D must be {C.shape[0]}x{B.shape[1]}, got {D.shape}")
        for name, M in (("A", A), ("B", B), ("C", C), ("D", D)):
            M = np.array(M)
            M.flags.writeable = False
            object.__setattr__(self, name, M)

    @cached_property
    def spectrum(self):
        """``linalg.eig(A)``, computed once per system."""
        return linalg.eig(self.A)

    @cached_property
    def modal_factors(self):
        """``(C V, V^{-1} B)`` from the cached spectrum, computed once per
        system; None when the eigenbasis is not trusted
        (``spectrum.left`` is None)."""
        W = self.spectrum.left
        if W is None:
            return None
        return self.C @ self.spectrum.vectors, W @ self.B

    @property
    def a_norm(self):
        """Spectral norm of ``A``, recorded by its spectrum."""
        return self.spectrum.norm

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def n_inputs(self):
        return self.B.shape[1]

    @property
    def n_outputs(self):
        return self.C.shape[0]

    @property
    def is_square(self):
        return self.n_inputs == self.n_outputs

    def require_square(self, context="this operation"):
        if not self.is_square:
            raise InputError(
                f"{context} requires a square system "
                f"({self.n_inputs} inputs vs {self.n_outputs} outputs)")
        return self.n_inputs

    def poles(self):
        """Eigenvalues of A (poles of a minimal realization)."""
        return self.spectrum.values

    def to_dict(self):
        d = {"A": self.A.tolist(), "B": self.B.tolist(), "C": self.C.tolist()}
        if np.any(self.D != 0.0):
            d["D"] = self.D.tolist()
        if self.name:
            d["name"] = self.name
        return d

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise InputError("system JSON must be an object")
        missing = [k for k in ("A", "B", "C") if k not in data]
        if missing:
            raise InputError(f"system JSON is missing keys: {missing}")
        return cls(A=_load_mat(data["A"], "A"), B=_load_mat(data["B"], "B"),
                   C=_load_mat(data["C"], "C"),
                   D=_load_mat(data["D"], "D") if "D" in data else None,
                   name=data.get("name"))


def _load_mat(rows, name):
    """Validate a row-major list of lists as a rectangular matrix."""
    if np.isscalar(rows):
        return np.array([[float(rows)]])
    if not isinstance(rows, list) or not rows:
        raise InputError(f"{name} must be a non-empty list of rows")
    if not all(isinstance(r, list) for r in rows):
        raise InputError(f"{name} must be a list of lists")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise InputError(f"{name} has ragged rows (widths {sorted(widths)})")
    try:
        return np.array(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{name} has non-numeric entries: {exc}") from exc


def load_system(path):
    """Load a system from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: invalid JSON at line {exc.lineno}: "
                             f"{exc.msg}") from exc
    return StateSpace.from_dict(data)


def near_pole(sys, s):
    """True for each point of the 1-D array ``s`` within
    ``1e-9 * (1 + ||A||)`` of an eigenvalue of ``A``."""
    dist = np.abs(sys.poles()[None, :] - np.asarray(s)[:, None])
    return dist.min(axis=1, initial=np.inf) < 1e-9 * (1.0 + sys.a_norm)


def eval_tf(sys, s):
    """Evaluate ``R(s) = C (sI - A)^{-1} B + D``.

    ``s`` is one complex point, giving a ``p x q`` array, or a 1-D array of
    N points, giving the ``N x p x q`` stack of the responses; each slice
    equals the one-point call bit for bit.  The responses come from the
    modal form ``D + (C V) diag(1 / (s - lambda_k)) (V^{-1} B)`` in one
    stacked product, or, when the eigenbasis is not trusted
    (``modal_factors`` is None), from one stacked solve with ``sI - A``.
    Raises ``PoleProximityError`` when a point is ``near_pole`` (the first
    such point is named).
    """
    points = np.asarray(s, dtype=complex)
    stack = points.reshape(-1)
    if sys.n == 0:
        return np.broadcast_to(sys.D + 0j, points.shape + sys.D.shape).copy()
    vals = sys.poles()
    near = near_pole(sys, stack)
    if near.any():
        point = complex(stack[np.argmax(near)])
        dist = np.abs(vals - point)
        k = int(np.argmin(dist))
        raise PoleProximityError(
            f"evaluation point {point} is within {dist[k]:.3e} of pole "
            f"{vals[k]}", pole=complex(vals[k]))
    factors = sys.modal_factors
    if factors is None:
        shifted = stack[:, None, None] * np.eye(sys.n) - sys.A
        R = sys.C @ np.linalg.solve(shifted, sys.B.astype(complex)) + sys.D
    else:
        CV, WB = factors
        resolvent = 1.0 / (stack[:, None] - vals[None, :])
        R = (CV * resolvent[:, None, :]) @ WB + sys.D
    return R.reshape(points.shape + R.shape[-2:])


@dataclass(frozen=True)
class Minimality:
    controllable: bool
    observable: bool

    @property
    def minimal(self):
        return self.controllable and self.observable


def is_minimal(sys):
    """PBH controllability/observability of the realization."""
    return Minimality(
        controllable=linalg.pbh_witness(sys.A, sys.B, "controllable",
                                        sys.spectrum) is None,
        observable=linalg.pbh_witness(sys.A, sys.C, "observable",
                                      sys.spectrum) is None)


def has_zero_at_origin(sys):
    """True when the system pencil loses rank at s = 0.

    Tests ``rank [[A, B], [C, D]] < n + p`` for a square system.
    """
    p = sys.require_square("zero-at-origin test")
    pencil = np.block([[sys.A, sys.B], [sys.C, sys.D]])
    return linalg.rank(pencil) < sys.n + p


def interconnect_positive_feedback(plant, delta):
    """Positive feedback loop of two systems (plant input fed by delta output).

    The returned system keeps an exogenous input added at the plant input
    and the plant output, so the autonomous loop dynamics are the state
    matrix of the result.  With zero feedthroughs the state matrix is
    ``[[A_p, B_p C_d], [B_d C_p, A_d]]``.
    """
    if plant.n_outputs != delta.n_inputs or delta.n_outputs != plant.n_inputs:
        raise InputError(
            f"interconnection dimension mismatch: plant is "
            f"{plant.n_outputs}x{plant.n_inputs}, delta is "
            f"{delta.n_outputs}x{delta.n_inputs}")
    p = plant.n_inputs
    W = np.eye(p) - delta.D @ plant.D
    if linalg.rank(W) < p:
        raise IllPosedInterconnectionError(
            "algebraic loop: I - D_delta D_plant is singular")
    Phi = np.linalg.inv(W)
    Ap, Bp, Cp, Dp = plant.A, plant.B, plant.C, plant.D
    Ad, Bd, Cd, Dd = delta.A, delta.B, delta.C, delta.D
    # u_p = Phi (Dd Cp x_p + Cd x_d + r)
    A11 = Ap + Bp @ Phi @ Dd @ Cp
    A12 = Bp @ Phi @ Cd
    Cy1 = Cp + Dp @ Phi @ Dd @ Cp
    Cy2 = Dp @ Phi @ Cd
    A21 = Bd @ Cy1
    A22 = Ad + Bd @ Cy2
    A = np.block([[A11, A12], [A21, A22]])
    B = np.vstack([Bp @ Phi, Bd @ Dp @ Phi])
    C = np.hstack([Cy1, Cy2])
    D = Dp @ Phi
    name = None
    if plant.name or delta.name:
        name = f"[{plant.name or 'plant'} <+> {delta.name or 'delta'}]"
    return StateSpace(A=A, B=B, C=C, D=D, name=name)


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray
    outputs: np.ndarray


def _input_function(sys, input_signal):
    p = sys.n_inputs
    if input_signal is None:
        u0 = np.zeros(p)
        return lambda t: u0
    if callable(input_signal):
        return lambda t: np.asarray(input_signal(t), dtype=float).reshape(p)
    if isinstance(input_signal, tuple) and len(input_signal) == 2:
        ts, us = input_signal
        ts = np.asarray(ts, dtype=float)
        us = np.asarray(us, dtype=float)
        if us.ndim == 1:
            us = us.reshape(-1, 1)
        if len(ts) != len(us) or us.shape[1] != p:
            raise InputError("sampled input must align with times and width p")

        def zoh(t):
            k = int(np.searchsorted(ts, t, side="right")) - 1
            k = min(max(k, 0), len(ts) - 1)
            return us[k]

        return zoh
    u = np.asarray(input_signal, dtype=float).reshape(-1)
    if u.shape[0] != p:
        raise InputError(f"constant input must have {p} entries")
    return lambda t: u


def simulate(sys, x0, input_signal=None, t_end=10.0, dt=0.01):
    """Fixed-step RK4 integration of the system.

    ``input_signal`` may be None (zero input), a constant vector, a
    callable ``t -> u``, or a pair ``(times, samples)`` applied with
    zero-order hold.
    """
    if dt <= 0 or t_end <= 0:
        raise InputError("t_end and dt must be positive")
    x = np.asarray(x0, dtype=float).reshape(-1)
    if x.shape[0] != sys.n:
        raise InputError(f"x0 must have {sys.n} entries, got {x.shape[0]}")
    ufun = _input_function(sys, input_signal)
    steps = int(np.ceil(t_end / dt - 1e-12))
    A, B, C, D = sys.A, sys.B, sys.C, sys.D
    times = np.empty(steps + 1)
    states = np.empty((steps + 1, sys.n))
    outputs = np.empty((steps + 1, sys.n_outputs))
    t = 0.0
    for k in range(steps + 1):
        times[k] = t
        states[k] = x
        outputs[k] = C @ x + D @ ufun(t)
        if not np.all(np.isfinite(x)):
            raise SimulationDivergedError(
                f"state became non-finite at t={t:.6g}", t_bad=t)
        if k == steps:
            break
        h = min(dt, t_end - t)
        u1, u2, u3 = ufun(t), ufun(t + h / 2), ufun(t + h)
        # divergence is detected at the next step; silence the overflow
        with np.errstate(over="ignore", invalid="ignore"):
            k1 = A @ x + B @ u1
            k2 = A @ (x + h / 2 * k1) + B @ u2
            k3 = A @ (x + h / 2 * k2) + B @ u2
            k4 = A @ (x + h * k3) + B @ u3
            x = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t = min(t + h, t_end)
    return Trajectory(times=times, states=states, outputs=outputs)


@dataclass(frozen=True)
class UncertainSystem:
    """Plant with strictly-negative-imaginary uncertainty ``w = Delta y``.

    ``w`` enters at the plant input, ``x' = A x + B (u + w)``, as
    ``K_w = K_v - I`` of ``FeedbackLaw`` implies.

    ``gamma`` bounds the uncertainty DC gain, ``lambda_max(Delta(0)) <= gamma``.
    """

    plant: StateSpace
    gamma: float

    def __post_init__(self):
        self.plant.require_square("uncertain system")
        if not (self.gamma > 0):
            raise InputError("gamma must be positive")
