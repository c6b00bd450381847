"""State-space systems: construction, evaluation, interconnection and
zero-input simulation from the exact transition matrix ``e^{A dt}`` and
its doubled powers, whose samples are checked for finiteness once, after
the last step.

The JSON schema for a system is::

    {"A": [[...]], "B": [[...]], "C": [[...]], "D": [[...]], "name": "..."}

``D`` and ``name`` are optional; ``D`` defaults to zero, a present
``"D": null`` is refused, and ``name`` must be a string.  Each matrix is
checked once, by ``linalg.as_matrix`` in the constructor: 2-D (a scalar
is 1x1), numeric (no strings or booleans), finite, rectangular.
``load_json`` reads every JSON input file; one it cannot read or decode
is an ``InputError`` naming it.  ``read_input`` gives a file's bytes, so
that a caller which needs them too reads the file once.

A ``StateSpace`` holds read-only copies of its matrices and caches, each
on first use, what is a fact of the system alone: the spectrum of ``A``
(which records ``||A||_2`` too and, once asked, its left eigenvectors and
the eigenvector norms), ``||A||_2`` itself (read from a cached spectrum,
else from one SVD, so a caller that needs only the norm takes no
``eig``), the modal factors ``C V`` and ``V^{-1} B`` that
``eval_tf`` works from, and the PBH failure arrays of controllability and
observability, from which ``is_minimal`` reads its verdict and the
strong-class certificate test its hidden modes.  A plant on the
pipeline's path is asked for none of these when its normal form's PBH
screen proves it minimal (``structure.NormalForm.screened_minimal``), and
its relative degrees read ``C B`` and ``C A B`` with ``||A||_F``: ``A``
then takes no decomposition at all.  The functions keep no state of their
own.
"""

from __future__ import annotations

import io
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
from .linalg import TOL, as_matrix

#: complex entries one stacked ``sI - A`` array of ``eval_tf``'s solve may
#: hold: its points are solved in chunks of ``2**14 // n**2``, since
#: 400 points of a 64-state system would stack 26 MB of ``sI - A``
SWEEP_ENTRIES = 2 ** 14

#: entries ``simulate`` may store: ``(steps + 1) (1 + n + p)`` floats of
#: times, states and outputs, 2**22 of them (32 MiB)
SIMULATE_ENTRIES = 2 ** 22


@dataclass(frozen=True)
class StateSpace:
    """Continuous-time LTI system ``xdot = A x + B u``, ``y = C x + D u``."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray = None
    name: str | None = None

    def __post_init__(self):
        if not isinstance(self.name, (str, type(None))):
            raise InputError(f"name must be a string, got {self.name!r}")
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

    @cached_property
    def controllability_failures(self):
        """``linalg.pbh_failures`` of ``(A, B)``, over ``spectrum.values``;
        computed once per system."""
        return linalg.pbh_failures(self.A, self.B, "controllable",
                                   self.spectrum)

    @cached_property
    def observability_failures(self):
        """``linalg.pbh_failures`` of ``(A, C)`` for observability, computed
        once per system."""
        return linalg.pbh_failures(self.A, self.C, "observable",
                                   self.spectrum)

    @cached_property
    def a_norm(self):
        """Spectral norm of ``A``: the one a cached spectrum records, bit
        for bit, else that of one SVD, which computes no spectrum."""
        if "spectrum" in vars(self):
            return self.spectrum.norm
        return linalg.spectral_norm(self.A)

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
        if (self.D != 0.0).any():
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
        if "D" in data and data["D"] is None:
            raise InputError("D must be a matrix, got null")
        return cls(A=data["A"], B=data["B"], C=data["C"], D=data.get("D"),
                   name=data.get("name"))


def read_input(path, what="system"):
    """The bytes of the input file at ``path``, read once; a file that
    cannot be read is an ``InputError`` naming it, and ``what`` it holds."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {what} file {path}: {exc}") from exc


def load_json(path, what="system", data=None):
    """The JSON value in the file at ``path``, parsed from ``data``, its
    bytes, when the caller has read them (``read_input``).  The bytes are
    decoded as ``open`` decodes UTF-8 text; a file that cannot be read or
    decoded is an ``InputError`` naming it, and ``what`` it holds."""
    if data is None:
        data = read_input(path, what)
    try:
        return json.loads(
            io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read())
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}: "
                         f"{exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {what} file {path}: {exc}") from exc


def load_system(path, data=None):
    """Load a system from a JSON file, or from ``data``, its bytes, when
    the caller has read them."""
    return StateSpace.from_dict(load_json(path, data=data))


def near_pole(sys, s):
    """True for each point of the 1-D array ``s`` within
    ``TOL.pole_distance (1 + ||A||)`` of an eigenvalue of ``A``."""
    dist = np.abs(sys.poles()[None, :] - np.asarray(s)[:, None])
    return dist.min(axis=1, initial=np.inf) < \
        TOL.pole_distance * (1.0 + sys.a_norm)


def eval_tf(sys, s):
    """Evaluate ``R(s) = C (sI - A)^{-1} B + D``.

    ``s`` is one complex point, giving a ``p x q`` array, or a 1-D array of
    N points, giving the ``N x p x q`` stack of the responses; each slice
    equals the one-point call bit for bit.  The responses come from the
    modal form ``D + (C V) diag(1 / (s - lambda_k)) (V^{-1} B)`` in one
    stacked product, whose largest array is ``N x p x n``, or, when the
    eigenbasis is not trusted (``modal_factors`` is None), from stacked
    solves with ``sI - A``, ``SWEEP_ENTRIES // n**2`` points at a time.
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
        eye, B = np.eye(sys.n), sys.B.astype(complex)
        step = max(1, SWEEP_ENTRIES // sys.n ** 2)
        R = np.concatenate([
            sys.C @ np.linalg.solve(chunk[:, None, None] * eye - sys.A, B)
            for chunk in np.split(stack, range(step, len(stack), step))]) \
            + sys.D
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
    """PBH controllability/observability of the realization, from the
    system's cached failure arrays."""
    return Minimality(controllable=not sys.controllability_failures.any(),
                      observable=not sys.observability_failures.any())


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


def simulate(sys, x0, t_end, dt):
    """Zero-input response ``x(t) = e^{tA} x0``, sampled every ``dt``.

    Samples ``1 .. steps - 1`` are filled in blocks from the exact
    transition matrix ``P = e^{span dt A}``: ``x_{f+i} = P x_{f-span+i}``
    for ``i < min(span, steps - f)``, with ``P`` squared and ``span``
    doubled before each block while the square is finite, so the run takes
    about ``2 log2(steps)`` matrix products instead of ``steps``
    (repeated squaring; Higham, *Functions of Matrices*, SIAM 2008, 4.1).
    When ``dt`` does not divide ``t_end`` the last step is shorter, with
    its own ``e^{hA}``, so the last sample is at ``t_end`` exactly.
    ``outputs`` are ``C x``.  Raises ``InputError`` unless ``t_end`` and
    ``dt`` are finite and positive and the samples fit in
    ``SIMULATE_ENTRIES`` stored entries.

    The stored samples are checked for finiteness once.  If one is not
    finite, the samples are formed again one step at a time,
    ``x_{k+1} = e^{dt A} x_k``: a regrouped product can overflow where the
    steps do not (a large ``P`` applied to a state on a saddle's stable
    subspace), and can overflow at another sample than the steps.  A
    non-finite sample of that run raises ``SimulationDivergedError`` with
    the time of the first; otherwise its samples are returned.
    """
    if not (0.0 < t_end < np.inf and 0.0 < dt < np.inf):
        raise InputError("t_end and dt must be finite and positive")
    x = np.asarray(x0, dtype=float).reshape(-1)
    if x.shape[0] != sys.n:
        raise InputError(f"x0 must have {sys.n} entries, got {x.shape[0]}")
    # a float, infinite when t_end / dt overflows
    steps = max(1.0, np.ceil(float(t_end) / float(dt) - TOL.step_ratio))
    width = 1 + sys.n + sys.n_outputs
    if not (steps + 1) * width <= SIMULATE_ENTRIES:
        raise InputError(
            f"t_end / dt asks for {steps + 1:.6g} samples of {width} "
            f"entries; at most {SIMULATE_ENTRIES} entries are stored")
    steps = int(steps)
    times = np.arange(steps + 1) * dt
    times[-1] = t_end
    states = np.empty((steps + 1, sys.n))
    # an overflow shows as a non-finite state, reported as a divergence
    with np.errstate(over="ignore", invalid="ignore"):
        phi = phi_last = linalg.expm(sys.A * dt)
        if steps - t_end / dt > TOL.step_ratio:
            phi_last = linalg.expm(sys.A * (t_end - times[-2]))
        states[0] = x
        power, span, first, squaring = phi, 1, 1, True
        while first < steps:
            if squaring and 2 * span <= first:
                square = power @ power
                squaring = bool(np.isfinite(square).all())
                if squaring:
                    power, span = square, 2 * span
            last = min(first + span, steps)
            np.matmul(states[first - span:last - span], power.T,
                      out=states[first:last])
            first = last
        states[steps] = phi_last @ states[steps - 1]
        if not np.isfinite(states).all():
            step = phi.dot  # bound once: the same gemv as ``phi @ x``
            for k in range(1, steps):
                x = states[k] = step(x)
            states[steps] = phi_last @ x
            bad = ~np.isfinite(states).all(axis=1)
            if bad.any():
                t_bad = float(times[bad.argmax()])
                raise SimulationDivergedError(
                    f"state became non-finite at t={t_bad:.6g}", t_bad=t_bad)
        outputs = states @ sys.C.T
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
        if not 0 < self.gamma < np.inf:
            raise InputError("gamma must be finite and positive")
