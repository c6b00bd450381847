"""Workload inputs and operations.

Inputs come from this module's own generator, which uses numpy alone, so a
change to ``nisynth`` cannot change them.  A workload is a fixed schedule
of operations ("ops") that is repeated in rounds.  The shape of every op in
a round is fixed; its numbers are drawn from ``(seed, round, slot)``, so no
two ops of a run share an input and the same seed gives the same inputs.

Ops call ``nisynth`` through module attributes (``synth.robust_stabilize``,
``cli.main``), so the tracer's wrappers see every call.
"""

import contextlib
import io
import json
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks

# ---------------------------------------------------------------- generator


def _orthogonal(rng, n):
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def _well_conditioned(rng, n):
    """Random matrix with singular values in [0.5, 2]."""
    return _orthogonal(rng, n) @ np.diag(rng.uniform(0.5, 2.0, n)) @ \
        _orthogonal(rng, n)


def _skew(rng, m_a):
    """Skew-symmetric block with eigenvalues +-j w, w spread over [0.5, 2].

    One frequency per sub-interval keeps the pairs at least 0.4 * 1.5 / K
    apart, far outside any eigenvalue-clustering radius.
    """
    K = m_a // 2
    w = 0.5 + 1.5 * (np.arange(K) + rng.uniform(0.2, 0.8, K)) / K
    S = np.zeros((m_a, m_a))
    for k in range(K):
        S[2 * k, 2 * k + 1], S[2 * k + 1, 2 * k] = w[k], -w[k]
    Q = _orthogonal(rng, m_a)
    return Q @ S @ Q.T


def _shifted(rng, m, right_edge):
    """Gaussian matrix shifted so its rightmost eigenvalue has real part
    ``right_edge``."""
    G = rng.standard_normal((m, m))
    if m == 0:
        return G
    return G - (np.max(np.linalg.eigvals(G).real) - right_edge) * np.eye(m)


def _hide(rng, A, B, C, p1):
    """Random well-conditioned state, input and output transforms.

    The output transform is block upper triangular: each of the first p1
    outputs mixes all planted outputs, the others mix only the outputs of
    higher relative degree.  A full mixing would make ``C B`` singular by
    structure but not in floating point, and the program decides its rank
    with a tolerance below the rounding error of ``C @ B``; see the FOUND
    line on ``relative_degree_vector`` in CHANGES.md.
    """
    n, p = B.shape
    T_x, W = _well_conditioned(rng, n), _well_conditioned(rng, p)
    mix = rng.standard_normal((p, p))
    mix[:p1, :p1] = _well_conditioned(rng, p1)
    mix[p1:, :p1] = 0.0
    mix[p1:, p1:] = _well_conditioned(rng, p - p1)
    return (np.linalg.solve(T_x, A) @ T_x, np.linalg.solve(T_x, B) @ W,
            mix @ C @ T_x)


def planted_plant(rng, p1, p2, m_a, m_b, unstable=False):
    """Minimal square plant with planted normal form.

    After an output transformation it has p1 outputs of relative degree 1,
    p2 of degree 2, and zero dynamics of a skew block (m_a states, on the
    imaginary axis) and a Hurwitz block (m_b states).  With
    ``unstable=True`` the second block has an eigenvalue at real part +0.5,
    so the plant is not weakly minimum phase.
    """
    m = m_a + m_b
    n, p = m + p1 + 2 * p2, p1 + p2
    A00 = np.zeros((m, m))
    A00[:m_a, :m_a] = _skew(rng, m_a)
    A00[m_a:, m_a:] = _shifted(rng, m_b,
                               0.5 if unstable else -rng.uniform(0.3, 1.2))
    if m:
        Tz = _well_conditioned(rng, m)
        A00 = np.linalg.solve(Tz, A00) @ Tz
    A = rng.standard_normal((n, n))
    A[:m, :m] = A00
    A[m + p1:m + p1 + p2, :] = 0.0
    A[m + p1:m + p1 + p2, m + p1 + p2:] = np.eye(p2)
    B = np.zeros((n, p))
    B[m:m + p1, :p1] = np.eye(p1)
    B[m + p1 + p2:, p1:] = np.eye(p2)
    C = np.zeros((p, n))
    C[:p1, m:m + p1] = np.eye(p1)
    C[p1:, m + p1:m + p1 + p2] = np.eye(p2)
    return _hide(rng, A, B, C, p1)


def degree3_plant(rng, p1, m):
    """Plant with p1 outputs of degree 1 and one output of degree 3.

    No output transformation gives relative degrees <= 2: the combination
    that removes ``C B`` also removes ``C A B``.  The zero dynamics are
    Hurwitz, so the plant is minimal and has no zero at the origin.
    """
    n, p = m + p1 + 3, p1 + 1
    A = rng.standard_normal((n, n))
    A[:m, :m] = _shifted(rng, m, -rng.uniform(0.3, 1.2))
    c = m + p1                            # chain y, y', y''
    A[c:c + 2, :] = 0.0
    A[c, c + 1] = A[c + 1, c + 2] = 1.0
    B = np.zeros((n, p))
    B[m:m + p1, :p1] = np.eye(p1)
    B[c + 2, p1] = 1.0
    C = np.zeros((p, n))
    C[:p1, m:m + p1] = np.eye(p1)
    C[p1, c] = 1.0
    return _hide(rng, A, B, C, p1)


#: damping ratio of the narrow resonance
RESONANCE_ZETA = 1e-4


def resonance_plant(round_index):
    """R(s) = 1/(s+1) - 0.01/(s^2 + 2 zeta w0 s + w0^2), not NI near w0.

    w0 is the geometric midpoint of two adjacent points of the program's
    default 400-point grid on [1e-4, 1e4], picked by the round index alone
    (never by the seed): the op fails the same way in every run.
    """
    grid = np.logspace(-4.0, 4.0, 400)
    k = 205 + (37 * round_index) % 70      # w0 between 1.32 and 31.9
    w0 = float(np.sqrt(grid[k] * grid[k + 1]))
    A = np.array([[-1.0, 0.0, 0.0],
                  [0.0, 0.0, 1.0],
                  [0.0, -w0 ** 2, -2.0 * RESONANCE_ZETA * w0]])
    B = np.array([[1.0], [0.0], [1.0]])
    C = np.array([[1.0, -0.01, 0.0]])
    return A, B, C, w0


# ---------------------------------------------------------------- ops


@dataclass
class Op:
    """One operation: its kind, generated inputs, and (after it ran) the
    program's raw result."""

    kind: str
    data: dict
    known_fault: bool = False
    result: object = None
    extra: dict = field(default_factory=dict)


def _rng(seed, round_index, slot):
    return np.random.default_rng([seed, round_index, slot])


class Workload:
    """A fixed schedule of op shapes, drawn afresh for every round."""

    name = ""
    #: rounds of the traced run (about 36 s on the reference machine)
    trace_rounds: int

    def __init__(self, nisynth, root, workdir):
        self.ni = nisynth
        self.root = Path(root)
        self.workdir = Path(workdir)

    def prepare(self):
        """Work the benchmark does once before timing (not an op)."""

    def round(self, seed, round_index):
        return [self.make(kind, spec, _rng(seed, round_index, slot),
                          round_index)
                for slot, (kind, spec) in enumerate(self.schedule)]

    def warmup(self, seed):
        # a draw no timed round uses (round indices start at 0)
        kind, spec = self.schedule[0]
        return self.make(kind, spec, _rng(seed, 10 ** 6, 0), 0)

    def make(self, kind, spec, rng, round_index):
        raise NotImplementedError

    def run(self, op):
        """Execute ``op`` against the program; the timed part."""
        try:
            op.result = getattr(self, "op_" + op.kind)(op.data)
        except Exception as exc:       # a verdict or a fault; judged below
            op.result = exc

    def judge(self, op):
        """Failure messages for the op's output (empty when it passed)."""
        if isinstance(op.result, Exception) and op.kind != "reject":
            return [f"raised {type(op.result).__name__}: {op.result}"]
        try:
            return getattr(self, "judge_" + op.kind)(op.data, op.result,
                                                     op.extra)
        except Exception as exc:     # an output of an unexpected form
            return [f"output could not be checked: "
                    f"{traceback.format_exception_only(exc)[-1].strip()}"]

    # ---- shared op bodies --------------------------------------------

    def _system(self, d):
        return self.ni.statespace.StateSpace(A=d["A"], B=d["B"], C=d["C"])

    def op_robust(self, d):
        ss, synth = self.ni.statespace, self.ni.synth
        usys = ss.UncertainSystem(plant=self._system(d), gamma=d["gamma"])
        res = synth.robust_stabilize(
            usys, synth.SynthesisConfig(rng_seed=d["cfg_seed"]))
        return res, self.ni.certify.classify_freq(res.nominal_closed, "ni")

    def op_reject(self, d):
        ss = self.ni.statespace
        usys = ss.UncertainSystem(plant=self._system(d), gamma=d["gamma"])
        return self.ni.synth.robust_stabilize(usys)

    # ---- judges: program output against numpy-only checks --------------

    @staticmethod
    def _shape(gains):
        nf, split = gains.normal_form, gains.split
        return nf.p1, nf.p2, nf.m, split.m_a, split.m_b

    @staticmethod
    def _planted(shape):
        p1, p2, m_a, m_b = shape
        return p1, p2, m_a + m_b, m_a, m_b

    def judge_robust(self, d, result, extra):
        res, verdict = result
        A, B, C = d["A"], d["B"], d["C"]
        K_x, K_v = res.law.K_x, res.law.K_v
        A_cl, B_cl = checks.closed_loop(A, B, K_x, K_v)
        extra["retries"] = res.gains.free_parameters["retries_used"]
        return (checks.check_certificate(A, B, C, K_x, K_v, res.Y_original,
                                         "ni")
                + checks.check_frequency(A_cl, B_cl, C, verdict.holds)
                + checks.check_dc(A_cl, B_cl, C, d["gamma"])
                + checks.check_robust_loop(A_cl, B_cl, C, d["gamma"],
                                           d["delta_a"], d["delta_frac"])
                + checks.check_shape(self._planted(d["shape"]),
                                     self._shape(res.gains)))

    def judge_reject(self, d, result, extra):
        raised = [c.__name__ for c in type(result).__mro__] \
            if isinstance(result, Exception) else None
        errors = checks.check_rejection(d["expect"], raised)
        if d["expect"] == "NoRdLeqTwoError" and \
                checks.degree3_witness(d["A"], d["B"], d["C"]) > 1e-10:
            errors.append("the generated plant has no output combination "
                          "of relative degree 3")
        return errors


def _robust_data(rng, plant, shape):
    A, B, C = plant
    return {"A": A, "B": B, "C": C, "shape": shape,
            "gamma": float(rng.uniform(0.5, 2.0)),
            "cfg_seed": int(rng.integers(0, 2 ** 31)),
            # sampled SNI uncertainty k/(s+a) I with k/a <= gamma
            "delta_a": float(rng.uniform(0.2, 5.0)),
            "delta_frac": float(rng.uniform(0.5, 1.0))}


class SuiteSmall(Workload):
    """Monte-Carlo batch of small planted plants (n <= 8, p <= 3)."""

    name = "suite-small"
    trace_rounds = 22
    # (p1, p2, m_a, m_b): robust NI, then the other op kinds.  The zero
    # dynamics here are Hurwitz (m_a = 0); imaginary-axis zero dynamics
    # run in suite-large, where the program judges them reliably (see the
    # FOUND line on ``linalg.eig`` in CHANGES.md).
    schedule = (
        [("robust", s) for s in (
            (1, 0, 0, 1), (0, 1, 0, 1), (1, 1, 0, 0), (2, 0, 0, 2),
            (1, 1, 0, 2), (0, 2, 0, 1), (2, 1, 0, 1), (2, 1, 0, 2),
            (3, 0, 0, 3), (1, 2, 0, 1), (0, 2, 0, 2), (1, 1, 0, 4),
            (1, 2, 0, 2), (3, 0, 0, 5), (2, 1, 0, 4), (0, 3, 0, 2),
            (1, 2, 0, 3))]
        + [("osni", (2, 1, 0, 3)), ("osni", (1, 1, 0, 3)),
           ("ssni", (2, 0, 0, 4)), ("ssni", (3, 0, 0, 3)),
           ("degree3", (1, 3)), ("unstable_zeros", (1, 1, 0, 3)),
           ("resonance", None)])

    def make(self, kind, spec, rng, round_index):
        if kind == "resonance":
            A, B, C, w0 = resonance_plant(round_index)
            return Op(kind, {"A": A, "B": B, "C": C, "w0": w0},
                      known_fault=True)
        if kind == "degree3":
            A, B, C = degree3_plant(rng, *spec)
            return Op("reject", {"A": A, "B": B, "C": C,
                                 "gamma": float(rng.uniform(0.5, 2.0)),
                                 "expect": "NoRdLeqTwoError"})
        if kind == "unstable_zeros":
            A, B, C = planted_plant(rng, *spec, unstable=True)
            return Op("reject", {"A": A, "B": B, "C": C,
                                 "gamma": float(rng.uniform(0.5, 2.0)),
                                 "expect": "NotWeaklyMinimumPhaseError"})
        return Op(kind, _robust_data(rng, planted_plant(rng, *spec), spec))

    def op_osni(self, d):
        st, synth = self.ni.structure, self.ni.synth
        plant = self._system(d)
        T_y, _ = st.find_output_transformation(plant)
        nf = st.to_normal_form(plant, T_y)
        gains = synth.synthesize_osni(
            nf, synth.SynthesisConfig(rng_seed=d["cfg_seed"]))
        law = synth.compose_full_gain(gains)
        closed, Y, eps = synth.original_coordinates_certificate(gains)
        verdict = self.ni.certify.classify_freq(closed, "osni", eps=eps)
        return gains, law, Y, eps, verdict

    def op_ssni(self, d):
        st, synth = self.ni.structure, self.ni.synth
        plant = self._system(d)
        st.relative_degree_vector(plant)
        nf = st.to_normal_form(plant, np.eye(plant.n_outputs))
        gains = synth.synthesize_ssni(
            nf, synth.SynthesisConfig(rng_seed=d["cfg_seed"]))
        law = synth.compose_full_gain(gains)
        closed, Y, _ = synth.original_coordinates_certificate(gains)
        verdict = self.ni.certify.classify_freq(closed, "ssni")
        return gains, law, Y, None, verdict

    def op_resonance(self, d):
        return self.ni.certify.classify_freq(self._system(d), "ni")

    def _judge_class(self, d, result, extra, ni_class):
        gains, law, Y, eps, verdict = result
        A, B, C = d["A"], d["B"], d["C"]
        A_cl, B_cl = checks.closed_loop(A, B, law.K_x, law.K_v)
        extra["retries"] = gains.free_parameters.get("retries_used", 0)
        return (checks.check_certificate(A, B, C, law.K_x, law.K_v, Y,
                                         ni_class, eps)
                + checks.check_frequency(A_cl, B_cl, C, verdict.holds,
                                         ni_class, eps)
                + checks.check_shape(self._planted(d["shape"]),
                                     self._shape(gains)))

    def judge_osni(self, d, result, extra):
        return self._judge_class(d, result, extra, "osni")

    def judge_ssni(self, d, result, extra):
        return self._judge_class(d, result, extra, "ssni")

    def judge_resonance(self, d, result, extra):
        # known fault: the program's grid misses the resonance
        return checks.check_frequency(d["A"], d["B"], d["C"], result.holds,
                                      expect=False)


def _large_shape(n, p1, p2, m_b):
    """(p1, p2, m_a, m_b) for state dimension n with an even skew block."""
    m_a = n - p1 - 2 * p2 - m_b
    if m_a % 2:
        m_a, m_b = m_a - 1, m_b + 1
    return p1, p2, m_a, m_b


class SuiteLarge(Workload):
    """Planted plants of 26 and 64 states through the robust pipeline.

    Twenty-one plants of one 26-state shape, then one of 64 states.  An op
    on the reference machine (2 vCPUs) varies by about 12 % from one run
    of it to the next (the processor's speed changes within a fraction of
    a second), so a quantile is steady only inside a large group of ops of
    equal cost:
    plants of different sizes or output shapes differ in cost by more
    than that, and a mix of them puts the 90th percentile on the few
    slowest.  Here the median and the 90th percentile both fall inside the
    group of twenty-one; the 64-state plant, above the 90th percentile,
    keeps the large end in every round.  The Hurwitz blocks (m_b = 10 and
    25) keep the n_b^2 x n_b^2 Lyapunov solve present without swamping the
    rank and eigen kernels; the rest of the zero dynamics is a skew block.
    """

    name = "suite-large"
    trace_rounds = 6
    schedule = [("robust", (2, 1, 12, 10))] * 21 + \
        [("robust", _large_shape(64, 1, 2, 24))]

    def make(self, kind, spec, rng, round_index):
        return Op(kind, _robust_data(rng, planted_plant(rng, *spec), spec))


class CliDemo(Workload):
    """The paper's worked example through ``nisynth.cli.main``."""

    name = "cli-demo"
    trace_rounds = 130
    schedule = [(c, None) for c in (
        "analyze", "synthesize-ni", "synthesize-osni", "synthesize-ssni",
        "stabilize", "verify", "simulate")]

    PLANT = "sample_systems/demo_plant.json"
    PARAMS = "sample_systems/demo_params.json"
    DELTA = "sample_systems/demo_uncertainty.json"

    def prepare(self):
        """Write the demo's robust closed loop and certificate for the
        verify and simulate commands, from one untimed stabilize run."""
        def arrays(path):
            sys = json.loads((self.root / path).read_text())
            return tuple(np.asarray(sys[k], dtype=float) for k in "ABC")

        self.plant, self.delta = arrays(self.PLANT), arrays(self.DELTA)
        op = Op("cli", {"command": "stabilize",
                        "argv": ["stabilize", self.PLANT, "--gamma", "1",
                                 "--params", self.PARAMS]})
        self.run(op)
        errors = self.judge(op)
        if errors:
            raise RuntimeError(f"demo stabilize failed: {errors}")
        report = json.loads(op.result[1])
        self.closed = str(self.workdir / "demo_closed.json")
        self.cert = str(self.workdir / "demo_certificate.json")
        Path(self.closed).write_text(json.dumps(report["closed_loop"]))
        Path(self.cert).write_text(json.dumps(report["certificate"]))
        self.closed_abc = arrays(self.closed)

    def make(self, kind, spec, rng, round_index):
        seed = str(int(rng.integers(0, 2 ** 31)))
        x0 = rng.uniform(-1.0, 1.0, 6)
        argv = {
            "analyze": ["analyze", self.PLANT],
            "synthesize-ni": ["synthesize", self.PLANT, "--target", "ni",
                              "--seed", seed],
            "synthesize-osni": ["synthesize", self.PLANT, "--target", "osni",
                                "--seed", seed],
            "synthesize-ssni": ["synthesize", self.PLANT, "--target", "ssni"],
            "stabilize": ["stabilize", self.PLANT, "--gamma", "1",
                          "--params", self.PARAMS],
            "verify": ["verify", self.closed, "--class", "ni",
                       "--certificate", self.cert],
            "simulate": ["simulate", self.closed, "--delta", self.DELTA,
                         "--x0=" + ",".join(repr(float(v)) for v in x0),
                         "--t-end", "20", "--dt", "0.01"],
        }[kind]
        return Op("cli", {"command": kind, "argv": argv, "x0": x0})

    def _main(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.ni.cli.main(argv)
        return code, out.getvalue()

    def op_cli(self, d):
        return self._main(d["argv"])

    def judge_cli(self, d, result, extra):
        code, text = result
        extra["report_kb"] = len(text.encode()) / 1024.0
        command = d["command"]
        try:
            report = json.loads(text)
        except json.JSONDecodeError:
            return [f"{command} exited {code} without a JSON report"]
        want = 1 if command == "synthesize-ssni" else 0
        if code != want:
            return [f"{command} exited {code}, expected {want}: "
                    f"{report.get('error')}"]
        A, B, C = self.plant
        if command == "analyze":
            nf = report["normal_form"]
            errors = checks.check_normal_form(
                A, B, C, nf["transforms"], nf["blocks"], nf["p1"], nf["p2"],
                nf["m"])
            if (nf["p1"], nf["p2"], nf["m"]) != (1, 1, 1):
                errors.append(f"normal form (p1, p2, m) = "
                              f"{(nf['p1'], nf['p2'], nf['m'])}, not (1, 1, 1)")
            return errors
        if command == "synthesize-ssni":
            # the demo is not relative degree {1, 1}: C B is singular
            s = np.linalg.svd(C @ B, compute_uv=False)
            if s[-1] > 1e-12 * s[0] or report["error"]["kind"] != "verdict":
                return ["ssni refusal is not backed by a singular C B"]
            return []
        if command in ("synthesize-ni", "synthesize-osni", "stabilize"):
            gains, cert = report["gains"], report["certificate"]
            K_x, K_v = (np.asarray(gains[k]) for k in ("K_x", "K_v"))
            Y, eps = np.asarray(cert["Y"]), cert.get("epsilon")
            ni_class = "osni" if command == "synthesize-osni" else "ni"
            A_cl, B_cl = checks.closed_loop(A, B, K_x, K_v)
            extra["retries"] = gains["free_parameters"].get("retries_used", 0)
            claimed = report["verdicts"].get(
                "frequency_ni", report["verdicts"]["certificate"])["holds"]
            errors = (checks.check_certificate(A, B, C, K_x, K_v, Y, ni_class,
                                               eps)
                      + checks.check_frequency(A_cl, B_cl, C, claimed,
                                               ni_class, eps))
            if command == "stabilize":
                A_d, B_d, C_d = self.delta
                errors += checks.check_paper_law(
                    K_x, gains["K_w"], checks.dc_gain(A_cl, B_cl, C))
                errors += checks.check_dc(A_cl, B_cl, C, 1.0)
                alpha = np.max(np.linalg.eigvals(checks.loop_matrix(
                    A_cl, B_cl, C, A_d, B_d, C_d)).real)
                if not alpha < 0:
                    errors.append(f"demo robust loop is not Hurwitz "
                                  f"({alpha:.3e})")
            return errors
        Ac, Bc, Cc = self.closed_abc
        if command == "verify":
            p = Cc.shape[0]
            verdicts = report["verdicts"]
            return (checks.check_frequency(Ac, Bc, Cc,
                                           verdicts["frequency"]["holds"])
                    + checks.check_certificate(
                        Ac, Bc, Cc, np.zeros((p, Ac.shape[0])), np.eye(p),
                        np.asarray(report["certificate"]["Y"]), "ni")
                    + ([] if verdicts["certificate"]["holds"] else
                       ["program rejects a valid certificate"]))
        # simulate
        sim = report["simulation"]
        x0 = d["x0"]
        A_loop = checks.loop_matrix(Ac, Bc, Cc, *self.delta)
        return checks.check_simulation(A_loop, x0, 20.0,
                                       np.asarray(sim["final_state"]))


WORKLOADS = {w.name: w for w in (SuiteSmall, SuiteLarge, CliDemo)}
