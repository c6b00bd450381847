import json

import numpy as np
import pytest

from nisynth import (
    StateSpace,
    eval_tf,
    has_zero_at_origin,
    interconnect_positive_feedback,
    is_minimal,
    linalg,
    simulate,
)
from nisynth.errors import (
    InputError,
    PoleProximityError,
    SimulationDivergedError,
)
from nisynth.certify import FrequencyGrid
from nisynth.statespace import load_system, near_pole
from nisynth.structure import to_normal_form
from nisynth.synth import SynthesisConfig, synthesize_ni

from gen import (
    UNTRUSTED_EIGENBASES,
    planted_system,
    random_hurwitz,
    random_shape,
    random_skew_nonsingular,
)


def demo_nominal_closed():
    return StateSpace(
        A=np.array([[-1.0, 0, 1, 1], [1, -4, -1, -1], [1, -4, 0, -2],
                    [-3, -8, 12.5, -2.5]]),
        B=np.array([[0.0, 0], [1, 1], [1, 1], [1, 0]]),
        C=np.array([[0.0, 1, 0, 0], [0, 0, 1, 0]]))


class TestEvalTf:
    def test_demo_dc_gain(self):
        R0 = eval_tf(demo_nominal_closed(), 0.0)
        assert np.allclose(R0, [[0.25, 0.25], [0.25, 0.5]], atol=1e-12)

    def test_scalar_dc(self):
        sys = StateSpace(A=[[-1.0]], B=[[1.0]], C=[[1.0]])
        assert np.allclose(eval_tf(sys, 0.0), [[1.0]])

    def test_scalar_at_j(self):
        # hand evaluation: 1/(1+j) = 0.5 - 0.5j
        sys = StateSpace(A=[[-1.0]], B=[[1.0]], C=[[1.0]])
        assert np.allclose(eval_tf(sys, 1j), [[0.5 - 0.5j]])

    def test_pole_proximity(self):
        sys = StateSpace(A=[[-1.0]], B=[[1.0]], C=[[1.0]])
        with pytest.raises(PoleProximityError) as exc:
            eval_tf(sys, -1.0 + 1e-12)
        assert exc.value.pole is not None

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(1, 6))
            sys = StateSpace(A=rng.standard_normal((n, n)),
                             B=rng.standard_normal((n, 2)),
                             C=rng.standard_normal((2, n)))
            s = complex(rng.standard_normal(), rng.standard_normal())
            assert np.allclose(eval_tf(sys, np.conj(s)),
                               np.conj(eval_tf(sys, s)), atol=1e-9)

    def test_array_equals_scalar_calls_bit_for_bit(self):
        rng = np.random.default_rng(8)
        for n, p in ((1, 1), (3, 2), (6, 3), (26, 3), (64, 3)):
            sys = StateSpace(A=random_hurwitz(rng, n),
                             B=rng.standard_normal((n, p)),
                             C=rng.standard_normal((p, n)),
                             D=rng.standard_normal((p, p)))
            points = np.concatenate([
                1j * np.logspace(-4, 4, 37),
                rng.standard_normal(5) + 1j * rng.standard_normal(5), [0.0]])
            stack = eval_tf(sys, points)
            assert stack.shape == (len(points), p, p)
            for s, R in zip(points, stack):
                assert R.tobytes() == eval_tf(sys, s).tobytes()

    def test_array_pole_proximity(self):
        sys = StateSpace(A=np.diag([-1.0, -3.0]), B=[[1.0], [1.0]],
                         C=[[1.0, 1.0]])
        points = np.array([1j, -3.0 + 1e-12, 2j, -1.0])
        with pytest.raises(PoleProximityError) as exc:
            eval_tf(sys, points)
        # the first point too close to a pole is named
        assert exc.value.pole == -3.0
        assert f"evaluation point {complex(points[1])} " in str(exc.value)
        assert eval_tf(sys, points[[0, 2]]).shape == (2, 1, 1)


def stacked_solve(sys, s):
    """``R(s)`` from one stacked solve with ``sI - A``, as ``eval_tf``
    evaluated every point before the modal form: the independent reference
    for the modal form and the exact reference for its fallback."""
    shifted = s[:, None, None] * np.eye(sys.n) - sys.A
    return sys.C @ np.linalg.solve(shifted, sys.B.astype(complex)) + sys.D


def modal_error_bound(sys, s):
    """Per-point bound on ``|R_modal(s) - R_solve(s)|`` (entrywise max).

    The modal form sums n terms ``t_k(s) = (C V)_k (V^{-1} B)_k / (s -
    lambda_k)``.  To first order its error has two parts:
    - forming ``V^{-1}`` costs relative accuracy ``kappa_2(V) eps``, and
      each product and the sum ``n eps``: together ``n eps kappa_2(V)
      sum_k |t_k|``;
    - each computed eigenvalue is off by up to about ``n eps ||A|| c_k``,
      with ``c_k = ||w_k|| ||v_k||`` its condition number, which moves
      ``t_k`` by ``|t_k| |d lambda_k| / |s - lambda_k|``: this part
      dominates next to a lightly damped pole.
    The stacked solve errs by ``n eps kappa(sI - A) ||R||``, and
    ``||(sI - A)^{-1}|| <= kappa_2(V) / min_k |s - lambda_k|`` puts that
    under the same two scales; the 1 covers ``D``.  With a unit constant
    the observed worst over the demo, a random system with ``D`` and 13
    planted loops (one of 64 states) is 0.24; the constant 10 leaves
    forty times that.
    """
    CV, WB = sys.modal_factors
    V, W = sys.spectrum.vectors, sys.spectrum.left
    terms = np.linalg.norm(CV, axis=0) * np.linalg.norm(WB, axis=1)
    dist = np.abs(s[:, None] - sys.poles())
    cond = np.linalg.norm(W, axis=1) * np.linalg.norm(V, axis=0)
    kappa = np.linalg.cond(V)
    return 10 * sys.n * linalg.EPS * (
        kappa * (1.0 + (terms / dist).sum(axis=1))
        + sys.a_norm * (cond * terms / dist ** 2).sum(axis=1))


def gen_loops():
    """NI closed loops of ``tests/gen.py`` planted plants: twelve small
    ones and one of 64 states."""
    rng = np.random.default_rng(47)
    shapes = [random_shape(rng, max_p=3, max_n=10) for _ in range(12)]
    shapes.append((1, 2, 34, 25))
    loops = []
    for seed, shape in enumerate(shapes):
        plant, _ = planted_system(rng, *shape)
        gains = synthesize_ni(to_normal_form(plant),
                              SynthesisConfig(rng_seed=seed))
        loops.append(gains.closed_loop)
    assert loops[-1].n == 64
    return loops


class TestModalEvalTf:
    """``eval_tf`` evaluates the modal form when the eigenbasis is trusted
    and the stacked solve, bit for bit as before, when it is not."""

    def test_agrees_with_the_stacked_solve(self):
        rng = np.random.default_rng(48)
        with_feedthrough = StateSpace(
            A=random_hurwitz(rng, 6), B=rng.standard_normal((6, 2)),
            C=rng.standard_normal((2, 6)), D=rng.standard_normal((2, 2)))
        for sys in [demo_nominal_closed(), with_feedthrough] + gen_loops():
            assert sys.modal_factors is not None
            omegas = FrequencyGrid.default(sys).omegas
            s = np.concatenate([1j * omegas, [0.0, 0.5 - 2j]])
            s = s[~near_pole(sys, s)]
            diff = np.abs(eval_tf(sys, s) - stacked_solve(sys, s))
            assert np.all(diff.max(axis=(1, 2)) <= modal_error_bound(sys, s))

    @pytest.mark.parametrize("name", sorted(UNTRUSTED_EIGENBASES))
    def test_untrusted_eigenbasis_takes_the_stacked_solve(self, name):
        A = UNTRUSTED_EIGENBASES[name]
        n = A.shape[0]
        rng = np.random.default_rng(n)
        sys = StateSpace(A=A, B=rng.standard_normal((n, 2)),
                         C=rng.standard_normal((2, n)),
                         D=rng.standard_normal((2, 2)))
        assert sys.modal_factors is None
        s = np.concatenate([1j * np.logspace(-3, 3, 25), [0.0, 0.5 - 2j]])
        assert eval_tf(sys, s).tobytes() == stacked_solve(sys, s).tobytes()
        for point in s[[0, 12, -1]]:
            assert eval_tf(sys, point).tobytes() == \
                stacked_solve(sys, np.array([point]))[0].tobytes()


class TestMinimality:
    def test_demo_plant_minimal(self, demo_plant):
        m = is_minimal(demo_plant)
        assert m.controllable and m.observable

    def test_uncontrollable(self):
        sys = StateSpace(A=np.diag([-1.0, -2.0]), B=[[1.0], [0.0]],
                         C=[[1.0, 1.0]])
        assert not is_minimal(sys).controllable

    def test_scalar_minimal(self):
        sys = StateSpace(A=[[-1.0]], B=[[1.0]], C=[[1.0]])
        assert is_minimal(sys).minimal


class TestZeroAtOrigin:
    def test_demo_plant(self, demo_plant):
        assert not has_zero_at_origin(demo_plant)

    def test_integrator(self):
        sys = StateSpace(A=[[0.0]], B=[[1.0]], C=[[1.0]])
        assert not has_zero_at_origin(sys)

    def test_cancelling_outputs(self):
        # Rosenbrock pencil at s=0 drops rank (oracle: the 3x3 determinant
        # of [[A, B], [C, 0]] vanishes)
        sys = StateSpace(A=np.diag([-1.0, -1.0]), B=[[1.0], [1.0]],
                         C=[[1.0, -1.0]])
        pencil = np.block([[sys.A, sys.B], [sys.C, np.zeros((1, 1))]])
        assert abs(np.linalg.det(pencil)) < 1e-12
        assert has_zero_at_origin(sys)


class TestInterconnect:
    def test_demo_uncertain_loop(self, demo_uncertainty):
        loop = interconnect_positive_feedback(demo_nominal_closed(),
                                              demo_uncertainty)
        assert loop.n == 6
        assert np.max(np.linalg.eigvals(loop.A).real) < 0

    def test_zero_delta_gives_union(self):
        plant = demo_nominal_closed()
        zero = StateSpace(A=[[-3.0]], B=np.zeros((1, 2)), C=np.zeros((2, 1)))
        loop = interconnect_positive_feedback(plant, zero)
        got = np.sort_complex(np.linalg.eigvals(loop.A))
        want = np.sort_complex(np.concatenate(
            [np.linalg.eigvals(plant.A), [-3.0]]))
        assert np.allclose(got, want, atol=1e-9)

    def test_dimension_mismatch(self, demo_plant):
        bad = StateSpace(A=[[-1.0]], B=[[1.0]], C=[[1.0]])
        with pytest.raises(InputError):
            interconnect_positive_feedback(demo_plant, bad)

    def test_static_gain_matches_characteristic_roots(self):
        # oracle: closed poles are roots of q(s) - k n(s), with n
        # reconstructed densely from samples of R(s) q(s)
        rng = np.random.default_rng(29)
        for _ in range(5):
            n = 4
            sys = StateSpace(A=rng.standard_normal((n, n)),
                             B=rng.standard_normal((n, 1)),
                             C=rng.standard_normal((1, n)))
            k = float(rng.uniform(-1.0, 1.0))
            gain = StateSpace(A=np.zeros((0, 0)), B=np.zeros((0, 1)),
                              C=np.zeros((1, 0)), D=[[k]])
            loop = interconnect_positive_feedback(sys, gain)
            q = np.poly(np.linalg.eigvals(sys.A))
            pts = 2.5j * np.exp(2j * np.pi * np.arange(n) / n) + 0.1
            vals = [complex(eval_tf(sys, s)[0, 0]) * np.polyval(q, s)
                    for s in pts]
            V = np.vander(pts, n)
            n_poly = np.linalg.solve(V, vals)
            closed_poly = q - k * np.concatenate([[0.0], n_poly])
            want = np.roots(closed_poly)
            got = np.linalg.eigvals(loop.A)
            dist = np.abs(got[:, None] - want[None, :])
            assert dist.min(axis=0).max() < 1e-6
            assert dist.min(axis=1).max() < 1e-6


class TestSimulate:
    def test_scalar_decay(self):
        sys = StateSpace(A=[[-1.0]], B=[[1.0]], C=[[1.0]])
        traj = simulate(sys, [1.0], t_end=1.0, dt=0.01)
        assert abs(traj.states[-1, 0] - np.exp(-1.0)) < 1e-6

    def test_zero_everything(self):
        sys = StateSpace(A=[[-1.0]], B=[[1.0]], C=[[1.0]])
        traj = simulate(sys, [0.0], t_end=1.0, dt=0.01)
        assert np.all(traj.states == 0.0) and np.all(traj.outputs == 0.0)

    def test_demo_uncertain_loop_decay(self, demo_uncertainty):
        # oracle: asymptotic decay rate is the spectral abscissa of the
        # interconnection (-0.164), so t=20 contracts by roughly e^-3.3
        loop = interconnect_positive_feedback(demo_nominal_closed(),
                                              demo_uncertainty)
        abscissa = float(np.max(np.linalg.eigvals(loop.A).real))
        assert abscissa < 0
        rng = np.random.default_rng(31)
        for _ in range(5):
            x0 = rng.standard_normal(6)
            traj = simulate(loop, x0, t_end=20.0, dt=0.01)
            ratio = np.linalg.norm(traj.states[-1]) / np.linalg.norm(x0)
            assert ratio < 10.0 * np.exp(abscissa * 20.0)

    def test_hurwitz_energy_decreases(self):
        rng = np.random.default_rng(37)
        A = random_hurwitz(rng, 4)
        sys = StateSpace(A=A, B=np.zeros((4, 1)), C=np.eye(4)[:1])
        x0 = rng.standard_normal(4)
        traj = simulate(sys, x0, t_end=30.0, dt=0.01)
        norms = np.linalg.norm(traj.states, axis=1)
        assert norms[-1] < 1e-6 * norms[0]

    def test_marginal_system_bounded(self):
        rng = np.random.default_rng(41)
        S0 = random_skew_nonsingular(rng, 4)
        T = np.eye(4) + 0.3 * rng.standard_normal((4, 4))
        A = np.linalg.solve(T, S0) @ T
        P = linalg.kernel_pd_solution(A)
        lam = np.linalg.eigvalsh(P)
        kappa = float(np.sqrt(lam[-1] / lam[0])) - 1.0
        sys = StateSpace(A=A, B=np.zeros((4, 1)), C=np.eye(4)[:1])
        x0 = rng.standard_normal(4)
        traj = simulate(sys, x0, t_end=25.0, dt=0.005)
        norms = np.linalg.norm(traj.states, axis=1)
        assert norms.max() <= (1.0 + kappa) * np.linalg.norm(x0) * (1 + 1e-6)

    def test_divergence_reported(self):
        sys = StateSpace(A=[[50.0]], B=[[1.0]], C=[[1.0]])
        with pytest.raises(SimulationDivergedError) as exc:
            simulate(sys, [1.0], t_end=100.0, dt=0.5)
        assert exc.value.t_bad is not None

    def test_constant_and_sampled_inputs_agree(self):
        sys = StateSpace(A=[[-1.0]], B=[[1.0]], C=[[1.0]])
        t1 = simulate(sys, [0.0], input_signal=[2.0], t_end=1.0, dt=0.01)
        ts = np.arange(0.0, 1.01, 0.01)
        t2 = simulate(sys, [0.0], input_signal=(ts, 2.0 * np.ones((len(ts), 1))),
                      t_end=1.0, dt=0.01)
        assert np.allclose(t1.states, t2.states)
        assert abs(t1.states[-1, 0] - 2.0 * (1 - np.exp(-1.0))) < 1e-6


class TestReadOnly:
    def test_matrices_are_read_only_copies(self):
        A = np.array([[-1.0, 0.5], [0.0, -2.0]])
        sys = StateSpace(A=A, B=[[1.0], [0.0]], C=[[1.0, 1.0]])
        poles = sys.poles().copy()
        with pytest.raises(ValueError):
            sys.A[0, 0] = 5.0
        A[0, 0] = 5.0
        assert A.flags.writeable
        assert sys.A[0, 0] == -1.0
        assert np.array_equal(sys.poles(), poles)
        assert np.array_equal(poles, [-2.0, -1.0])


class TestJsonSchema:
    def test_round_trip(self, demo_plant, tmp_path):
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(demo_plant.to_dict()))
        loaded = load_system(path)
        assert np.array_equal(loaded.A, demo_plant.A)
        assert np.array_equal(loaded.B, demo_plant.B)
        assert loaded.name == "demo-plant"
        assert np.all(loaded.D == 0.0)

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"A": [[1, 0], [1]], "B": [[1], [1]], "C": [[1, 0]]}')
        with pytest.raises(InputError):
            load_system(path)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"A": [[1,\n 0]')
        with pytest.raises(InputError) as exc:
            load_system(path)
        assert "line" in str(exc.value)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InputError):
            StateSpace(A=np.eye(2), B=[[1.0]], C=[[1.0, 0.0]])
