import numpy as np
import pytest

from nisynth import StateSpace, certify, eval_tf, is_minimal, linalg
from nisynth.certify import (
    FrequencyGrid,
    classify_freq,
    residue_at_imaginary_pole,
    verify_certificate,
)
from nisynth.errors import (
    InputError,
    PoleInForbiddenRegionError,
    PoleProximityError,
)
from nisynth.statespace import UncertainSystem
from nisynth.structure import find_output_transformation, to_normal_form
from nisynth.synth import (
    SynthesisConfig,
    robust_stabilize,
    synthesize_ni,
    synthesize_osni,
    synthesize_ssni,
)

from gen import planted_system, random_hurwitz, random_shape, \
    well_conditioned


def demo_nominal_closed():
    return StateSpace(
        A=np.array([[-1.0, 0, 1, 1], [1, -4, -1, -1], [1, -4, 0, -2],
                    [-3, -8, 12.5, -2.5]]),
        B=np.array([[0.0, 0], [1, 1], [1, 1], [1, 0]]),
        C=np.array([[0.0, 1, 0, 0], [0, 0, 1, 0]]))


def first_order_lag(gain=1.0):
    return StateSpace(A=[[-1.0]], B=[[1.0]], C=[[gain]])


class TestClassifyFreq:
    def test_demo_closed_loop_is_ni(self):
        verdict = classify_freq(demo_nominal_closed(), "ni")
        assert verdict.holds
        assert verdict.worst_margin >= -1e-8

    def test_first_order_lag_is_sni(self):
        # hand oracle: j(R - R*) = 2 w / (1 + w^2) > 0 for w > 0
        verdict = classify_freq(first_order_lag(), "sni")
        assert verdict.holds
        w = verdict.worst_omega
        assert np.isclose(verdict.worst_margin, 2 * w / (1 + w * w),
                          rtol=1e-6)

    def test_phase_lead_fails_ni(self):
        # R(s) = s/(s+1): j(R - R*) = -2 w/(1+w^2) < 0
        sys = StateSpace(A=[[-1.0]], B=[[1.0]], C=[[-1.0]], D=[[1.0]])
        verdict = classify_freq(sys, "ni")
        assert not verdict.holds
        assert verdict.worst_margin < 0
        assert verdict.worst_omega is not None

    def test_unstable_pole_rejected(self, demo_plant):
        with pytest.raises(PoleInForbiddenRegionError) as exc:
            classify_freq(demo_plant, "sni")
        assert exc.value.pole is not None

    def test_origin_pole_rejected_for_ni(self):
        sys = StateSpace(A=[[0.0]], B=[[1.0]], C=[[1.0]])
        with pytest.raises(PoleInForbiddenRegionError):
            classify_freq(sys, "ni")

    def test_imaginary_pole_allowed_for_ni(self):
        # R(s) = 1/(s^2 + 1): NI with a simple pole at j
        sys = StateSpace(A=[[0.0, 1.0], [-1.0, 0.0]], B=[[0.0], [1.0]],
                         C=[[1.0, 0.0]])
        verdict = classify_freq(sys, "ni")
        assert verdict.holds
        assert any("residue" in note for note in verdict.notes)

    def test_spectrum_computed_once_per_system(self, monkeypatch):
        sys = demo_nominal_closed()
        on_sys = []
        eig = linalg.eig

        def counting_eig(A):
            on_sys.append(np.array_equal(A, sys.A))
            return eig(A)

        monkeypatch.setattr(linalg, "eig", counting_eig)
        assert is_minimal(sys).minimal
        assert classify_freq(sys, "ni").holds
        assert sum(on_sys) == 1

    def test_osni_needs_eps(self):
        with pytest.raises(InputError):
            classify_freq(first_order_lag(), "osni")

    def test_transformation_invariance(self):
        # verdicts agree between R and T R T^T on twenty random cases
        rng = np.random.default_rng(97)
        cases = 0
        while cases < 20:
            p1, p2, m_a, m_b = random_shape(rng, max_p=2, max_n=6)
            sys, _ = planted_system(rng, p1, p2, m_a, m_b)
            T_y, _ = find_output_transformation(sys)
            nf = to_normal_form(sys, T_y)
            try:
                gains = synthesize_ni(nf, SynthesisConfig(rng_seed=cases))
            except Exception:
                continue
            base = gains.closed_loop
            if cases % 2:
                # break the property deliberately with a phase-lead shift
                base = StateSpace(A=base.A, B=base.B, C=-base.C @ base.A)
            T = well_conditioned(rng, base.n_outputs)
            moved = StateSpace(A=base.A, B=base.B @ T.T, C=T @ base.C)
            try:
                v0 = classify_freq(base, "ni").holds
            except PoleInForbiddenRegionError:
                continue
            v1 = classify_freq(moved, "ni").holds
            assert v0 == v1
            cases += 1


def per_point_sweep(sys, ni_class, grid, eps=None):
    """Reference: the sampled part of the class test, one frequency at a
    time; points within the pole distance of ``eval_tf`` are skipped and
    the first strictly smallest margin wins.  Returns
    ``(worst_omega, worst_margin)``."""
    worst_margin, worst_omega = np.inf, None
    for w in grid.omegas:
        try:
            R = eval_tf(sys, 1j * w)
        except PoleProximityError:
            continue
        M = 1j * (R - R.conj().T)
        if ni_class == "osni":
            Rb = R - sys.D
            M = w * M - eps * w ** 2 * (Rb.conj().T @ Rb)
        lam = np.linalg.eigvalsh((M + M.conj().T) / 2.0)
        margin = float(lam[0]) if len(lam) else 0.0
        if margin < worst_margin:
            worst_margin, worst_omega = margin, float(w)
    return worst_omega, worst_margin


def assert_sweep_matches(sys, ni_class, eps=None, grid=None):
    grid = grid or FrequencyGrid.default(sys)
    verdict = classify_freq(sys, ni_class, grid=grid, eps=eps)
    omega, margin = per_point_sweep(sys, ni_class, grid, eps)
    assert verdict.worst_omega == omega
    assert np.float64(verdict.worst_margin).tobytes() == \
        np.float64(margin).tobytes()
    floor = -1e-8 if ni_class in ("ni", "osni") else 1e-10
    # residue and frequency-limit failures are noted; they can only
    # turn a sampled pass into a failure
    other_failure = any("fails" in note or "not simple" in note
                        for note in verdict.notes)
    assert verdict.holds == (margin >= floor and not other_failure)
    return verdict


def _closed_loops(rng, count, shape_of, synthesize):
    loops = []
    while len(loops) < count:
        p1, p2, m_a, m_b = shape_of(rng)
        sys, _ = planted_system(rng, p1, p2, m_a, m_b)
        gains = synthesize(to_normal_form(sys),
                           SynthesisConfig(rng_seed=len(loops)))
        loops.append(gains)
    return loops


class TestBatchedSweep:
    """The stacked sweep of ``classify_freq`` gives the verdict,
    worst frequency and worst margin of the per-point loop bit for bit."""

    def test_ni_on_planted_closed_loops_and_demo(self):
        rng = np.random.default_rng(61)
        loops = _closed_loops(rng, 6, lambda r: random_shape(r, 3, 8),
                              synthesize_ni)
        for gains in loops:
            assert assert_sweep_matches(gains.closed_loop, "ni").holds
        assert assert_sweep_matches(demo_nominal_closed(), "ni").holds

    def test_osni_on_planted_closed_loops(self):
        rng = np.random.default_rng(62)

        def shape(r):
            while True:
                p1, p2, m_a, m_b = random_shape(r, 3, 8)
                if p1 > 0 and p2 <= p1:
                    return p1, p2, m_a, m_b

        for gains in _closed_loops(rng, 5, shape, synthesize_osni):
            assert assert_sweep_matches(gains.closed_loop, "osni",
                                        eps=gains.epsilon).holds

    def test_sni_and_ssni_on_planted_closed_loops(self):
        rng = np.random.default_rng(63)
        loops = _closed_loops(
            rng, 5, lambda r: random_shape(r, 3, 8, force_p2=0, force_ma=0),
            synthesize_ssni)
        for gains in loops:
            assert assert_sweep_matches(gains.closed_loop, "sni").holds
            assert assert_sweep_matches(gains.closed_loop, "ssni").holds
        assert assert_sweep_matches(first_order_lag(), "sni").holds

    def test_all_classes_on_random_hurwitz_systems(self):
        # mostly not NI: the worst point is a genuine negative margin
        rng = np.random.default_rng(64)
        for n, p in ((1, 1), (3, 2), (5, 3), (8, 2)):
            sys = StateSpace(A=random_hurwitz(rng, n),
                             B=rng.standard_normal((n, p)),
                             C=rng.standard_normal((p, n)))
            for ni_class in ("ni", "sni", "ssni"):
                assert_sweep_matches(sys, ni_class)
            assert_sweep_matches(sys, "osni", eps=0.3)

    def test_64_states_sweep_in_one_call(self, monkeypatch):
        rng = np.random.default_rng(65)
        sys = StateSpace(A=random_hurwitz(rng, 64),
                         B=rng.standard_normal((64, 3)),
                         C=rng.standard_normal((3, 64)))
        assert sys.modal_factors is not None
        calls = []

        def counting_eval_tf(system, s):
            calls.append(np.size(s))
            return eval_tf(system, s)

        monkeypatch.setattr(certify, "eval_tf", counting_eval_tf)
        verdicts = [assert_sweep_matches(sys, ni_class)
                    for ni_class in ("ni", "sni", "ssni")]
        verdicts.append(assert_sweep_matches(sys, "osni", eps=0.3))
        # one modal call per verdict holds the whole grid; an SSNI pass
        # would add the two limit proxies
        assert not verdicts[2].holds
        assert calls == [len(FrequencyGrid.default(sys).omegas)] * 4

    def test_64_state_robust_loop(self):
        rng = np.random.default_rng(66)
        sys, _ = planted_system(rng, 1, 2, 34, 25)
        res = robust_stabilize(UncertainSystem(plant=sys, gamma=1.0))
        assert assert_sweep_matches(res.nominal_closed, "ni").holds

    def test_points_at_a_pole_are_skipped(self):
        # R(s) = 1/(s^2 + 1); the grid point 1.0 sits on the pole j
        sys = StateSpace(A=[[0.0, 1.0], [-1.0, 0.0]], B=[[0.0], [1.0]],
                         C=[[1.0, 0.0]])
        grid = FrequencyGrid(omegas=np.array([0.5, 1.0, 2.0]), lo=0.5,
                             hi=2.0)
        assert assert_sweep_matches(sys, "ni", grid=grid).holds
        only_pole = FrequencyGrid(omegas=np.array([1.0]), lo=0.5, hi=2.0)
        with pytest.raises(InputError, match="no usable grid points"):
            classify_freq(sys, "ni", grid=only_pole)

    def test_resonance_between_grid_points_still_missed(self):
        # known fault (ROADMAP item 1): a resonance between two grid
        # points is not NI, yet the sampled test says it holds
        grid = FrequencyGrid.default()
        w0 = float(np.sqrt(grid.omegas[200] * grid.omegas[201]))
        sys = StateSpace(A=[[-1.0, 0.0, 0.0], [0.0, 0.0, 1.0],
                            [0.0, -w0 ** 2, -2e-4 * w0]],
                         B=[[1.0], [0.0], [1.0]], C=[[1.0, -0.01, 0.0]])
        R = eval_tf(sys, 1j * w0)
        assert np.linalg.eigvalsh(1j * (R - R.conj().T))[0] < -1.0
        assert assert_sweep_matches(sys, "ni").holds


class TestResidue:
    def oscillator(self, numerator="position"):
        # 1/(s^2+1) has residue 1/2 at j; s/(s^2+1) likewise (partial
        # fractions: 1/(s^2+1) = (1/2j)(1/(s-j) - 1/(s+j)))
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        B = np.array([[0.0], [1.0]])
        C = np.array([[1.0, 0.0]]) if numerator == "position" \
            else np.array([[0.0, 1.0]])
        return StateSpace(A=A, B=B, C=C)

    def test_position_numerator(self):
        rr = residue_at_imaginary_pole(self.oscillator("position"), 1.0)
        assert rr.simple and rr.psd
        assert np.allclose(rr.K0, [[0.5]], atol=1e-12)

    def test_velocity_numerator_not_hermitian(self):
        # partial fractions: s/(s^2+1) = (1/2)(1/(s-j) + 1/(s+j)), so the
        # residue matrix is j/2: non-Hermitian, and the PSD check fails
        # (consistent with s/(s^2+1) failing the sign condition at w < 1)
        rr = residue_at_imaginary_pole(self.oscillator("velocity"), 1.0)
        assert rr.simple and not rr.psd
        assert np.isclose(rr.hermitian_defect, 1.0)

    def test_double_pole_flagged(self):
        R = np.array([[0.0, 1.0], [-1.0, 0.0]])
        A = np.block([[R, np.eye(2)], [np.zeros((2, 2)), R]])
        sys = StateSpace(A=A, B=[[0.0], [0.0], [0.0], [1.0]],
                         C=[[1.0, 0.0, 0.0, 0.0]])
        rr = residue_at_imaginary_pole(sys, 1.0)
        assert not rr.simple and not rr.psd

    def test_hermitian_defect_small_for_collocated_modes(self):
        # an undamped mode with collocated input/output has residue
        # psi psi^T / 2 (oracle: R = psi psi^T w/(s^2+w^2), residue
        # w/(2jw) = 1/(2j)); the computed defect must be machine-level
        rng = np.random.default_rng(101)
        for _ in range(15):
            w = float(rng.uniform(0.5, 3.0))
            p = int(rng.integers(1, 3))
            psi = rng.standard_normal((p, 1))
            R = np.array([[0.0, w], [-w, 0.0]])
            n_extra = int(rng.integers(1, 4))
            G = rng.standard_normal((n_extra, n_extra))
            Ah = G - (np.max(np.linalg.eigvals(G).real) + 1.0) * np.eye(n_extra)
            A = np.block([
                [R, np.zeros((2, n_extra))],
                [np.zeros((n_extra, 2)), Ah]])
            B = np.vstack([np.zeros((1, p)), psi.T,
                           rng.standard_normal((n_extra, p))])
            C = np.hstack([psi, np.zeros((p, 1)),
                           rng.standard_normal((p, n_extra))])
            rr = residue_at_imaginary_pole(StateSpace(A=A, B=B, C=C), w)
            assert rr.simple and rr.psd
            assert rr.hermitian_defect <= 1e-8 * max(
                1.0, np.linalg.norm(rr.K0, 2))
            assert np.allclose(rr.K0, psi @ psi.T / 2.0, atol=1e-9)

    @staticmethod
    def transposed_eig_residue(sys, w):
        """The residue from a left eigenvector of an ``eig(A^T)``."""
        res = sys.spectrum
        k = int(np.argmin(np.abs(res.values - 1j * w)))
        vals, vecs = np.linalg.eig(sys.A.T)
        u = vecs[:, int(np.argmin(np.abs(vals - res.values[k])))]
        v = res.vectors[:, k]
        K0 = 1j * (sys.C @ np.outer(v, u) @ sys.B) / (u @ v)
        return (K0 + K0.conj().T) / 2.0

    def test_residues_from_the_cached_left_eigenvectors(self, monkeypatch):
        # three undamped collocated modes psi_i psi_i^T w_i / (s^2 + w_i^2):
        # the NI verdict decomposes A once, not once more per pole pair
        rng = np.random.default_rng(103)
        omegas = (0.7, 1.3, 2.9)
        psi = rng.standard_normal((3, 2))
        A = np.zeros((6, 6))
        B = np.zeros((6, 2))
        C = np.zeros((2, 6))
        for i, w in enumerate(omegas):
            A[2 * i:2 * i + 2, 2 * i:2 * i + 2] = [[0.0, w], [-w, 0.0]]
            B[2 * i + 1] = psi[i]
            C[:, 2 * i] = psi[i]
        sys = StateSpace(A=A, B=B, C=C)
        calls = []
        eig = linalg.eig
        monkeypatch.setattr(linalg, "eig",
                            lambda M: calls.append(1) or eig(M))
        verdict = classify_freq(sys, "ni")
        assert verdict.holds and len(calls) == 1
        for i, w in enumerate(omegas):
            rr = residue_at_imaginary_pole(sys, w)
            ref = self.transposed_eig_residue(sys, w)
            assert rr.simple and rr.psd
            assert np.linalg.norm(rr.K0 - ref, 2) <= \
                1e-12 * np.linalg.norm(ref, 2)
            assert np.allclose(rr.K0, np.outer(psi[i], psi[i]) / 2.0,
                               atol=1e-12)
        assert len(calls) == 1

    def test_untrusted_eigenbasis_takes_the_transpose(self, monkeypatch):
        # a defective pole pair: no trusted left eigenvectors; the
        # simple pole at j*2 still gets its residue from eig(A^T)
        R = np.array([[0.0, 1.0], [-1.0, 0.0]])
        A = np.zeros((6, 6))
        A[:4, :4] = np.block([[R, np.eye(2)], [np.zeros((2, 2)), R]])
        A[4:, 4:] = [[0.0, 2.0], [-2.0, 0.0]]
        B = np.zeros((6, 1))
        B[3, 0] = B[5, 0] = 1.0
        C = np.zeros((1, 6))
        C[0, 0] = C[0, 4] = 1.0
        sys = StateSpace(A=A, B=B, C=C)
        assert sys.spectrum.left is None
        calls = []
        eig = linalg.eig
        monkeypatch.setattr(linalg, "eig",
                            lambda M: calls.append(1) or eig(M))
        rr = residue_at_imaginary_pole(sys, 2.0)
        assert rr.simple and rr.psd and calls == [1]
        assert np.allclose(rr.K0, self.transposed_eig_residue(sys, 2.0),
                           rtol=0, atol=1e-12)
        assert np.allclose(rr.K0, [[0.5]], atol=1e-12)


class TestVerifyCertificate:
    def test_scalar_certificate(self):
        # B + A Y C^T = 1 - Y vanishes only at Y = 1
        sys = first_order_lag()
        verdict, cert = verify_certificate(sys, "ni", [[1.0]])
        assert verdict.holds
        assert cert.coupling_residual <= 1e-12

    def test_perturbed_scalar_fails(self):
        sys = first_order_lag()
        verdict, cert = verify_certificate(sys, "ni", [[1.1]])
        assert not verdict.holds
        assert np.isclose(cert.coupling_residual, 0.1)

    def test_non_pd_rejected(self):
        sys = StateSpace(A=np.diag([-1.0, -2.0]), B=np.eye(2), C=np.eye(2))
        Y = np.diag([1.0, -0.5])
        verdict, _ = verify_certificate(sys, "ni", Y)
        assert not verdict.holds
        assert any("positive definite" in n for n in verdict.notes)

    def test_nonminimal_fails_hypothesis(self):
        sys = StateSpace(A=np.diag([-1.0, -2.0]), B=[[1.0], [0.0]],
                         C=[[1.0, 0.0]])
        verdict, _ = verify_certificate(sys, "ni", np.eye(2))
        assert not verdict.holds
        assert any("minimal" in n for n in verdict.notes)

    def test_observable_uncontrollable_mode_noted(self):
        # -2 is uncontrollable and observable, so the strong-class
        # certificate route does not apply
        sys = StateSpace(A=np.diag([-1.0, -2.0]), B=[[1.0], [0.0]],
                         C=[[1.0, 1.0]])
        verdict, _ = verify_certificate(sys, "ssni", np.eye(2))
        assert not verdict.holds
        assert "observable uncontrollable mode at -2.0 " \
            "(certificate-test hypothesis)" in verdict.notes
        # uncontrollable and unobservable: not a hypothesis failure
        hidden = StateSpace(A=np.diag([-1.0, -2.0]), B=[[1.0], [0.0]],
                            C=[[1.0, 0.0]])
        verdict, _ = verify_certificate(hidden, "ssni", np.eye(2))
        assert not any("uncontrollable" in n for n in verdict.notes)

    def test_sni_not_supported(self):
        with pytest.raises(InputError):
            verify_certificate(first_order_lag(), "sni", [[1.0]])


class TestGrid:
    def test_default_grid_shape(self):
        grid = FrequencyGrid.default()
        assert len(grid.omegas) == 400
        assert np.isclose(grid.omegas[0], 1e-4)
        assert np.isclose(grid.omegas[-1], 1e4)
        assert np.all(np.diff(grid.omegas) > 0)

    def test_pole_exclusion(self):
        sys = StateSpace(A=[[0.0, 1.0], [-1.0, 0.0]], B=[[0.0], [1.0]],
                         C=[[1.0, 0.0]])
        # the first grid point sits exactly on the pole frequency
        grid = FrequencyGrid.default(sys, points=10, lo=1.0, hi=10.0)
        assert 1.0 in grid.excluded
        assert len(grid.omegas) == 9
        assert all(abs(1j * w - 1j) >= 2e-6 for w in grid.omegas)

    @pytest.mark.parametrize("with_system", [False, True])
    def test_oversized_grid_refused_before_allocating(self, monkeypatch,
                                                      demo_plant,
                                                      with_system):
        # the demo plant brings (1 + 4)(1 + 2) entries a point, no system 1
        sys, width = (demo_plant, 15) if with_system else (None, 1)

        def no_grid(*args, **kwargs):
            raise AssertionError("the grid was allocated")

        monkeypatch.setattr(np, "logspace", no_grid)
        for points in (10 ** 15, certify.GRID_ENTRIES // width + 1):
            with pytest.raises(InputError, match=f"{points} grid points of "
                                                 f"{width} entries exceed"):
                FrequencyGrid.default(sys, points=points)

    def test_fully_excluded_grid_rejected(self):
        sys = StateSpace(A=[[0.0, 1.0], [-1.0, 0.0]], B=[[0.0], [1.0]],
                         C=[[1.0, 0.0]])
        with pytest.raises(InputError):
            FrequencyGrid.default(sys, points=5, lo=1.0 - 1e-9,
                                  hi=1.0 + 1e-9)
