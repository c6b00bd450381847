import numpy as np
import pytest

from nisynth import StateSpace, certify, eval_tf, is_minimal, linalg
from nisynth.certify import classify_freq, verify_certificate
from nisynth.errors import (
    InputError,
    NumericalError,
    PoleInForbiddenRegionError,
    PoleProximityError,
)
from nisynth.statespace import UncertainSystem, near_pole
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

    def test_imaginary_pole_residue_alone_fails_ni(self):
        # R(s) = -1/(s^2 + 1): j(R - R*) = 0 off the pole, so the sampled
        # condition holds, but the residue at j is -1/2
        sys = StateSpace(A=[[0.0, 1.0], [-1.0, 0.0]], B=[[0.0], [1.0]],
                         C=[[-1.0, 0.0]])
        verdict = classify_freq(sys, "ni")
        assert not verdict.holds
        assert verdict.worst_margin == 0.0
        assert verdict.notes[-1] == "residue at j*1 fails the PSD condition"

    def test_ssni_limit_fails_where_sni_holds(self):
        # R(s) = 1/(s + 1)^2: SNI, but C B = 0, so the high-frequency
        # limit of the strong-strict class fails
        sys = StateSpace(A=[[-1.0, 1.0], [0.0, -1.0]], B=[[0.0], [1.0]],
                         C=[[1.0, 0.0]])
        assert classify_freq(sys, "sni").holds
        verdict = classify_freq(sys, "ssni")
        assert not verdict.holds
        assert verdict.notes[-1] == "a frequency-limit condition fails"

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

    def test_tie_goes_to_the_lowest_frequency(self):
        # R = 0 behind poles -1 +- 2j: every decision point (1, the
        # interval point, and 2, the pole frequency) has margin 0
        A = np.array([[-1.0, 2.0, 0.0], [-2.0, -1.0, 0.0], [0.0, 0.0, -1.0]])
        sys = StateSpace(A=A, B=np.ones((3, 1)), C=np.zeros((1, 3)))
        verdict, omegas = decided(sys, "ni")
        assert np.allclose(omegas, [1.0, 2.0], rtol=1e-12)
        assert verdict.holds and verdict.worst_margin == 0.0
        assert verdict.worst_omega == omegas[0]

    def test_mixed_degree_plant_with_a_large_weight(self):
        # a degree-2 output makes C B singular: for g = 1e6 the Popov
        # function's W - level I spreads from 1e-8 to 2e6, too wide for
        # the OSNI Hamiltonian, and no verdict is returned; NI needs no W
        # inverse on its exact route and decides every g
        def plant(g):
            return StateSpace(A=[[-1.0, 0, 0], [0, -1, 1], [0, -1, -1]],
                              B=[[1.0, 0], [0, 0], [0, 1]],
                              C=[[g, 0, 0], [0, 1, 0]])

        for g in (1.0, 1e4, 1e6, 1e9):
            expected, _ = dense_oracle(plant(g), "ni")
            assert classify_freq(plant(g), "ni").holds == expected
        assert "of j(R - R*)" in classify_freq(plant(1e6), "ni").notes[0]
        assert classify_freq(plant(1e4), "osni", eps=1e-7).holds == \
            dense_oracle(plant(1e4), "osni", 1e-7)[0]
        with pytest.raises(NumericalError, match="too ill-conditioned"):
            classify_freq(plant(1e6), "osni", eps=1e-7)

    def test_shallow_low_frequency_violation(self):
        # R(s) = 1/(s+1) - 2.01e-8/(s+1e-4): j(R - R*) < 0 below 1.005e-4
        # and about -1e-6 at 1e-4, while w j(R - R*) stays above -3.4e-9:
        # a level on w j(R - R*) near the floor finds no band
        sys = StateSpace(A=np.diag([-1.0, -1e-4]), B=np.ones((2, 1)),
                         C=[[1.0, -2.01e-8]])
        assert margin_at(sys, 1e-4) < -9e-7
        assert not dense_oracle(sys, "ni")[0]
        verdict = assert_sweep_matches(sys, "ni")
        assert not verdict.holds and verdict.worst_margin < -1e-6
        assert verdict.worst_omega < 1.005e-4

    def test_strict_dip_just_under_the_floor(self):
        for dip, holds in ((0.9e-10, False), (1.1e-10, True)):
            sys = three_lags(dip)
            assert abs(margin_at(sys, 10.0) - dip) < 1e-15
            for ni_class in ("sni", "ssni"):
                assert dense_oracle(sys, ni_class, extra=[10.0])[0] == holds
                assert assert_sweep_matches(sys, ni_class).holds == holds

    def test_gamma_band_without_violation_is_decided_exactly(self):
        # the three-lag plant with a dip of -5e-9 at w = 10 is NI within
        # the floor, but (w + 1/w)/2 = 5.05 takes Gamma to -2.5e-8: the
        # band of Gamma holds no violation, and the exact crossings of
        # j(R - R*) decide in a second evaluation; a dip of -1.5e-8 fails
        for dip, holds in ((-5e-9, True), (-1.5e-8, False)):
            sys = three_lags(dip)
            assert dense_oracle(sys, "ni", extra=[10.0])[0] == holds
            verdict = assert_sweep_matches(sys, "ni")
            assert verdict.holds == holds
            assert ("(w + 1/w)" in verdict.notes[0]) != holds

    def test_nonsymmetric_feedthrough_fails(self):
        # j(R - R*) tends to j(D - D^T), eigenvalues +-1e-3
        sys = StateSpace(A=-np.eye(2), B=np.eye(2), C=np.eye(2),
                         D=[[0.0, 1e-3], [0.0, 0.0]])
        verdict = classify_freq(sys, "ni")
        assert not verdict.holds
        assert "D is not symmetric" in verdict.notes[-1]
        # the exact route, which keeps D - D^T, finds the high band
        assert "of j(R - R*)" in verdict.notes[0]
        assert verdict.worst_omega > 1e3 and verdict.worst_margin < -1e-4

    def test_level_on_a_singular_value_of_the_asymmetry(self):
        # j(D - D^T) has the eigenvalues +-1e-8, one of them the NI floor:
        # D - D^T + j level I is singular, the zero matrix cannot be
        # formed, and no verdict is returned; 4e-9 leaves it invertible
        def plant(d):
            return StateSpace(A=-np.eye(2), B=np.eye(2), C=np.eye(2),
                              D=[[0.0, d], [-d, 0.0]])

        with pytest.raises(NumericalError, match="singular value of D"):
            classify_freq(plant(5e-9), "ni")
        assert classify_freq(plant(4e-9), "ni").holds

    def test_nonsymmetric_dc_gain_fails(self):
        # R(0) = [[1, 1e-3], [0, 1]]: j(R - R*) tends to an indefinite
        # matrix, lambda_min -1e-3, as w -> 0; the exact route's crossing
        # near 5e-4 bounds the low band, read at half its frequency
        sys = StateSpace(A=-np.eye(2), B=np.eye(2), C=[[1.0, 1e-3],
                                                        [0.0, 1.0]])
        verdict = classify_freq(sys, "ni")
        assert not verdict.holds
        assert "of j(R - R*): 0.00049999" in verdict.notes[0]
        assert verdict.worst_omega < 5e-4
        assert -1e-3 < verdict.worst_margin < -4e-4

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


def per_point_sweep(sys, ni_class, omegas, eps=None):
    """Reference: the class matrix one frequency at a time over
    ``omegas``; the first strictly smallest margin wins, so a tie goes to
    the lowest of sorted frequencies.  Returns
    ``(worst_omega, worst_margin)``."""
    worst_margin, worst_omega = np.inf, None
    for w in omegas:
        R = eval_tf(sys, 1j * w)
        M = 1j * (R - R.conj().T)
        if ni_class == "osni":
            Rb = R - sys.D
            M = w * M - eps * w ** 2 * (Rb.conj().T @ Rb)
        lam = np.linalg.eigvalsh((M + M.conj().T) / 2.0)
        margin = float(lam[0]) if len(lam) else 0.0
        if margin < worst_margin:
            worst_margin, worst_omega = margin, float(w)
    return worst_omega, worst_margin


def decided(sys, ni_class, eps=None):
    """``classify_freq``'s verdict and the frequencies of its stacked
    ``eval_tf`` call: one, or two when NI's bands of ``Gamma`` held no
    violation and the exact crossings decided."""
    calls = []
    inner = certify.eval_tf

    def recording(system, s):
        calls.append(np.asarray(s))
        return inner(system, s)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(certify, "eval_tf", recording)
        verdict = classify_freq(sys, ni_class, eps=eps)
    redecided = ni_class == "ni" and "(w + 1/w)" not in verdict.notes[0] \
        and certify._gamma_crossings(sys) is not None
    assert len(calls) == (2 if redecided else 1)
    assert np.all(calls[-1].real == 0.0)
    return verdict, calls[-1].imag


def listed_candidates(verdict):
    listed = verdict.notes[0].split(": ", 1)[1]
    return np.array([] if listed == "none" else
                    [float(w) for w in listed.split(", ")])


def assert_sweep_matches(sys, ni_class, eps=None):
    """The verdict's worst point is the per-point loop's over the decision
    points, bit for bit, and the points are the ones the route promises:
    sorted, positive, clear of the poles, the notes listing every
    candidate the route computes (to nine digits), a point inside every
    interval the candidates and imaginary-axis poles bound, and every pole
    frequency ``|Im lambda|`` that is not on a pole."""
    verdict, omegas = decided(sys, ni_class, eps)
    assert np.all(omegas > 0) and np.all(np.diff(omegas) > 0)
    assert not near_pole(sys, 1j * omegas).any()
    exact = ni_class == "ni" and "(w + 1/w)" not in verdict.notes[0]
    signed = certify._candidates(sys, ni_class, eps, exact)[0]
    if len(signed):
        signed = signed[~near_pole(sys, 1j * np.abs(signed))]
    raw = np.abs(signed)
    listed = listed_candidates(verdict)
    for w in raw:
        assert np.abs(np.abs(listed) - w).min() <= 1e-8 * w
    axis = sys.spectrum.values.imag[certify._imaginary_axis_poles(sys)]
    breaks = np.unique(np.concatenate([np.abs(listed), axis]))
    edges = np.concatenate([[0.0], breaks, [np.inf]])
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi > lo * (1.0 + 1e-8):
            assert ((omegas > lo) & (omegas < hi)).any(), (lo, hi)
    pole_w = np.abs(sys.poles().imag)
    pole_w = pole_w[(pole_w > sys.spectrum.axis_tol)
                    & ~near_pole(sys, 1j * pole_w)]
    assert np.isin(pole_w, omegas).all()
    assert f"decision points: {len(omegas)}" in verdict.notes
    floor = -1e-8 if ni_class in ("ni", "osni") else 1e-10
    margins = np.array([per_point_sweep(sys, ni_class, [w], eps)[1]
                        for w in omegas])
    floors = np.full(len(omegas), floor)
    reach = np.flatnonzero(margins >= floor)
    if ni_class in ("sni", "ssni") and len(reach):
        # the roll-off below and above the points that reach the floor
        floors[:reach[0]] = -floor
        floors[reach[-1] + 1:] = -floor
    fails = margins < floors
    kept = (floors == floor) | fails
    omega, margin = per_point_sweep(sys, ni_class, omegas[kept], eps)
    assert verdict.worst_omega == omega
    assert np.float64(verdict.worst_margin).tobytes() == \
        np.float64(margin).tobytes()
    # residue and frequency-limit failures are noted; they can only
    # turn a pass at the decision points into a failure
    other_failure = any("fails" in note or "not simple" in note
                        for note in verdict.notes)
    assert verdict.holds == (not fails.any() and not other_failure)
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


def resonance_plant(w0, zeta=1e-4, k=0.01):
    """R(s) = 1/(s+1) - k/(s^2 + 2 zeta w0 s + w0^2), in companion form."""
    return StateSpace(A=[[-1.0, 0.0, 0.0], [0.0, 0.0, 1.0],
                         [0.0, -w0 ** 2, -2.0 * zeta * w0]],
                      B=[[1.0], [0.0], [1.0]], C=[[1.0, -k, 0.0]])


def above_grid_plant(w1=3e4, zeta=1e-4, k=100.0):
    """R(s) = 1/(s+1) - k/(s^2 + 2 zeta w1 s + w1^2) in a balanced modal
    realization: the resonance block [[s, w], [-w, s]] (s = -zeta w1,
    w = w1 sqrt(1 - zeta^2)) with input and output weights of equal size,
    sqrt(k / w)."""
    s, w = -zeta * w1, w1 * np.sqrt(1.0 - zeta ** 2)
    g = np.sqrt(k / w)
    return StateSpace(A=[[-1.0, 0.0, 0.0], [0.0, s, w], [0.0, -w, s]],
                      B=[[1.0], [0.0], [g]], C=[[1.0, -g, 0.0]])


def three_lags(dip):
    """Lags ``c b/(s + b)`` peak at ``w = b`` with ``j(R - R*) = c``: at
    ``w = 10`` the lags at 1 and 100 give 20/101 each, and the one at 10
    takes ``40/101 - dip`` away.  The plant is symmetric in ``log w``
    about 10, so ``j(R - R*)`` has its local minimum, ``dip``, there."""
    c2 = 40.0 / 101.0 - dip
    return StateSpace(A=np.diag([-1.0, -10.0, -100.0]), B=np.ones((3, 1)),
                      C=[[1.0, -10.0 * c2, 100.0]])


def bracket(candidates, w0):
    """The candidates next below and above ``w0``."""
    return candidates[candidates < w0].max(), candidates[candidates > w0].min()


def margin_at(sys, w):
    R = eval_tf(sys, 1j * w)
    return float(np.linalg.eigvalsh(1j * (R - R.conj().T))[0])


class TestBatchedSweep:
    """The one stacked evaluation of ``classify_freq`` at its decision
    points gives the verdict, worst frequency and worst margin of the
    per-point loop over the same points, bit for bit."""

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
        # one modal call per verdict holds every decision point; the SSNI
        # limits are exact and evaluate no transfer function
        assert not verdicts[2].holds
        assert calls == [int(v.notes[1].rsplit(" ", 1)[1]) for v in verdicts]

    def test_64_state_robust_loop(self):
        rng = np.random.default_rng(66)
        sys, _ = planted_system(rng, 1, 2, 34, 25)
        res = robust_stabilize(UncertainSystem(plant=sys, gamma=1.0))
        assert assert_sweep_matches(res.nominal_closed, "ni").holds

    def test_points_at_a_pole_are_skipped(self):
        # R(s) = 1/(s^2 + 1): the pole frequency 1 is a break, not a
        # decision point, and the intervals on either side get points;
        # the residue check decides the pole itself
        sys = StateSpace(A=[[0.0, 1.0], [-1.0, 0.0]], B=[[0.0], [1.0]],
                         C=[[1.0, 0.0]])
        verdict = assert_sweep_matches(sys, "ni")
        assert verdict.holds
        assert any(note.startswith("residue at j*1: PSD")
                   for note in verdict.notes)
        _, omegas = decided(sys, "ni")
        assert 1.0 not in omegas
        assert omegas.min() < 1.0 < omegas.max()

    def test_resonance_between_grid_points_rejected(self):
        # the old 400-point grid on [1e-4, 1e4] missed a resonance between
        # its points 200 and 201 and said the plant holds
        grid = np.logspace(-4.0, 4.0, 400)
        w0 = float(np.sqrt(grid[200] * grid[201]))
        sys = resonance_plant(w0)
        assert margin_at(sys, w0) < -1.0
        verdict = assert_sweep_matches(sys, "ni")
        assert not verdict.holds
        assert verdict.worst_margin < -1.0
        # two crossings bracket w0, and the point between them decides
        lo, hi = bracket(listed_candidates(verdict), w0)
        assert hi - lo < 1e-2
        assert lo <= verdict.worst_omega <= hi


class TestGridFalsePositives:
    """Plants the old sampling grid accepted although they are not NI;
    the decision points reject both."""

    def test_resonance_plant_of_every_bench_round(self):
        # the benchmark's resonance op: w0 between adjacent grid points,
        # 70 values over [1.32, 31.9]
        grid = np.logspace(-4.0, 4.0, 400)
        for k in range(205, 275):
            w0 = float(np.sqrt(grid[k] * grid[k + 1]))
            sys = resonance_plant(w0)
            assert margin_at(sys, w0) < -0.03
            verdict = classify_freq(sys, "ni")
            assert not verdict.holds
            assert abs(verdict.worst_omega - w0) <= 1e-3 * w0

    def test_resonance_above_the_grid(self):
        # w1 = 3e4 lies above the old grid's 1e4
        sys = above_grid_plant()
        assert sys.a_norm < 1e5
        assert np.isclose(margin_at(sys, 3e4), -1.04e-3, rtol=0.01)
        verdict = assert_sweep_matches(sys, "ni")
        assert not verdict.holds
        assert verdict.worst_margin < -1e-3
        lo, hi = bracket(listed_candidates(verdict), 3e4)
        assert 29980 < lo < 3e4 < hi < 30020
        assert lo <= verdict.worst_omega <= hi

    def test_damped_copies_pass(self):
        # the same plants with a resonance too weak to break the NI
        # inequality, k = 0 (a first-order lag) and a well-damped mode
        assert classify_freq(resonance_plant(1.047, k=0.0), "ni").holds
        assert classify_freq(above_grid_plant(k=1e-9), "ni").holds


#: the dense oracle's log-spaced frequencies
DENSE_OMEGAS = np.logspace(-5.0, 5.0, 4000)


def dense_oracle(sys, ni_class, eps=None, extra=()):
    """Test-only verdict, independent of ``classify_freq``: the class
    matrix from ``C (jw I - A)^{-1} B + D`` by stacked solves at
    ``DENSE_OMEGAS``, every pole frequency ``|Im lambda|`` and the
    frequencies ``extra``, against the class floor; SSNI adds its two
    frequency limits from explicit inverses.  Points within 1e-6 relative of a pole are skipped.
    Returns ``(holds, smallest margin)``."""
    A, B, C, D = sys.A, sys.B, sys.C, sys.D
    n = A.shape[0]
    poles = np.linalg.eigvals(A)
    w = np.concatenate([DENSE_OMEGAS, np.abs(poles.imag[poles.imag > 0]),
                        extra])
    dist = np.abs(1j * w[:, None] - poles[None, :])
    w = w[np.all(dist >= 1e-6 * (1.0 + np.abs(poles)), axis=1)]
    R = C @ np.linalg.solve(1j * w[:, None, None] * np.eye(n) - A,
                            B.astype(complex)) + D
    RH = R.conj().transpose(0, 2, 1)
    M = 1j * (R - RH)
    if ni_class == "osni":
        w2 = (w ** 2)[:, None, None]
        M = w[:, None, None] * M - eps * w2 * ((RH - D.T) @ (R - D))
    margin = float(np.linalg.eigvalsh((M + M.conj().transpose(0, 2, 1))
                                      / 2.0)[:, 0].min())
    floor = -1e-8 if ni_class in ("ni", "osni") else 1e-10
    holds = margin >= floor
    if ni_class == "ssni":
        CB = C @ B
        Ai = np.linalg.inv(A)
        X = C @ Ai @ Ai @ B
        holds = holds and np.linalg.eigvalsh(CB + CB.T)[0] > floor \
            and np.linalg.eigvalsh(X + X.T)[0] > floor
    return holds, margin


class TestDenseOracle:
    """``classify_freq`` agrees with a 4 000-point oracle on seeded planted
    closed loops, each also negated, ``-R``, and in parallel with a narrow
    resonance ``-0.01 w0^2 I / (s^2 + 2e-4 w0 s + w0^2)``, whose
    ``j(R - R*)`` at ``w0`` is ``-100 I``; both break the class."""

    @staticmethod
    def variants(sys, w0):
        p = sys.n_outputs
        A_r = np.kron(np.eye(p), [[0.0, 1.0], [-w0 ** 2, -2e-4 * w0]])
        B_r = np.kron(np.eye(p), [[0.0], [1.0]])
        C_r = np.kron(np.eye(p), [[-0.01 * w0 ** 2, 0.0]])
        resonant = StateSpace(
            A=np.block([[sys.A, np.zeros((sys.n, 2 * p))],
                        [np.zeros((2 * p, sys.n)), A_r]]),
            B=np.vstack([sys.B, B_r]), C=np.hstack([sys.C, C_r]))
        return sys, StateSpace(A=sys.A, B=sys.B, C=-sys.C), resonant

    def assert_agrees(self, loops, ni_class, eps_of=lambda g: None):
        rng = np.random.default_rng(len(loops))
        outcomes = []
        for gains in loops:
            w0 = float(rng.uniform(0.1, 100.0))
            for sys in self.variants(gains.closed_loop, w0):
                eps = eps_of(gains)
                expected, margin = dense_oracle(sys, ni_class, eps)
                verdict = classify_freq(sys, ni_class, eps=eps)
                assert verdict.holds == expected, (ni_class, margin,
                                                   verdict)
                outcomes.append(expected)
        # the planted loops hold and both of their variants fail
        assert outcomes[0::3] == [True] * len(loops)
        assert not any(outcomes[1::3] + outcomes[2::3])

    def test_ni(self):
        rng = np.random.default_rng(71)
        self.assert_agrees(_closed_loops(
            rng, 8, lambda r: random_shape(r, 3, 8), synthesize_ni), "ni")

    def test_osni(self):
        rng = np.random.default_rng(72)

        def shape(r):
            while True:
                p1, p2, m_a, m_b = random_shape(r, 3, 8)
                if p1 > 0 and p2 <= p1:
                    return p1, p2, m_a, m_b

        self.assert_agrees(_closed_loops(rng, 6, shape, synthesize_osni),
                           "osni", lambda g: g.epsilon)

    def test_ssni(self):
        rng = np.random.default_rng(73)
        self.assert_agrees(_closed_loops(
            rng, 6,
            lambda r: random_shape(r, 3, 8, force_p2=0, force_ma=0),
            synthesize_ssni), "ssni")


def forbidden_pole_loop(sys, ni_class):
    """The per-pole loop ``_forbidden_pole`` ran, kept as its reference."""
    tol = sys.spectrum.axis_tol
    for lam in sys.poles():
        if ni_class != "ni":
            if lam.real > -tol:
                return complex(lam), "pole in the closed right half-plane"
        elif lam.real > tol:
            return complex(lam), "pole in the open right half-plane"
        elif abs(lam) <= tol:
            return complex(lam), "pole at the origin"
    return None, None


def axis_pole_frequencies_loop(sys):
    """The per-pole loop of ``_imaginary_axis_poles``' frequencies, kept
    as its reference: a frequency within the tolerance of a kept one is a
    repeat."""
    tol = sys.spectrum.axis_tol
    out = []
    for lam in sys.poles():
        if abs(lam.real) <= tol and lam.imag > tol:
            if not any(abs(lam.imag - w) <= tol for w in out):
                out.append(float(lam.imag))
    return out


class TestPoleMasks:
    """The pole conditions read ``EigenResult`` masks; on every spectrum
    here they give what the per-pole loops gave, bit for bit."""

    @staticmethod
    def spectra():
        rot = lambda re, w: np.array([[re, w], [-w, re]])  # noqa: E731
        rng = np.random.default_rng(17)
        blocks = [
            [rot(0.0, 1.0), rot(0.0, 1.0), [[-1.0]]],  # a repeated axis pair
            [rot(-5e-9, 2.0), rot(5e-9, 3.0), [[0.0]]],  # near-axis, origin
            [rot(-2.0, 1e-9), [[-1e-9]], [[3.0]]],  # split real, at origin
            [rot(1e-3, 0.5), rot(0.0, 0.25), [[-4.0]]],  # a right-half pair
            [random_hurwitz(rng, 6)],
            [rng.standard_normal((5, 5))],
        ]
        for blk in blocks:
            n = sum(len(b) for b in blk)
            A = np.zeros((n, n))
            k = 0
            for b in blk:
                A[k:k + len(b), k:k + len(b)] = b
                k += len(b)
            T = well_conditioned(rng, n)
            yield StateSpace(A=np.linalg.solve(T, A) @ T, B=np.ones((n, 1)),
                             C=np.ones((1, n)))

    def test_forbidden_pole(self):
        for sys in self.spectra():
            for ni_class in certify.NI_CLASSES:
                assert certify._forbidden_pole(sys, ni_class) == \
                    forbidden_pole_loop(sys, ni_class)

    def test_imaginary_axis_pole_frequencies(self):
        found = 0
        for sys in self.spectra():
            w = sys.spectrum.values.imag[certify._imaginary_axis_poles(sys)]
            want = axis_pole_frequencies_loop(sys)
            assert w.tolist() == want
            found += len(want)
        assert found >= 4


def residue_at(sys, w):
    """``certify._residue`` at the axis pole ``j w``, indexed as
    ``classify_freq`` indexes it."""
    res = sys.spectrum
    ks = [k for k in certify._imaginary_axis_poles(sys)
          if abs(res.values[k].imag - w) <= 1e-9 * w]
    assert len(ks) == 1 and res.algebraic[ks[0]] == 1
    return certify._residue(sys, ks[0])


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
        K0, defect, psd = residue_at(self.oscillator("position"), 1.0)
        assert psd and defect <= 1e-12
        assert np.allclose(K0, [[0.5]], atol=1e-12)

    def test_velocity_numerator_not_hermitian(self):
        # partial fractions: s/(s^2+1) = (1/2)(1/(s-j) + 1/(s+j)), so the
        # residue matrix is j/2: non-Hermitian, and the PSD check fails
        # (consistent with s/(s^2+1) failing the sign condition at w < 1)
        _, defect, psd = residue_at(self.oscillator("velocity"), 1.0)
        assert not psd
        assert np.isclose(defect, 1.0)

    def test_double_pole_flagged(self):
        R = np.array([[0.0, 1.0], [-1.0, 0.0]])
        A = np.block([[R, np.eye(2)], [np.zeros((2, 2)), R]])
        sys = StateSpace(A=A, B=[[0.0], [0.0], [0.0], [1.0]],
                         C=[[1.0, 0.0, 0.0, 0.0]])
        (k,) = certify._imaginary_axis_poles(sys)
        assert sys.spectrum.algebraic[k] == 2
        verdict = classify_freq(sys, "ni")
        assert not verdict.holds
        assert "pole at j*1 is not simple" in verdict.notes
        assert not any(n.startswith("residue at") for n in verdict.notes)

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
            K0, defect, psd = residue_at(StateSpace(A=A, B=B, C=C), w)
            assert psd
            assert defect <= 1e-8 * max(1.0, np.linalg.norm(K0, 2))
            assert np.allclose(K0, psi @ psi.T / 2.0, atol=1e-9)

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
            K0, defect, psd = residue_at(sys, w)
            ref = self.transposed_eig_residue(sys, w)
            assert psd and defect <= 1e-12
            assert sum(n.startswith(f"residue at j*{w:g}: PSD, defect")
                       for n in verdict.notes) == 1
            assert np.linalg.norm(K0 - ref, 2) <= \
                1e-12 * np.linalg.norm(ref, 2)
            assert np.allclose(K0, np.outer(psi[i], psi[i]) / 2.0,
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
        K0, defect, psd = residue_at(sys, 2.0)
        assert psd and defect <= 1e-12 and calls == [1]
        assert np.allclose(K0, self.transposed_eig_residue(sys, 2.0),
                           rtol=0, atol=1e-12)
        assert np.allclose(K0, [[0.5]], atol=1e-12)


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

    @pytest.mark.parametrize("d, holds", [(4e-9, True), (6e-9, False)])
    def test_one_feedthrough_symmetry_rule(self, d, holds):
        # ||D - D^T||_2 = 2 d: the two routes read one absolute rule,
        # 1e-8; the certificate route used to fail 4e-9 at 1e-10 (1 + ||D||)
        sys = StateSpace(A=-np.eye(2), B=np.eye(2), C=np.eye(2),
                         D=[[0.0, d], [-d, 0.0]])
        assert classify_freq(sys, "ni").holds is holds
        verdict, _ = verify_certificate(sys, "ni", np.eye(2))
        assert verdict.holds is holds
        assert ("feedthrough matrix is not symmetric" in verdict.notes) \
            is not holds

    def test_lossless_rotation_fails_ssni(self):
        # R(s) = 1/(s^2 + 1) with Y = I: B + A Y C^T = 0, so the NI
        # certificate holds, but A Y + Y A^T = 0 is not negative definite
        sys = StateSpace(A=[[0.0, 1.0], [-1.0, 0.0]], B=[[0.0], [1.0]],
                         C=[[1.0, 0.0]])
        assert verify_certificate(sys, "ni", np.eye(2))[0].holds
        verdict, _ = verify_certificate(sys, "ssni", np.eye(2))
        assert not verdict.holds
        assert verdict.notes == ("A Y + Y A^T is not negative definite "
                                 "(lambda_max 0.000e+00)",)

    def test_one_scale_invariant_pd_rule(self):
        # Y = 1e-16 I is positive definite for definiteness, and the
        # certificate route reads the same rule; it used to add an
        # absolute 1 to the scale and reject Y
        sys = StateSpace(A=-np.eye(2), B=1e-16 * np.eye(2), C=np.eye(2))
        Y = 1e-16 * np.eye(2)
        assert classify_freq(sys, "ni").holds
        assert linalg.definiteness(Y, "pd")
        verdict, cert = verify_certificate(sys, "ni", Y)
        assert verdict.holds, verdict.notes
        assert cert.pd_margin == 1e-16

    def test_sni_not_supported(self):
        with pytest.raises(InputError):
            verify_certificate(first_order_lag(), "sni", [[1.0]])
