import numpy as np
import pytest

from nisynth import StateSpace, UncertainSystem, eval_tf, linalg, synth
from nisynth.certify import classify_freq, verify_certificate
from nisynth.errors import (
    AsymmetricMatrixError,
    DcGainConditionError,
    InputError,
    NoRdLeqTwoError,
    NotControllableError,
    NotMinimumPhaseError,
    NotWeaklyMinimumPhaseError,
    NumericalError,
    RelativeDegreeNotOneError,
    RetryExhaustedError,
    UnsupportedShapeError,
    VerdictError,
)
from nisynth.statespace import is_minimal
from nisynth.structure import (
    find_output_transformation,
    split_zero_dynamics,
    to_normal_form,
)
from nisynth.synth import (
    OSNI_EPS_MAX,
    SynthesisConfig,
    compose_full_gain,
    original_coordinates_certificate,
    robust_stabilize,
    synthesize_ni,
    synthesize_osni,
    synthesize_ssni,
)

from gen import (
    assemble_normal_realization,
    edge_blocks,
    feedthrough_plant,
    normal_form_from_blocks,
    planted_normal_blocks,
    planted_system,
    random_shape,
    uncontrollable_plant,
    zero_at_origin,
)


@pytest.fixture(scope="module")
def demo_nf(demo_plant, demo_transforms):
    return to_normal_form(demo_plant, demo_transforms["T_y"],
                          T_x=demo_transforms["T_x"],
                          T_u=demo_transforms["T_u"])


def demo_config(**overrides):
    base = dict(Y2=0.25, Y3=0.25, Y1b=1.0, H=1.0, K13=1.0)
    base.update(overrides)
    return SynthesisConfig(**base)


class TestSynthesizeNi:
    def test_demo_gains(self, demo_nf):
        g = synthesize_ni(demo_nf, demo_config())
        assert np.allclose(g.K10, [[1.0]], atol=1e-12)
        assert np.allclose(g.K11, [[-6.0]], atol=1e-12)
        assert np.allclose(g.K12, [[-2.0]], atol=1e-12)
        assert np.allclose(g.K20, [[4.0]], atol=1e-12)
        assert np.allclose(g.K21, [[-8.0]], atol=1e-12)
        assert np.allclose(g.K22, [[-12.0]], atol=1e-12)
        assert np.allclose(g.K23, [[-0.5]], atol=1e-12)
        assert g.verdict.holds

    def test_demo_normal_coordinate_gain(self, demo_nf):
        g = synthesize_ni(demo_nf, demo_config())
        assert np.allclose(g.K_tilde,
                           [[0.0, -6.0, -3.0, 2.0], [3.0, -7.0, -13.0, -1.5]],
                           atol=1e-12)

    def test_no_internal_dynamics(self):
        rng = np.random.default_rng(103)
        blk = planted_normal_blocks(rng, 1, 0, 0, 0)
        nf = normal_form_from_blocks(blk, 1, 0, 0)
        g = synthesize_ni(nf, SynthesisConfig(Y2=0.5))
        assert np.allclose(g.K11, [[-2.0]])
        assert np.allclose(g.closed_loop.A, [[-2.0]])
        assert g.verdict.holds

    def test_unstable_zero_dynamics_rejected(self):
        rng = np.random.default_rng(107)
        blk = planted_normal_blocks(rng, 1, 1, 0, 1)
        blk["A00"] = np.array([[0.5]])
        nf = normal_form_from_blocks(blk, 1, 1, 1)
        with pytest.raises(NotWeaklyMinimumPhaseError):
            synthesize_ni(nf)

    def test_uncontrollable_rejected(self):
        rng = np.random.default_rng(109)
        blk = planted_normal_blocks(rng, 1, 0, 0, 1)
        blk["A01"] = np.zeros((1, 1))
        nf = normal_form_from_blocks(blk, 1, 0, 1)
        with pytest.raises(NotControllableError):
            synthesize_ni(nf)

    def test_uncontrollable_names_both_pairs_when_p2_is_positive(self):
        rng = np.random.default_rng(110)
        blk = planted_normal_blocks(rng, 1, 1, 0, 1)
        blk["A01"] = np.zeros((1, 1))
        blk["A02"] = -blk["A00"] @ blk["A03"]
        nf = normal_form_from_blocks(blk, 1, 1, 1)
        with pytest.raises(NotControllableError) as exc:
            synthesize_ni(nf)
        assert str(exc.value).endswith(
            "neither (A00, A01) nor (A00, A00 A03 + A02) is controllable")

    def test_retry_exhausted_with_fixed_blockers(self, demo_nf):
        # with Y1b = 4 (so Qb = 8), K13 H = 2 zeroes K10 from inside the
        # admissible sets, defeating the required observability target
        cfg = demo_config(Y1b=4.0, H=2.0, K13=1.0)
        with pytest.raises(RetryExhaustedError) as exc:
            synthesize_ni(demo_nf, cfg)
        assert exc.value.witness is not None

    def test_asymmetric_y2_is_named(self):
        sys, _ = planted_system(np.random.default_rng(181), 2, 0, 0, 2)
        nf = to_normal_form(sys, np.eye(2))
        with pytest.raises(AsymmetricMatrixError, match="^Y2 "):
            synthesize_ni(nf, SynthesisConfig(Y2=[[1.0, 0.5], [0.0, 1.0]]))

    def test_empty_second_pair_takes_no_rank_test(self, monkeypatch):
        # with p2 = 0 the pair (A00, A00 A03 + A02) has no columns and
        # would fail the PBH rank test at every eigenvalue; it is not run
        sys, _ = planted_system(np.random.default_rng(179), 2, 0, 0, 4)
        nf = to_normal_form(sys, np.eye(2))
        nf.zero_spectrum
        calls = []
        rank = linalg.rank

        def counting_rank(*args, **kwargs):
            calls.append(args)
            return rank(*args, **kwargs)

        monkeypatch.setattr(linalg, "rank", counting_rank)
        g = synthesize_ni(nf)
        assert g.verdict.holds
        assert calls == []

    @pytest.mark.parametrize("synthesize, shape, draws", [
        (synthesize_ni, (2, 0, 0, 3), 0),
        (synthesize_ssni, (2, 0, 0, 3), 0),
        (synthesize_ni, (1, 1, 0, 2), 1),
    ], ids=["synthesize_ni", "synthesize_ssni", "synthesize_ni-drawn"])
    def test_draws_once_and_raises_at_first_failure(self, monkeypatch,
                                                    synthesize, shape,
                                                    draws):
        # H and K13 are drawn once each (with p2 = 0 they are empty and
        # not drawn), so a failing observability test ends the synthesis
        sys, _ = planted_system(np.random.default_rng(173), *shape)
        nf = to_normal_form(sys)
        observable, drawn = [], []
        pbh_witness = linalg.pbh_witness

        def failing(A, M, mode, spectrum):
            if mode == "observable":
                observable.append(M)
                return complex(spectrum.values[0])
            return pbh_witness(A, M, mode, spectrum)

        def counting(draw):
            return lambda *args: drawn.append(draw.__name__) or draw(*args)

        monkeypatch.setattr(linalg, "pbh_witness", failing)
        monkeypatch.setattr(synth, "_draw_h", counting(synth._draw_h))
        monkeypatch.setattr(synth, "_draw_k13", counting(synth._draw_k13))
        with pytest.raises(RetryExhaustedError) as exc:
            synthesize(nf)
        assert len(observable) == 1
        assert drawn == ["_draw_h", "_draw_k13"] * draws
        assert exc.value.witness == complex(nf.zero_spectrum.values[0])

    def test_inadmissible_h_rejected(self, demo_nf):
        with pytest.raises(InputError):
            synthesize_ni(demo_nf, demo_config(H=2.0))  # H^T H = 4 > Qb = 2

    def test_inadmissible_k13_rejected(self, demo_nf):
        with pytest.raises(InputError):
            synthesize_ni(demo_nf, demo_config(K13=2.0))  # K13 K13^T = 4 > 2

    def test_determinism(self, demo_nf):
        cfg = SynthesisConfig(rng_seed=7)
        g1 = synthesize_ni(demo_nf, cfg)
        g2 = synthesize_ni(demo_nf, cfg)
        assert np.array_equal(g1.K_tilde, g2.K_tilde)
        assert g1.free_parameters == g2.free_parameters

    def test_dc_gain_formula(self, demo_nf):
        # transfer function of the normal-coordinates loop at s = 0 equals
        # diag(Y2, Y3)
        rng = np.random.default_rng(113)
        for seed in range(5):
            y2 = float(rng.uniform(0.2, 2.0))
            y3 = float(rng.uniform(0.2, 2.0))
            g = synthesize_ni(demo_nf, SynthesisConfig(Y2=y2, Y3=y3,
                                                       rng_seed=seed))
            R0 = np.real(eval_tf(g.closed_loop, 0.0))
            assert np.allclose(R0, np.diag([y2, y3]), atol=1e-8)

    def test_round_trip_on_planted_systems(self):
        # emitted certificates verify and the frequency route agrees
        rng = np.random.default_rng(127)
        done = 0
        while done < 50:
            p1, p2, m_a, m_b = random_shape(rng, max_p=3, max_n=8)
            sys, _ = planted_system(rng, p1, p2, m_a, m_b)
            T_y, _ = find_output_transformation(sys)
            nf = to_normal_form(sys, T_y)
            g = synthesize_ni(nf, SynthesisConfig(rng_seed=done))
            # the normal-form certificate, scaled by its own loop
            _, cert = verify_certificate(g.closed_loop, "ni", g.Y)
            scale = 1.0 + np.linalg.norm(g.closed_loop.B, 2) + \
                np.linalg.norm(g.closed_loop.A, 2) * np.linalg.norm(g.Y, 2) \
                * np.linalg.norm(g.closed_loop.C, 2)
            assert cert.coupling_residual <= 1e-9 * scale
            assert cert.pd_margin > 0
            assert is_minimal(g.closed_loop).minimal
            smin = np.linalg.svd(g.closed_loop.A, compute_uv=False)[-1]
            assert smin > 1e-10 * np.linalg.norm(g.closed_loop.A, 2)
            assert classify_freq(g.closed_loop, "ni").holds
            done += 1

    def test_each_matrix_decomposed_once(self, monkeypatch):
        rng = np.random.default_rng(167)
        blk = planted_normal_blocks(rng, 1, 1, 2, 3)
        nf = normal_form_from_blocks(blk, 1, 1, 5)
        calls = []
        eig = linalg.eig

        def recording_eig(A):
            calls.append(np.array(A, dtype=float))
            return eig(A)

        monkeypatch.setattr(linalg, "eig", recording_eig)
        g = synthesize_ni(nf)
        assert (g.split.m_a, g.split.m_b) == (2, 3)
        # the split and the PBH tests share one eig(A00); the split's
        # block-diagonal A00 and A00^T are never decomposed
        for M, count in ((nf.A00, 1), (nf.A00.T, 0), (g.split.A00, 0)):
            assert sum(np.array_equal(A, M) for A in calls) == count

        # a robust op on a plant of that shape decomposes A00 and the
        # closed-loop A: the zero dynamics' PBH screen proves the plant
        # minimal, so its A is not decomposed; the split's blocks take
        # their eigenvectors from eig(A00), and S, T_hat T_x and the
        # block-diagonal A00 are not LU-inverted, their factors' inverses
        # being at hand
        drawn, _ = planted_system(np.random.default_rng(167), 1, 1, 2, 3)
        plant = StateSpace(A=drawn.A, B=drawn.B, C=drawn.C)
        calls.clear()
        inverted = []
        inv = np.linalg.inv

        def recording_inv(M):
            inverted.append(np.array(M))
            return inv(M)

        monkeypatch.setattr(np.linalg, "inv", recording_inv)
        res = robust_stabilize(plant)
        g = res.gains
        nf, split = g.normal_form, g.split
        assert (split.m_a, split.m_b) == (2, 3)
        assert nf.screened_minimal
        assert len(calls) == 2
        for M in (nf.A00, res.nominal_closed.A):
            assert sum(np.array_equal(A, M) for A in calls) == 1
        assert not any(np.array_equal(A, plant.A) for A in calls)
        for M in (split.A00a, split.A00a.T, split.A00b, split.A00b.T):
            assert not any(np.array_equal(A, M) for A in calls)
        n, m = nf.n, nf.m
        T_hat = np.eye(n)
        T_hat[:m, :m] = split.S
        for M in (split.S, T_hat @ nf.transforms.T_x, split.A00):
            assert not any(A.shape == M.shape and np.allclose(A, M, rtol=1e-12)
                           for A in inverted)


class TestSynthesizeOsni:
    def test_pinned_non_orthonormal_k13_rejected(self, demo_nf):
        # K13 K13^T = 0.25 <= 2 is admissible for NI, but OSNI needs
        # K13^T K13 = I (H = 0 passes the shrunk H bound)
        cfg = demo_config(K13=0.5, H=0.0)
        synthesize_ni(demo_nf, cfg)
        with pytest.raises(InputError, match="orthonormal columns"):
            synthesize_osni(demo_nf, cfg)

    def test_demo_shape_boundary(self, demo_nf):
        g = synthesize_osni(demo_nf, SynthesisConfig())
        assert np.isclose(g.epsilon, OSNI_EPS_MAX)
        # at the maximal level the admissible H collapses to zero and the
        # certificate touches the boundary
        assert np.allclose(np.asarray(g.free_parameters["H"]), 0.0)
        assert abs(g.certificate.lyap_residual) <= 1e-9
        assert g.verdict.holds

    def test_below_boundary_keeps_h(self, demo_nf):
        g = synthesize_osni(demo_nf, SynthesisConfig(epsilon=0.2))
        assert np.isclose(g.epsilon, 0.2)
        assert g.verdict.holds
        v, _ = verify_certificate(g.closed_loop, "osni", g.Y, 0.2)
        assert v.holds

    def test_just_below_boundary(self, demo_nf):
        # 0.38 sits just under the maximal level; the admissible H is tiny
        # but the certificate still holds exactly at the requested level
        g = synthesize_osni(demo_nf, SynthesisConfig(epsilon=0.38))
        assert np.isclose(g.epsilon, 0.38)
        assert g.verdict.holds
        v, _ = verify_certificate(g.closed_loop, "osni", g.Y, 0.38)
        assert v.holds

    def test_epsilon_clamped(self, demo_nf):
        g = synthesize_osni(demo_nf, SynthesisConfig(epsilon=0.5))
        assert np.isclose(g.epsilon, OSNI_EPS_MAX)
        assert g.free_parameters.get("epsilon_clamped")

    def test_osni_implies_ni_with_same_certificate(self, demo_nf):
        g = synthesize_osni(demo_nf, SynthesisConfig(epsilon=0.3))
        v, _ = verify_certificate(g.closed_loop, "ni", g.Y)
        assert v.holds
        assert classify_freq(g.closed_loop, "osni", eps=g.epsilon).holds

    def test_unsupported_shapes(self):
        rng = np.random.default_rng(131)
        blk = planted_normal_blocks(rng, 0, 1, 0, 1)
        nf = normal_form_from_blocks(blk, 0, 1, 1)
        with pytest.raises(UnsupportedShapeError):
            synthesize_osni(nf)
        blk = planted_normal_blocks(rng, 1, 2, 0, 1)
        nf = normal_form_from_blocks(blk, 1, 2, 1)
        with pytest.raises(UnsupportedShapeError):
            synthesize_osni(nf)

    def test_round_trip_on_planted_systems(self):
        rng = np.random.default_rng(137)
        done = 0
        while done < 50:
            p1, p2, m_a, m_b = random_shape(rng, max_p=3, max_n=8)
            if p2 > p1:
                continue
            sys, _ = planted_system(rng, p1, p2, m_a, m_b)
            T_y, _ = find_output_transformation(sys)
            nf = to_normal_form(sys, T_y)
            eps = float(rng.uniform(0.05, OSNI_EPS_MAX))
            g = synthesize_osni(nf, SynthesisConfig(rng_seed=done,
                                                    epsilon=eps))
            assert g.verdict.holds
            assert classify_freq(g.closed_loop, "osni", eps=g.epsilon).holds
            # output strictness subsumes plain membership with the same Y
            v_ni, _ = verify_certificate(g.closed_loop, "ni", g.Y)
            assert v_ni.holds
            done += 1


class TestSynthesizeSsni:
    def scalar_blocks(self, a01=1.0):
        rng = np.random.default_rng(139)
        blk = planted_normal_blocks(rng, 1, 0, 0, 1)
        blk["A00"] = np.array([[-1.0]])
        blk["A01"] = np.array([[a01]])
        return blk

    def test_scalar_example_formula_oracle(self):
        # direct algebra with Y1 = 1, Y2 = 1: K1 = 1, K2 = -2, closed-loop
        # eigenvalues (-3 +- sqrt 5)/2, certificate strict
        A00, A01, Y1, Y2 = -1.0, 1.0, 1.0, 1.0
        K1 = -A01 * (1.0 / A00) * (1.0 / Y1)
        K2 = K1 * (1.0 / A00) * A01 - 1.0 / Y2
        assert K1 == 1.0 and K2 == -2.0
        A = np.array([[A00, A01], [K1, K2]])
        assert np.allclose(np.sort(np.linalg.eigvals(A).real),
                           [(-3 - np.sqrt(5)) / 2, (-3 + np.sqrt(5)) / 2])
        Y = np.array([[Y1 + 1.0, -(-1.0)], [1.0, 1.0]])
        v, _ = verify_certificate(
            StateSpace(A=A, B=[[0.0], [1.0]], C=[[0.0, 1.0]]), "ssni", Y)
        assert v.holds

    @staticmethod
    def paper_k1(nf, q):
        """The paper's K1 = -A01^T A00^-T Y1^-1 and its Y1, solving
        A00 Y1 + Y1 A00^T = -(q I + A00^-1 A01 A01^T A00^-T / 2) in
        Kronecker form."""
        A00, A01, m = nf.A00, nf.A01, nf.m
        iA00 = np.linalg.inv(A00)
        Q = q * np.eye(m) + 0.5 * iA00 @ A01 @ A01.T @ iA00.T
        L = np.kron(np.eye(m), A00) + np.kron(A00, np.eye(m))
        Y1 = np.linalg.solve(L, -Q.reshape(-1)).reshape(m, m)
        Y1 = (Y1 + Y1.T) / 2.0
        return -A01.T @ iA00.T @ np.linalg.inv(Y1), Y1

    def test_gains_match_the_paper_formulas(self):
        # K1 with Qb = I + corr, and K2 = K1 A00^-1 A01 - Y2^-1
        rng = np.random.default_rng(167)
        for seed in range(20):
            p1, _, _, m = random_shape(rng, max_p=3, max_n=6, force_p2=0,
                                       force_ma=0)
            sys, _ = planted_system(rng, p1, 0, 0, m)
            nf = to_normal_form(sys, np.eye(p1))
            y2 = float(rng.uniform(0.2, 2.0))
            g = synthesize_ssni(nf, SynthesisConfig(Y2=y2, rng_seed=seed))
            K1, _ = self.paper_k1(nf, 1.0)
            K2 = K1 @ np.linalg.inv(nf.A00) @ nf.A01 - np.eye(p1) / y2
            for got, want in ((g.K10, K1), (g.K11, K2)):
                assert np.linalg.norm(got - want) <= \
                    1e-12 * np.linalg.norm(want)

    def test_explicit_y1b(self):
        # a Lyapunov solution for Qb = 2I + corr is taken as given
        sys, _ = planted_system(np.random.default_rng(191), 2, 0, 0, 3)
        nf = to_normal_form(sys, np.eye(2))
        K1, Y1 = self.paper_k1(nf, 2.0)
        g = synthesize_ssni(nf, SynthesisConfig(Y1b=Y1))
        assert np.linalg.norm(g.K10 - K1) <= 1e-12 * np.linalg.norm(K1)
        assert g.verdict.holds

    def test_y1b_below_the_strict_bound_rejected(self):
        # A00 = -1, A01 = 2: corr = 2 exceeds Qb = -2 A00 Y1b = 1
        nf = normal_form_from_blocks(self.scalar_blocks(a01=2.0), 1, 0, 1)
        with pytest.raises(InputError, match="- corr is not positive"):
            synthesize_ssni(nf, SynthesisConfig(Y1b=0.5))
        synthesize_ni(nf, SynthesisConfig(Y1b=0.5))

    def test_scalar_synthesis(self):
        nf = normal_form_from_blocks(self.scalar_blocks(), 1, 0, 1)
        g = synthesize_ssni(nf, SynthesisConfig(Y2=1.0))
        assert linalg.stability_class(g.closed_loop.spectrum) is \
            linalg.StabilityClass.HURWITZ
        assert g.certificate.lyap_residual < -1e-10
        R0 = np.real(eval_tf(g.closed_loop, 0.0))
        assert np.allclose(R0, [[1.0]], atol=1e-10)

    def test_marginal_zero_dynamics_rejected(self):
        rng = np.random.default_rng(149)
        blk = planted_normal_blocks(rng, 1, 0, 2, 0)
        blk["A00"] = np.array([[0.0, 1.0], [-1.0, 0.0]])
        nf = normal_form_from_blocks(blk, 1, 0, 2)
        with pytest.raises(NotMinimumPhaseError):
            synthesize_ssni(nf)

    def test_degree_two_rejected(self, demo_nf):
        with pytest.raises(RelativeDegreeNotOneError):
            synthesize_ssni(demo_nf)

    def test_no_internal_dynamics(self):
        rng = np.random.default_rng(151)
        blk = planted_normal_blocks(rng, 2, 0, 0, 0)
        nf = normal_form_from_blocks(blk, 2, 0, 0)
        g = synthesize_ssni(nf, SynthesisConfig(Y2=0.5))
        assert np.allclose(g.K11, -2.0 * np.eye(2))
        assert g.verdict.holds

    def test_uncontrollable_rejected(self):
        # p2 = 0: the message names the one pair that exists
        blk = self.scalar_blocks(a01=0.0)
        nf = normal_form_from_blocks(blk, 1, 0, 1)
        with pytest.raises(NotControllableError) as exc:
            synthesize_ssni(nf)
        assert str(exc.value) == ("the normal form is not controllable: "
                                  "(A00, A01) is not controllable")

    def test_stiff_internal_dynamics_miss_the_margin(self):
        # the Lyapunov residual is -I up to rounding, below the required
        # margin -1e-8 ||A00|| once ||A00|| exceeds 1e8.  The blocks are
        # taken literally: the plant's own PBH test calls them
        # uncontrollable, as the modes at -1e8 {1, 2, 3} are reached only
        # through O(1) couplings (pencil s_min 3e-8 to 5e-8 against rank
        # thresholds of 3e-7 to 5e-7)
        blk = edge_blocks(-1e8 * np.diag([1.0, 2.0, 3.0]))
        with pytest.raises(NotControllableError):
            to_normal_form(assemble_normal_realization(blk, 2, 0, 3))
        with pytest.raises(NumericalError, match="strict Lyapunov margin"):
            synthesize_ssni(normal_form_from_blocks(blk, 2, 0, 3))

    def test_round_trip_on_planted_systems(self):
        rng = np.random.default_rng(157)
        done = 0
        while done < 50:
            p1, p2, m_a, m_b = random_shape(rng, max_p=3, max_n=6,
                                            force_p2=0, force_ma=0)
            sys, _ = planted_system(rng, p1, 0, 0, m_b)
            nf = to_normal_form(sys, np.eye(p1))
            g = synthesize_ssni(nf, SynthesisConfig(rng_seed=done))
            assert linalg.stability_class(g.closed_loop.spectrum) is \
                linalg.StabilityClass.HURWITZ
            assert g.certificate.lyap_residual < -1e-10
            Y2 = np.asarray(g.free_parameters["Y2"])
            R0 = np.real(eval_tf(g.closed_loop, 0.0))
            assert np.allclose(R0, Y2, atol=1e-8)
            # strong-strict membership implies the strict grid test too
            assert classify_freq(g.closed_loop, "ssni").holds
            assert classify_freq(g.closed_loop, "sni").holds
            done += 1

    def test_each_matrix_decomposed_once(self, monkeypatch):
        sys, _ = planted_system(np.random.default_rng(163), 2, 0, 0, 3)
        calls = []
        eig = linalg.eig

        def recording_eig(A):
            calls.append(np.array(A, dtype=float))
            return eig(A)

        monkeypatch.setattr(linalg, "eig", recording_eig)
        nf = to_normal_form(sys, np.eye(2))
        g = synthesize_ssni(nf)
        # the normal form's controllability gate and the syntheses' Hurwitz
        # and PBH tests share one eig(A00), which proves the plant minimal
        # without an eig of its A; the plant loop's Hurwitz test,
        # verify_certificate and is_minimal share its spectrum, and the
        # normal-form loop is never decomposed
        for M, count in ((nf.A00, 1), (sys.A, 0), (g.nominal_closed.A, 1),
                         (g.closed_loop.A, 0)):
            assert sum(np.array_equal(A, M) for A in calls) == count

    def test_one_pbh_test_per_loop_mode(self, monkeypatch):
        # verify_certificate's strong-class hypothesis and is_minimal read
        # the delivered loop's cached PBH failure arrays
        sys, _ = planted_system(np.random.default_rng(5), 2, 0, 0, 3)
        nf = to_normal_form(sys, np.eye(2))
        pbh_failures = linalg.pbh_failures
        calls = []

        def recording(A, M, mode, spectrum):
            calls.append((np.array(A), mode))
            return pbh_failures(A, M, mode, spectrum)

        monkeypatch.setattr(linalg, "pbh_failures", recording)
        g = synthesize_ssni(nf)
        on_loop = sorted(mode for A, mode in calls
                         if np.array_equal(A, g.nominal_closed.A))
        assert on_loop == ["controllable", "observable"]


class TestComposeFullGain:
    def test_demo_law(self, demo_nf):
        g = synthesize_ni(demo_nf, demo_config())
        law = compose_full_gain(g)
        assert np.allclose(law.K_x,
                           [[0.0, -3.0, -1.0, -2.0], [-3.0, -6.0, 14.5, -1.5]],
                           atol=1e-12)
        assert np.allclose(law.K_v, [[1.0, 1.0], [0.0, -1.0]], atol=1e-12)
        assert np.allclose(law.K_w, [[0.0, 1.0], [0.0, -2.0]], atol=1e-12)

    def test_identity_transforms(self):
        rng = np.random.default_rng(163)
        blk = planted_normal_blocks(rng, 1, 1, 0, 2)
        nf = normal_form_from_blocks(blk, 1, 1, 2)
        g = synthesize_ni(nf, SynthesisConfig(rng_seed=1))
        law = compose_full_gain(g)
        assert np.allclose(law.K_x, g.K_tilde)
        assert np.allclose(law.K_v, np.eye(2))

    def test_original_coordinates_certificate(self, demo_nf):
        g = synthesize_ni(demo_nf, demo_config())
        closed, Y, eps = original_coordinates_certificate(g)
        assert eps is None
        # the stored objects, which the gate verified
        assert closed is g.nominal_closed and compose_full_gain(g) is g.law
        v, cert = verify_certificate(closed, "ni", Y)
        assert v.holds
        assert cert.coupling_residual <= 1e-9
        assert g.verdict == v and g.certificate.ni_class == "ni"

    def test_perturbed_law_fails_the_gate(self, demo_nf, monkeypatch):
        # the gate checks the law as delivered, not the normal-form loop
        law = synth.FeedbackLaw
        monkeypatch.setattr(synth, "FeedbackLaw",
                            lambda K_x, K_v: law(K_x=1.5 * K_x, K_v=K_v))
        with pytest.raises(NumericalError, match="plant-coordinate loop"):
            synthesize_ni(demo_nf, demo_config())


class TestRobustStabilize:
    def test_demo_pinned_parameters(self, demo_plant, demo_transforms):
        usys = UncertainSystem(plant=demo_plant, gamma=1.0)
        res = robust_stabilize(usys, demo_config(),
                               T_y=demo_transforms["T_y"],
                               T_x=demo_transforms["T_x"],
                               T_u=demo_transforms["T_u"])
        assert np.allclose(res.law.K_w, [[0.0, 1.0], [0.0, -2.0]],
                           atol=1e-12)
        assert np.isclose(res.lam_max_R0, 0.6545084971874737, atol=1e-9)
        assert res.dc_value < res.dc_bound

    def test_auto_beta_respects_gamma(self, demo_plant):
        for gamma in (1.0, 10.0):
            res = robust_stabilize(UncertainSystem(plant=demo_plant,
                                                   gamma=gamma))
            assert res.lam_max_R0 < 1.0 / gamma
            assert res.dc_value < res.dc_bound
        # gamma = 10 shrinks the DC gain tenfold
        assert res.lam_max_R0 < 0.1

    def test_forced_parameters_violating_dc_rejected(self, demo_plant):
        usys = UncertainSystem(plant=demo_plant, gamma=1.0)
        with pytest.raises(DcGainConditionError):
            robust_stabilize(usys, demo_config(Y2=1.0, Y3=1.0))

    def test_triple_integrator_propagates(self):
        plant = StateSpace(A=[[0.0, 1, 0], [0, 0, 1], [0, 0, 0]],
                           B=[[0.0], [0.0], [1.0]], C=[[1.0, 0, 0]])
        with pytest.raises(NoRdLeqTwoError):
            robust_stabilize(UncertainSystem(plant=plant, gamma=1.0))

    def test_zero_at_origin_is_a_verdict(self):
        # R(s) = s/((s+1)(s+2)) in companion form: minimal, with a zero at
        # the origin, which the zero-dynamics split decides
        plant = StateSpace(A=[[0.0, 1.0], [-2.0, -3.0]], B=[[0.0], [1.0]],
                           C=[[0.0, 1.0]])
        assert is_minimal(plant).minimal and zero_at_origin(plant)
        with pytest.raises(VerdictError,
                           match="^plant has a zero at the origin$"):
            robust_stabilize(UncertainSystem(plant=plant, gamma=1.0))
        with pytest.raises(VerdictError,
                           match="^plant has a zero at the origin$"):
            split_zero_dynamics(to_normal_form(plant))

    def test_feedthrough_rejected(self):
        # R(0) of the true loop (A + B K_x, B K_v, C + D K_x, D K_v) is not
        # the strictly proper one's: a nonzero D is input error
        with pytest.raises(InputError, match="strictly proper"):
            robust_stabilize(UncertainSystem(plant=feedthrough_plant(),
                                             gamma=0.1))

    def test_uncontrollable_plant_rejected(self):
        with pytest.raises(NotControllableError,
                           match="^plant realization is not controllable$"):
            robust_stabilize(uncontrollable_plant())

    def test_unobservable_plant_rejected(self):
        plant = StateSpace(A=np.diag([-1.0, -2.0]), B=[[1.0], [1.0]],
                           C=[[1.0, 0.0]])
        with pytest.raises(VerdictError,
                           match="^plant realization is not observable$"):
            robust_stabilize(plant)

    @pytest.mark.parametrize("plant, first, message", [
        (StateSpace(A=np.diag([-1.0, -2.0]), B=[[1.0], [0.0]],
                    C=[[1.0, 1.0]], D=[[5.0]]),
         InputError, "strictly proper"),
        # a triple integrator with an undriven mode at -1
        (StateSpace(A=[[0.0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0],
                       [0, 0, 0, -1]],
                    B=[[0.0], [0], [1], [0]], C=[[1.0, 0, 0, 1]]),
         NotControllableError, "^plant realization is not controllable$")],
        ids=["feedthrough", "degree-3"])
    def test_minimality_verdict_comes_first(self, plant, first, message):
        # neither has a normal form (D != 0; relative degree 3), and
        # neither is controllable: the plant's minimality is reported
        # before the degree verdict, and only an input error such as
        # D != 0 comes before it
        with pytest.raises(InputError):
            to_normal_form(plant, np.eye(1))
        with pytest.raises(first, match=message):
            robust_stabilize(plant)

    def test_rounding_does_not_make_h_full_rank(self):
        # C B has singular values 0.69 and 5e-16: the degree-1 rows of H
        # are dependent, and the output transformation must find it
        sys, _ = planted_system(np.random.default_rng(45), 1, 1, 0, 2)
        res = robust_stabilize(sys)
        nf = res.gains.normal_form
        assert (nf.p1, nf.p2, nf.m) == (1, 1, 2)
        assert res.gains.verdict.holds
        assert classify_freq(res.nominal_closed, "ni").holds
        v, _ = verify_certificate(res.nominal_closed, "ni", res.Y_original)
        assert v.holds, v.notes

    def test_one_pbh_test_per_system_and_mode(self, monkeypatch, demo_plant):
        # the zero dynamics' PBH screen proves the demo plant minimal, so
        # neither of the plant's pairs is tested; on a plant the screen
        # cannot clear, the T_y search and is_minimal read the plant's
        # cached failure arrays, one test per pair; no pair is tested twice
        plant = StateSpace(A=demo_plant.A, B=demo_plant.B, C=demo_plant.C)
        pbh_failures = linalg.pbh_failures
        calls = {}

        def counting(A, M, mode, spectrum):
            key = (np.asarray(A).tobytes(), np.asarray(M).tobytes(), mode)
            calls[key] = calls.get(key, 0) + 1
            return pbh_failures(A, M, mode, spectrum)

        monkeypatch.setattr(linalg, "pbh_failures", counting)
        robust_stabilize(UncertainSystem(plant=plant, gamma=1.0))
        for M, mode in ((plant.B, "controllable"), (plant.C, "observable")):
            assert (plant.A.tobytes(), M.tobytes(), mode) not in calls
        assert len(calls) >= 2 and set(calls.values()) == {1}

        calls.clear()
        plant = uncontrollable_plant()
        with pytest.raises(NotControllableError):
            robust_stabilize(UncertainSystem(plant=plant, gamma=1.0))
        assert calls == {
            (plant.A.tobytes(), plant.B.tobytes(), "controllable"): 1,
            (plant.A.tobytes(), plant.C.tobytes(), "observable"): 1}

    def test_stabilized_loop_under_sampled_uncertainty(self, demo_plant,
                                                       demo_uncertainty):
        from nisynth.statespace import interconnect_positive_feedback
        res = robust_stabilize(UncertainSystem(plant=demo_plant, gamma=1.0),
                               demo_config())
        loop = interconnect_positive_feedback(res.nominal_closed,
                                              demo_uncertainty)
        assert np.max(np.linalg.eigvals(loop.A).real) < 0


class TestOriginalCoordinatesOsni:
    def test_transformed_strictness_certifies(self, demo_nf):
        # the strictness level rescales by 1/lambda_max(T_y^-T T_y^-1)
        g = synthesize_osni(demo_nf, SynthesisConfig(epsilon=0.3))
        closed, Y, eps = original_coordinates_certificate(g)
        assert eps is not None and 0 < eps < g.epsilon
        v, cert = verify_certificate(closed, "osni", Y, eps)
        assert v.holds, v.notes
        assert classify_freq(closed, "osni", eps=eps).holds


class TestSsniComposition:
    def test_original_coordinates_stay_strongly_strict(self):
        # compose the degree-one law back through random state/input
        # transforms and re-verify the strict certificate there
        rng = np.random.default_rng(211)
        for seed in range(5):
            sys, _ = planted_system(rng, 2, 0, 0, 2)
            nf = to_normal_form(sys, np.eye(2))
            g = synthesize_ssni(nf, SynthesisConfig(rng_seed=seed))
            closed, Y, eps = original_coordinates_certificate(g)
            assert eps is None
            assert linalg.stability_class(closed.spectrum) is \
                linalg.StabilityClass.HURWITZ
            v, _ = verify_certificate(closed, "ssni", Y)
            assert v.holds, v.notes
            assert classify_freq(closed, "ssni").holds
