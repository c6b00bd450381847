import numpy as np
import pytest

from nisynth import StateSpace, UncertainSystem, eval_tf, linalg
from nisynth.certify import classify_freq, verify_certificate
from nisynth.errors import (
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
)
from nisynth.statespace import is_minimal
from nisynth.structure import find_output_transformation, to_normal_form
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
    normal_form_from_blocks,
    planted_normal_blocks,
    planted_system,
    random_shape,
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

    def test_retry_exhausted_with_fixed_blockers(self, demo_nf):
        # with Y1b = 4 (so Qb = 8), K13 H = 2 zeroes K10 from inside the
        # admissible sets, defeating the required observability target
        cfg = demo_config(Y1b=4.0, H=2.0, K13=1.0)
        with pytest.raises(RetryExhaustedError) as exc:
            synthesize_ni(demo_nf, cfg)
        assert exc.value.witness is not None

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
            scale = 1.0 + np.linalg.norm(g.closed_loop.B, 2) + \
                np.linalg.norm(g.closed_loop.A, 2) * np.linalg.norm(g.Y, 2) \
                * np.linalg.norm(g.closed_loop.C, 2)
            assert g.certificate.coupling_residual <= 1e-9 * scale
            assert g.certificate.pd_margin > 0
            assert is_minimal(g.closed_loop).minimal
            smin = np.linalg.svd(g.closed_loop.A, compute_uv=False)[-1]
            assert smin > 1e-10 * np.linalg.norm(g.closed_loop.A, 2)
            assert classify_freq(g.closed_loop, "ni").holds
            done += 1


class TestSynthesizeOsni:
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

    def test_scalar_synthesis(self):
        nf = normal_form_from_blocks(self.scalar_blocks(), 1, 0, 1)
        g = synthesize_ssni(nf, SynthesisConfig(Y2=1.0))
        assert linalg.stability_class(g.closed_loop.A) is \
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
        assert np.allclose(g.K2, -2.0 * np.eye(2))
        assert g.verdict.holds

    def test_uncontrollable_rejected(self):
        blk = self.scalar_blocks(a01=0.0)
        nf = normal_form_from_blocks(blk, 1, 0, 1)
        with pytest.raises(NotControllableError):
            synthesize_ssni(nf)

    def test_stiff_internal_dynamics_miss_the_margin(self):
        # the Lyapunov residual is -I up to rounding, below the required
        # margin -1e-8 ||A00|| once ||A00|| exceeds 1e8
        rng = np.random.default_rng(0)
        A00 = -1e8 * np.diag([1.0, 2.0, 3.0])
        A01, A10, A11 = (rng.standard_normal(shape)
                         for shape in ((3, 2), (2, 3), (2, 2)))
        sys = StateSpace(A=np.block([[A00, A01], [A10, A11]]),
                         B=np.vstack([np.zeros((3, 2)), np.eye(2)]),
                         C=np.hstack([np.zeros((2, 3)), np.eye(2)]))
        with pytest.raises(NumericalError, match="strict Lyapunov margin"):
            synthesize_ssni(to_normal_form(sys, np.eye(2)))

    def test_round_trip_on_planted_systems(self):
        rng = np.random.default_rng(157)
        done = 0
        while done < 50:
            p1, p2, m_a, m_b = random_shape(rng, max_p=3, max_n=6,
                                            force_p2=0, force_ma=0)
            sys, _ = planted_system(rng, p1, 0, 0, m_b)
            nf = to_normal_form(sys, np.eye(p1))
            g = synthesize_ssni(nf, SynthesisConfig(rng_seed=done))
            assert linalg.stability_class(g.closed_loop.A) is \
                linalg.StabilityClass.HURWITZ
            assert g.certificate.lyap_residual < -1e-10
            Y2 = np.asarray(g.free_parameters["Y2"])
            R0 = np.real(eval_tf(g.closed_loop, 0.0))
            assert np.allclose(R0, Y2, atol=1e-8)
            # strong-strict membership implies the strict grid test too
            assert classify_freq(g.closed_loop, "ssni").holds
            assert classify_freq(g.closed_loop, "sni").holds
            done += 1


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
        v, cert = verify_certificate(closed, "ni", Y)
        assert v.holds
        assert cert.coupling_residual <= 1e-9


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
            assert linalg.stability_class(closed.A) is \
                linalg.StabilityClass.HURWITZ
            v, _ = verify_certificate(closed, "ssni", Y)
            assert v.holds, v.notes
            assert classify_freq(closed, "ssni").holds
