import numpy as np
import pytest

from nisynth import linalg
from nisynth.errors import (
    AsymmetricMatrixError,
    InputError,
    NotPositiveDefiniteError,
    SingularLyapunovOperatorError,
    SpectrumError,
)
from nisynth.linalg import StabilityClass

from gen import random_hurwitz, random_skew_nonsingular


class TestEig:
    def test_rotation_generator(self):
        res = linalg.eig([[0.0, 1.0], [-1.0, 0.0]])
        assert np.allclose(sorted(res.values, key=lambda z: z.imag),
                           [-1j, 1j])

    def test_scalar(self):
        res = linalg.eig([[-1.0]])
        assert np.allclose(res.values, [-1.0])

    def test_demo_closed_loop_is_stable(self):
        A = np.array([[-1.0, 0, 1, 1], [1, -4, -1, -1], [1, -4, 0, -2],
                      [-3, -8, 12.5, -2.5]])
        res = linalg.eig(A)
        assert np.all(res.values.real < 0)

    def test_conjugate_closure_and_residual(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            A = rng.standard_normal((8, 8))
            res = linalg.eig(A)
            vals = np.sort_complex(res.values)
            assert np.allclose(vals, np.sort_complex(vals.conj()), atol=1e-9)
            residual = np.linalg.norm(
                A @ res.vectors - res.vectors @ np.diag(res.values), 2)
            assert residual <= 1e-8 * max(np.linalg.norm(A, 2), 1.0)

    def test_multiplicities(self):
        res = linalg.eig(np.eye(2))
        assert list(res.algebraic) == [2, 2] and list(res.geometric) == [2, 2]
        res = linalg.eig([[0.0, 1.0], [0.0, 0.0]])
        assert list(res.algebraic) == [2, 2] and list(res.geometric) == [1, 1]
        assert not res.semisimple

    def test_rejects_nonsquare(self):
        with pytest.raises(InputError):
            linalg.eig(np.zeros((2, 3)))


class TestRank:
    def test_singular_product(self):
        assert linalg.rank([[1.0, 0.0], [1.0, 0.0]]) == 1

    def test_zero_matrix(self):
        assert linalg.rank(np.zeros((3, 3))) == 0

    def test_identity(self):
        assert linalg.rank(np.eye(4)) == 4


class TestDefiniteness:
    def test_pd(self):
        assert linalg.definiteness(np.diag([1.0, 2.0]), "pd")

    def test_psd_but_not_pd(self):
        Z = np.zeros((2, 2))
        assert linalg.definiteness(Z, "psd")
        assert not linalg.definiteness(Z, "pd")

    def test_certificate_block_is_nsd(self):
        # negated certificate residual block for scalar parameters
        M = -np.array([[1.0, -1.0, 1.0], [-1.0, 2.0, -1.0], [1.0, -1.0, 1.0]])
        # oracle: direct eigenvalues of the 3x3
        lam = np.linalg.eigvalsh(-M)
        assert lam.min() >= -1e-12
        assert linalg.definiteness(M, "nsd")
        assert not linalg.definiteness(M, "nd")

    def test_asymmetric_rejected(self):
        with pytest.raises(AsymmetricMatrixError):
            linalg.definiteness([[1.0, 5.0], [0.0, 1.0]], "pd")


class TestSolveLyapunov:
    def test_scalar(self):
        assert np.allclose(linalg.solve_lyapunov([[-1.0]], [[2.0]]), [[1.0]])

    def test_diagonal(self):
        P = linalg.solve_lyapunov(np.diag([-1.0, -2.0]), np.eye(2))
        assert np.allclose(P, np.diag([0.5, 0.25]))

    def test_hurwitz_block_solution(self):
        # -2 y + 1 = 0 for the scalar Hurwitz-block pair
        Y1b = linalg.solve_lyapunov([[-1.0]], [[1.0]])
        assert np.allclose(Y1b, [[0.5]])

    def test_residuals_on_random_hurwitz(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            A = random_hurwitz(rng, n)
            P = linalg.solve_lyapunov(A, np.eye(n))
            assert np.linalg.norm(P - P.T, 2) <= 1e-10 * max(1.0, np.linalg.norm(P, 2))
            resid = np.linalg.norm(A.T @ P + P @ A + np.eye(n), 2)
            bound = 1e-8 * (np.linalg.norm(A, 2) * np.linalg.norm(P, 2) + 1.0)
            assert resid <= bound

    def test_singular_operator(self):
        with pytest.raises(SingularLyapunovOperatorError):
            linalg.solve_lyapunov(np.diag([1.0, -1.0]), np.eye(2))


class TestKernelPdSolution:
    def test_rotation(self):
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        P = linalg.kernel_pd_solution(A)
        assert np.allclose(P / P[0, 0], np.eye(2))

    def test_scaled_rotation(self):
        # hand solve: A^T P + P A = 0 forces P proportional to diag(0.5, 2)
        A = np.array([[0.0, 2.0], [-0.5, 0.0]])
        P = linalg.kernel_pd_solution(A)
        assert abs(P[0, 1]) <= 1e-12 * P.max()
        assert np.isclose(P[1, 1] / P[0, 0], 4.0)
        assert np.linalg.norm(A.T @ P + P @ A, 2) <= 1e-10

    def test_defective_rejected(self):
        with pytest.raises(SpectrumError):
            linalg.kernel_pd_solution([[0.0, 1.0], [0.0, 0.0]])

    def test_nonimaginary_rejected(self):
        with pytest.raises(SpectrumError):
            linalg.kernel_pd_solution([[-1.0]])

    def test_random_similarity_of_skew(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = int(rng.integers(1, 4)) * 2
            S0 = random_skew_nonsingular(rng, m)
            T = np.eye(m) + 0.3 * rng.standard_normal((m, m))
            A = np.linalg.solve(T, S0) @ T
            P = linalg.kernel_pd_solution(A)
            assert np.linalg.eigvalsh(P).min() > 0
            assert np.linalg.norm(A.T @ P + P @ A, 2) <= \
                1e-8 * (1.0 + np.linalg.norm(A, 2))


class TestSqrtmPd:
    def test_diagonal(self):
        assert np.allclose(linalg.sqrtm_pd(np.diag([4.0, 9.0])),
                           np.diag([2.0, 3.0]))

    def test_identity(self):
        assert np.allclose(linalg.sqrtm_pd(np.eye(3)), np.eye(3))

    def test_multiply_back(self):
        P = np.array([[2.0, 1.0], [1.0, 2.0]])
        S = linalg.sqrtm_pd(P)
        assert np.linalg.norm(S @ S - P, 2) <= 1e-12 * np.linalg.norm(P, 2)
        assert np.linalg.eigvalsh(S).min() > 0

    def test_non_pd_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            linalg.sqrtm_pd(np.diag([1.0, -1.0]))


def kalman_rank_controllable(A, B):
    n = A.shape[0]
    blocks = [B]
    for _ in range(n - 1):
        blocks.append(A @ blocks[-1])
    return linalg.rank(np.hstack(blocks)) == n


def kalman_rank_observable(A, C):
    return kalman_rank_controllable(A.T, C.T)


def pbh_holds(A, M, mode):
    """PBH verdict over the whole spectrum of ``A``."""
    return linalg.pbh_witness(A, M, mode, linalg.eig(A).values) is None


class TestPbh:
    def test_double_integrator_controllable(self):
        assert pbh_holds([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]],
                         "controllable")

    def test_unobserved_mode(self):
        A = np.diag([-1.0, -2.0])
        assert linalg.pbh_witness(A, [[1.0, 0.0]], "observable",
                                  linalg.eig(A).values) == -2.0
        # only the eigenvalues passed are tested
        assert linalg.pbh_witness(A, [[1.0, 0.0]], "observable",
                                  [-1.0]) is None

    def test_scalar_gain_observable(self):
        assert pbh_holds([[-1.0]], [[4.0]], "observable")

    def test_agreement_with_kalman_rank(self):
        rng = np.random.default_rng(17)
        for k in range(200):
            n = int(rng.integers(1, 6))
            p = int(rng.integers(1, 3))
            A = rng.standard_normal((n, n))
            if k % 3 == 0:
                # plant structurally degenerate cases too
                A[:, 0] = 0.0
            B = rng.standard_normal((n, p))
            if k % 4 == 0:
                B[0, :] = 0.0
            C = rng.standard_normal((p, n))
            assert pbh_holds(A, B, "controllable") == \
                kalman_rank_controllable(A, B)
            assert pbh_holds(A, C, "observable") == \
                kalman_rank_observable(A, C)


def stability_class(A):
    return linalg.stability_class(linalg.eig(A))


class TestStabilityClass:
    def test_rotation_lyapunov_stable(self):
        assert stability_class([[0.0, 1.0], [-1.0, 0.0]]) is \
            StabilityClass.LYAPUNOV_STABLE

    def test_jordan_block_unstable(self):
        assert stability_class([[0.0, 1.0], [0.0, 0.0]]) is \
            StabilityClass.UNSTABLE

    def test_demo_closed_loop_hurwitz(self):
        A = np.array([[-1.0, 0, 1, 1], [1, -4, -1, -1], [1, -4, 0, -2],
                      [-3, -8, 12.5, -2.5]])
        assert stability_class(A) is StabilityClass.HURWITZ

    def test_hurwitz_implies_pd_gramian(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            n = int(rng.integers(1, 6))
            A = random_hurwitz(rng, n)
            assert stability_class(A) is StabilityClass.HURWITZ
            P = linalg.solve_lyapunov(A.T, np.eye(n))
            assert np.linalg.eigvalsh(P).min() > 0

    def test_simple_imaginary_pair_needs_no_rank_test(self):
        # rank(A - mu I) at a computed simple eigenvalue can reach n here;
        # a simple eigenvalue is semisimple without a rank test
        rng = np.random.default_rng(333)
        w = rng.uniform(0.5, 2)
        a = rng.uniform(0.3, 1.2)
        T = rng.standard_normal((3, 3))
        A = np.linalg.solve(T, [[0, w, 0], [-w, 0, 0], [0, 0, -a]]) @ T
        res = linalg.eig(A)
        assert list(res.geometric) == [1, 1, 1]
        assert linalg.stability_class(res) is StabilityClass.LYAPUNOV_STABLE
