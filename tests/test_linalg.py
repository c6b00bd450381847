import dataclasses
import warnings

import numpy as np
import pytest

from nisynth import StateSpace, is_minimal, linalg, verify_certificate
from nisynth.errors import (
    AsymmetricMatrixError,
    InputError,
    NotPositiveDefiniteError,
    SingularLyapunovOperatorError,
)
from nisynth.linalg import StabilityClass

from gen import (
    UNTRUSTED_EIGENBASES,
    planted_system,
    random_hurwitz,
    well_conditioned,
)


class TestAsMatrix:
    @pytest.mark.parametrize("entries", [[["-1.5"]], [[True]], [[1.0, True]],
                                         [[np.str_("2")]], [[np.bool_(1)]]],
                             ids=["str", "bool", "mixed-bool", "np-str",
                                  "np-bool"])
    def test_strings_and_booleans_refused(self, entries):
        with pytest.raises(InputError, match="^B must be a matrix of "
                           "numbers, not strings or booleans$"):
            linalg.as_matrix(entries, "B")

    def test_ndarray_taken_as_it_is(self):
        # an ndarray is not walked entry by entry: the caller made it
        assert np.array_equal(linalg.as_matrix(np.array([[True]])), [[1.0]])


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

    def test_rejects_nonsquare(self):
        with pytest.raises(InputError):
            linalg.eig(np.zeros((2, 3)))

    def test_repeated_eigenvalues_keep_their_multiplicities(self):
        # a 2-block Jordan chain at -1, a double semisimple -2, simple -3
        A = np.array([[-1.0, 1, 0, 0, 0], [0, -1, 0, 0, 0], [0, 0, -2, 0, 0],
                      [0, 0, 0, -2, 0], [0, 0, 0, 0, -3]])
        res = linalg.eig(A)
        assert res.values.real.tolist() == [-3, -2, -2, -1, -1]
        assert res.algebraic.tolist() == [1, 2, 2, 2, 2]
        assert res.geometric.tolist() == [1, 2, 2, 1, 1]

    def test_norm_and_smin_from_one_svd(self, monkeypatch):
        # sigma_max and sigma_min of A, bit for bit as the two-norm and a
        # second SVD give them, from the one SVD eig takes
        rng = np.random.default_rng(12)
        for n in (1, 3, 8):
            A = rng.standard_normal((n, n))
            s = np.linalg.svd(A, compute_uv=False)
            calls = []
            svd = np.linalg.svd
            monkeypatch.setattr(np.linalg, "svd",
                                lambda *a, **k: calls.append(1) or svd(*a, **k))
            res = linalg.eig(A)
            monkeypatch.undo()
            assert calls == [1]
            assert np.float64(res.norm).tobytes() == \
                np.float64(np.linalg.norm(A, 2)).tobytes()
            assert np.float64(res.smin).tobytes() == \
                np.float64(s[-1]).tobytes()
        assert linalg.eig(np.zeros((0, 0))).smin == 0.0

    def test_location_and_singularity_policy(self):
        # A = diag(3, -2e-8 +- j, -1e-9): axis_tol = 1e-8 (1 + 3)
        A = np.zeros((4, 4))
        A[0, 0], A[3, 3] = 3.0, -1e-9
        A[1:3, 1:3] = [[-2e-8, 1.0], [-1.0, -2e-8]]
        res = linalg.eig(A)
        assert res.axis_tol == 1e-8 * (1.0 + res.norm) and res.norm == 3.0
        assert res.on_axis.tolist() == [True, True, True, False]
        assert res.at_origin.tolist() == [False, False, True, False]
        assert not res.singular and not res.nearly_singular
        # the exact rule is rank's; the band rule is wider
        for diag, singular, nearly in (([0.0, 1.0], True, True),
                                       ([1e-11, 1.0], False, True),
                                       ([1e-9, 1.0], False, False)):
            res = linalg.eig(np.diag(diag))
            assert (res.singular, res.nearly_singular) == (singular, nearly)
            assert res.singular == (linalg.rank(np.diag(diag)) < 2)
        # the empty matrix is nonsingular, and no rule moves a field
        empty = linalg.eig(np.zeros((0, 0)))
        assert not empty.singular and not empty.nearly_singular
        assert [f.name for f in dataclasses.fields(res)] == [
            "values", "vectors", "algebraic", "geometric", "norm", "smin"]


def _near_defective(rng):
    """Random matrix of 2 to 6 states with one eigenvalue pair ``d`` apart
    along a Jordan coupling, so ``kappa_2(V)`` is about ``1 / d``."""
    n = int(rng.integers(2, 7))
    J = np.diag(-rng.uniform(0.5, 3.0, n))
    J[0, 1] = 1.0
    J[1, 1] = J[0, 0] - 10.0 ** rng.uniform(-7.5, -5.0)
    T = well_conditioned(rng, n)
    return T @ J @ np.linalg.inv(T)


class TestTrustGate:
    """``EigenResult.left`` is ``inv(V)`` when ``kappa_2(V) <= 1e6`` and
    None otherwise; the bounds ``max|W| <= kappa_2(V) <= ||V||_F ||W||_F``
    settle most matrices without the SVD of ``V``."""

    def test_matches_the_svd_rule_across_the_bound(self):
        rng = np.random.default_rng(72)
        kappas, routes = [], set()
        for _ in range(400):
            res = linalg.eig(_near_defective(rng))
            V = res.vectors
            s = np.linalg.svd(V, compute_uv=False)
            trusted = bool(s[0] <= 1e6 * s[-1])
            assert (res.left is not None) == trusted
            W = np.linalg.inv(V)
            if trusted:
                assert res.left.tobytes() == W.tobytes()
            kappas.append(s[0] / s[-1])
            if np.abs(W).max() > 1e6:
                routes.add("max")
            elif np.linalg.norm(V) * np.linalg.norm(W) <= 1e6:
                routes.add("frobenius")
            else:
                routes.add(("svd", trusted))
        assert min(kappas) < 1e6 < max(kappas)
        assert routes == {"max", "frobenius", ("svd", True), ("svd", False)}

    def test_double_integrator_is_not_trusted_without_a_warning(self):
        # inv(V) is finite but so large that its Frobenius norm overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = linalg.eig([[0.0, 1.0], [0.0, 0.0]])
            assert res.left is None


class TestEigenvectorNorms:
    """``right_norms`` and ``left_norms`` are the column norms of
    ``vectors`` and the row norms of ``left``, bit for bit, computed once."""

    def test_equal_fresh_norms_bit_for_bit(self):
        rng = np.random.default_rng(73)
        for n in (1, 2, 5, 12, 26):
            res = linalg.eig(rng.standard_normal((n, n)))
            assert res.left is not None
            assert res.right_norms.tobytes() == \
                np.linalg.norm(res.vectors, axis=0).tobytes()
            assert res.left_norms.tobytes() == \
                np.linalg.norm(res.left, axis=1).tobytes()
            assert res.right_norms is res.right_norms
            assert res.left_norms is res.left_norms

    @pytest.mark.parametrize("name", sorted(UNTRUSTED_EIGENBASES))
    def test_untrusted_eigenbasis_has_no_left_norms(self, name):
        res = linalg.eig(UNTRUSTED_EIGENBASES[name])
        assert res.left is None and res.left_norms is None
        assert res.right_norms.tobytes() == \
            np.linalg.norm(res.vectors, axis=0).tobytes()


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
        # negated certificate residual block for scalar parameters: M is
        # negative semidefinite and singular, so -M is psd but not pd
        M = -np.array([[1.0, -1.0, 1.0], [-1.0, 2.0, -1.0], [1.0, -1.0, 1.0]])
        # oracle: direct eigenvalues of the 3x3
        lam = np.linalg.eigvalsh(-M)
        assert lam.min() >= -1e-12
        assert linalg.definiteness(-M, "psd")
        assert not linalg.definiteness(-M, "pd")
        with pytest.raises(InputError):
            linalg.definiteness(M, "nsd")

    def test_asymmetric_rejected(self):
        with pytest.raises(AsymmetricMatrixError):
            linalg.definiteness([[1.0, 5.0], [0.0, 1.0]], "pd")

    @pytest.mark.parametrize("scale", [1e-20, 1.0, 1e20])
    def test_one_scale_invariant_floor(self, scale):
        # the floor is 2 eps max|lambda| = 4.4e-16 relative at any scale,
        # and definiteness and sqrtm_pd draw the same line
        above = scale * np.diag([1.0, 5e-16])
        below = scale * np.diag([1.0, 4e-16])
        assert linalg.definiteness(above, "pd")
        assert linalg.sqrtm_pd(above)[1, 1] > 0
        assert not linalg.definiteness(below, "pd")
        with pytest.raises(NotPositiveDefiniteError):
            linalg.sqrtm_pd(below)
        assert linalg.definiteness(scale * np.diag([1.0, -4e-16]), "psd")
        assert not linalg.definiteness(scale * np.diag([1.0, -5e-16]), "psd")

    def test_hermitian_defect_rule(self):
        # ||M - M*||_2 within 1e-8 max(1, ||M||_2), for symmetrize and the
        # residue test alike; an exactly Hermitian M takes no SVD
        assert linalg.hermitian_defect(np.array([[1.0, 2.0], [2.0, 1.0]])) \
            == (0.0, True)
        defect, within = linalg.hermitian_defect(
            np.array([[1e3, 4e-6], [0.0, 1e3]]))
        assert within and np.isclose(defect, 4e-6)
        M = np.array([[1.0, 2e-8], [0.0, 1.0]])
        assert not linalg.hermitian_defect(M)[1]
        with pytest.raises(AsymmetricMatrixError):
            linalg.symmetrize(M)


def double_loop_cluster(values, radius):
    """The pair loop ``_cluster`` used to run, kept as its reference."""
    order = np.lexsort((values.imag, values.real))
    clusters = []
    used = np.zeros(len(values), dtype=bool)
    for idx in order:
        if used[idx]:
            continue
        members = [idx]
        used[idx] = True
        for jdx in order:
            if not used[jdx] and abs(values[jdx] - values[idx]) <= radius:
                members.append(jdx)
                used[jdx] = True
        clusters.append(np.array(members))
    return clusters


class TestCluster:
    """One n x n distance test replaces the pair loop; the clusters, their
    order and the order of their members are unchanged."""

    @staticmethod
    def assert_same_clusters(values, radius):
        new = linalg._cluster(values, radius)
        old = double_loop_cluster(values, radius)
        assert len(new) == len(old)
        for a, b in zip(new, old):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_random_spectra(self):
        rng = np.random.default_rng(41)
        for n in (1, 2, 5, 12, 26, 64):
            values = np.linalg.eigvals(rng.standard_normal((n, n)))
            for radius in (0.0, 1e-7 * n, 0.3, 1.5):
                self.assert_same_clusters(values, radius)

    def test_conjugate_pairs(self):
        rng = np.random.default_rng(42)
        for pairs in (1, 3, 10):
            z = rng.standard_normal(pairs) + 1j * rng.uniform(0.1, 2.0, pairs)
            values = rng.permutation(np.concatenate([z, z.conj()]))
            for radius in (1e-7, 0.25, 1.0):
                self.assert_same_clusters(values, radius)

    def test_planted_near_duplicates(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            base = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            copies = base[rng.integers(0, 6, 8)] + 1e-9 * (
                rng.standard_normal(8) + 1j * rng.standard_normal(8))
            values = rng.permutation(np.concatenate([base, copies]))
            for radius in (1e-10, 3e-9, 1e-7):
                self.assert_same_clusters(values, radius)

    def test_chains_close_pairwise_not_transitively(self):
        # neighbours 0.6 r apart: each is within r of the next, the ends
        # of a chain are not, so the greedy sweep cuts the chain in pieces
        r = 1e-3
        for length in (3, 4, 7):
            chain = -1.0 + 0.6 * r * np.arange(length)
            for values in (chain + 0j, chain[::-1] + 0.5j,
                           np.concatenate([chain + 1j, chain - 1j])):
                self.assert_same_clusters(values, r)
        assert [list(c) for c in linalg._cluster(
            -1.0 + 0.6 * r * np.arange(4) + 0j, r)] == [[0, 1], [2, 3]]


    def test_all_singletons(self):
        rng = np.random.default_rng(45)
        for n in (1, 3, 26, 64):
            values = np.linalg.eigvals(rng.standard_normal((n, n)))
            radius = 1e-7 * n
            assert [len(c) for c in linalg._cluster(values, radius)] == \
                [1] * n
            self.assert_same_clusters(values, radius)

    def test_singletons_mixed_with_clusters(self):
        rng = np.random.default_rng(46)
        single = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        near = single[:3] + 1e-10 * (1 + 1j)
        values = rng.permutation(np.concatenate([single, near]))
        assert sorted(len(c) for c in linalg._cluster(values, 1e-8)) == \
            [1] * 7 + [2] * 3
        self.assert_same_clusters(values, 1e-8)


class TestSpectralNorm:
    def test_equals_matrix_two_norm_bit_for_bit(self):
        rng = np.random.default_rng(44)
        cases = [np.zeros((3, 3)), np.ones((2, 5))]
        for rows, cols in ((1, 1), (4, 4), (3, 7), (9, 2), (26, 26)):
            cases.append(rng.standard_normal((rows, cols)))
            low_rank = rng.standard_normal((rows, 1)) @ \
                rng.standard_normal((1, cols))
            cases.append(low_rank)
            cases.append(low_rank + 1j * rng.standard_normal((rows, cols)))
        for M in cases:
            assert np.float64(linalg.spectral_norm(M)).tobytes() == \
                np.float64(np.linalg.norm(M, 2)).tobytes()

    def test_empty(self):
        for shape in ((0, 0), (0, 3), (4, 0)):
            assert linalg.spectral_norm(np.zeros(shape)) == 0.0


def kron_lyapunov(A, Q):
    """The n^2 x n^2 vectorized solve ``solve_lyapunov`` keeps as its
    fallback, as it ran before the eigenbasis route: the reference for
    matrices that take the fallback."""
    n = A.shape[0]
    eye = np.eye(n)
    L = np.kron(A.T, eye) + np.kron(eye, A.T)
    P = np.linalg.solve(L, -Q.flatten()).reshape(n, n)
    return (P + P.T) / 2.0


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

    def test_matches_scipy_oracle(self, monkeypatch):
        # the eigenbasis route against Bartels-Stewart (scipy is a test
        # oracle only); on these well-conditioned operators the two agree
        # to about a hundred eps of ||P||
        scipy_linalg = pytest.importorskip("scipy.linalg")
        gate = linalg._lyapunov_residual
        gates = []

        def counting_gate(*args):
            gates.append(args)
            return gate(*args)

        # one residual gate per solve: the eigenbasis answer passed it
        monkeypatch.setattr(linalg, "_lyapunov_residual", counting_gate)
        rng = np.random.default_rng(45)
        for n in (1, 2, 4, 10, 25, 64):
            for _ in range(3):
                A = random_hurwitz(rng, n)
                G = rng.standard_normal((n, n))
                for Q in (np.eye(n), G @ G.T + np.eye(n)):
                    gates.clear()
                    P = linalg.solve_lyapunov(A, Q)
                    assert len(gates) == 1
                    ref = scipy_linalg.solve_continuous_lyapunov(A.T, -Q)
                    assert np.linalg.norm(P - ref, 2) <= \
                        1e-12 * np.linalg.norm(ref, 2)

    @pytest.mark.parametrize("name", sorted(UNTRUSTED_EIGENBASES))
    def test_untrusted_eigenbasis_takes_the_kron_solve(self, name):
        A = UNTRUSTED_EIGENBASES[name]
        kappa = np.linalg.cond(linalg.eig(A).vectors)
        assert kappa > 1e6 and (name == "jordan" or kappa < 1e12)
        assert linalg.eig(A).left is None
        n = A.shape[0]
        for Q in (np.eye(n), np.diag(np.arange(1.0, n + 1))):
            assert linalg.solve_lyapunov(A, Q).tobytes() == \
                kron_lyapunov(A, Q).tobytes()

    def test_failed_residual_gate_takes_the_kron_solve(self, monkeypatch):
        rng = np.random.default_rng(46)
        A = random_hurwitz(rng, 5)
        Q = np.eye(5)
        assert linalg.eig(A).left is not None
        assert linalg.solve_lyapunov(A, Q).tobytes() != \
            kron_lyapunov(A, Q).tobytes()
        gate = linalg._lyapunov_residual
        verdicts = []

        def first_fails(*args):
            residual, bound = gate(*args)
            verdicts.append(residual <= bound)
            return (np.inf if len(verdicts) == 1 else residual), bound

        monkeypatch.setattr(linalg, "_lyapunov_residual", first_fails)
        assert linalg.solve_lyapunov(A, Q).tobytes() == \
            kron_lyapunov(A, Q).tobytes()
        assert verdicts == [True, True]


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


class TestExpm:
    def test_matches_scipy_oracle(self):
        # 1-norms from 1e-3 (no scaling) to 1e2 (five squarings); the odd
        # draws are upper triangular, so far from normal
        scipy_linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(53)
        for k, norm in enumerate(np.logspace(-3, 2, 40)):
            n = 1 + k % 20
            M = rng.standard_normal((n, n))
            if k % 2:
                M = np.triu(M) + np.triu(rng.standard_normal((n, n)), 1)
            M *= norm / np.abs(M).sum(axis=0).max()
            ref = scipy_linalg.expm(M)
            assert np.abs(linalg.expm(M) - ref).sum(axis=0).max() <= \
                1e-12 * np.abs(ref).sum(axis=0).max()

    def test_empty_and_zero(self):
        assert linalg.expm(np.zeros((0, 0))).shape == (0, 0)
        assert np.array_equal(linalg.expm(np.zeros((3, 3))), np.eye(3))

    def test_overflow_is_silent(self):
        # e^5000 overflows in the squarings: inf, and no RuntimeWarning
        assert np.array_equal(linalg.expm([[5000.0]]), [[np.inf]])


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
    return linalg.pbh_witness(A, M, mode, linalg.eig(A)) is None


class TestPbh:
    def test_double_integrator_controllable(self):
        assert pbh_holds([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]],
                         "controllable")

    def test_unobserved_mode(self):
        A = np.diag([-1.0, -2.0])
        res = linalg.eig(A)
        assert linalg.pbh_witness(A, [[1.0, 0.0]], "observable", res) == -2.0
        # every eigenvalue of the spectrum is tested, in its sorted order
        assert list(res.values) == [-2.0, -1.0]
        assert list(linalg.pbh_failures(A, [[1.0, 0.0]], "observable",
                                        res)) == [True, False]

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


def svd_pbh_failures(A, M, mode, values):
    """Reference: the SVD rank test of the PBH pencil at every eigenvalue."""
    A, M = np.asarray(A, dtype=float), np.asarray(M, dtype=float)
    n = A.shape[0]
    failed = []
    for lam in values:
        shifted = lam * np.eye(n) - A
        pencil = np.hstack([shifted, M]) if mode == "controllable" \
            else np.vstack([shifted, M])
        failed.append(linalg.rank(pencil) < n)
    return np.array(failed, dtype=bool)


def assert_pbh_matches_svd(A, M, mode):
    """Screened verdicts and witness equal the SVD test's; returns them."""
    res = linalg.eig(A)
    ref = svd_pbh_failures(A, M, mode, res.values)
    assert list(linalg.pbh_failures(A, M, mode, res)) == list(ref)
    assert linalg.pbh_witness(A, M, mode, res) == \
        (complex(res.values[np.argmax(ref)]) if ref.any() else None)
    return ref


def conditioned(rng, n, kappa):
    """Random real matrix with singular values log-spaced over
    [1/kappa, 1]."""
    Q1 = np.linalg.qr(rng.standard_normal((n, n)))[0]
    Q2 = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return Q1 @ np.diag(np.logspace(0.0, -np.log10(kappa), n)) @ Q2


def real_blocks(rng, spectrum):
    """Block-diagonal real matrix: a real eigenvalue per 1x1 block, a
    complex pair per 2x2 block; returns it and the first block's size."""
    blocks = []
    for kind in spectrum:
        a = -rng.uniform(0.2, 3.0)
        if kind == "real":
            blocks.append(np.array([[a]]))
        else:
            b = rng.uniform(0.5, 3.0)
            blocks.append(np.array([[a, b], [-b, a]]))
    n = sum(len(b) for b in blocks)
    D = np.zeros((n, n))
    k = 0
    for blk in blocks:
        D[k:k + len(blk), k:k + len(blk)] = blk
        k += len(blk)
    return D, len(blocks[0])


class TestPbhScreen:
    """``pbh_failures`` screens simple eigenvalues with the left
    eigenvectors; verdicts and witnesses equal the SVD test's."""

    SPECTRA = {"real": ("real",) * 6,
               "complex": ("pair",) * 3,
               "mixed": ("pair", "real", "pair", "real")}

    @pytest.mark.parametrize("spectrum", sorted(SPECTRA))
    @pytest.mark.parametrize("kappa", [1.0, 1e3, 1e6, 1e9])
    def test_component_along_one_left_eigenvector(self, spectrum, kappa):
        rng = np.random.default_rng([int(np.log10(kappa)), len(spectrum)])
        outcomes = set()
        for _ in range(3):
            D, k = real_blocks(rng, self.SPECTRA[spectrum])
            n = len(D)
            T = conditioned(rng, n, kappa)
            T_inv = np.linalg.inv(T)
            A = T @ D @ T_inv
            # B sees the first block's left eigenvectors only through eps
            P = np.eye(n) - T[:, :k] @ T_inv[:k, :]
            G = P @ rng.standard_normal((n, 2))
            G /= np.linalg.norm(G)
            v = T[:, :1] / np.linalg.norm(T[:, :1])
            for eps in 10.0 ** -np.arange(2, 17, 2):
                B = G.copy()
                B[:, :1] += eps * v
                outcomes.add(assert_pbh_matches_svd(A, B, "controllable")
                             .any())
                outcomes.add(assert_pbh_matches_svd(A.T, B.T, "observable")
                             .any())
        if kappa <= 1e6:
            # both verdicts occur over the range of eps (at 1e9 the rank
            # tolerance, relative to ||A||, exceeds ||B|| and all fail)
            assert outcomes == {True, False}

    def test_jordan_block(self):
        J = np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -2.0]])
        head, tail = [[1.0], [0.0], [1.0]], [[0.0], [1.0], [1.0]]
        assert list(linalg.eig(J).algebraic) == [1, 2, 2]
        # input on the head of the chain: uncontrollable at -1
        assert assert_pbh_matches_svd(J, head, "controllable").any()
        assert not assert_pbh_matches_svd(J, tail, "controllable").any()
        assert assert_pbh_matches_svd(J.T, np.transpose(head),
                                      "observable").any()
        # hidden by a similarity the computed pair splits by about 1e-8;
        # it stays one cluster, which takes the SVD test
        rng = np.random.default_rng(41)
        T = conditioned(rng, 3, 10.0)
        A = T @ J @ np.linalg.inv(T)
        assert list(linalg.eig(A).algebraic) == [1, 2, 2]
        for b in (head, tail):
            assert_pbh_matches_svd(A, T @ b, "controllable")
            assert_pbh_matches_svd(A.T, (T @ b).T, "observable")

    def test_repeated_eigenvalue(self):
        rng = np.random.default_rng(42)
        T = conditioned(rng, 4, 10.0)
        A = T @ np.diag([-1.0, -1.0, -2.0, -3.0]) @ np.linalg.inv(T)
        B1 = rng.standard_normal((4, 1))
        # one input cannot reach a two-dimensional eigenspace
        assert assert_pbh_matches_svd(A, B1, "controllable").any()
        assert not assert_pbh_matches_svd(
            A, rng.standard_normal((4, 2)), "controllable").any()
        assert assert_pbh_matches_svd(A.T, B1.T, "observable").any()

    def test_minimal_26_state_plant_needs_no_rank_test(self, monkeypatch):
        sys, _ = planted_system(np.random.default_rng(26), 2, 1, 12, 10)
        assert sys.n == 26
        fresh = StateSpace(A=sys.A, B=sys.B, C=sys.C)
        calls = []
        rank = linalg.rank

        def counting_rank(M):
            calls.append(M.shape)
            return rank(M)

        monkeypatch.setattr(linalg, "rank", counting_rank)
        assert is_minimal(fresh).minimal
        assert calls == []

    def test_badly_scaled_spectrum(self):
        # the rank tolerance grows with ||A||: a component of B far above
        # 1e-6 ||B|| can still be rank deficient next to an eigenvalue of
        # -1e10, so the screen's bound scales with ||A|| too
        for big in (1e6, 1e10, 1e12):
            A = np.diag([-big, -1.0, -big / 2])
            for c in (1e-3, 1e-5, 3e-6, 1e-8):
                M = np.array([[1.0], [c], [1.0]])
                assert_pbh_matches_svd(A, M, "controllable")
                assert_pbh_matches_svd(A, M.T, "observable")

    def test_singular_eigenvector_matrix_takes_the_svd_test(self):
        A = np.array([[-1.0, 1.0], [0.0, -1.0 - 1e-14]])
        res = linalg.eig(A)
        assert res.left is None
        assert_pbh_matches_svd(A, [[0.0], [1.0]], "controllable")
        assert_pbh_matches_svd(A, [[1.0], [0.0]], "controllable")


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


def _with_entry(M, value):
    """``M`` with its last entry set to ``value``."""
    M = np.array(M, dtype=complex if isinstance(value, complex) else float)
    M[-1, -1] = value
    return M


_A = np.array([[-1.0, 1.0], [0.0, -2.0]])
_B = np.array([[0.0], [1.0]])
_C = np.array([[1.0, 0.0]])
_SPECTRUM = linalg.eig(_A)

#: every entry point whose matrices are checked for finiteness
NON_FINITE_CASES = {
    "StateSpace-A": lambda v: StateSpace(A=_with_entry(_A, v), B=_B, C=_C),
    "StateSpace-B": lambda v: StateSpace(A=_A, B=_with_entry(_B, v), C=_C),
    "StateSpace-C": lambda v: StateSpace(A=_A, B=_B, C=_with_entry(_C, v)),
    "StateSpace-D": lambda v: StateSpace(A=_A, B=_B, C=_C,
                                         D=_with_entry([[0.0]], v)),
    "eig": lambda v: linalg.eig(_with_entry(_A, v)),
    "pbh_witness-A": lambda v: linalg.pbh_witness(
        _with_entry(_A, v), _B, "controllable", _SPECTRUM),
    "pbh_witness-M": lambda v: linalg.pbh_witness(
        _A, _with_entry(_C, v), "observable", _SPECTRUM),
    "solve_lyapunov-A": lambda v: linalg.solve_lyapunov(
        _with_entry(_A, v), np.eye(2)),
    "solve_lyapunov-Q": lambda v: linalg.solve_lyapunov(
        _A, _with_entry(np.eye(2), v)),
    "definiteness": lambda v: linalg.definiteness(
        _with_entry(np.eye(2), v), "psd"),
    "definiteness-complex": lambda v: linalg.definiteness(
        _with_entry(np.eye(2), complex(v, 0.0)), "psd"),
    "verify_certificate-Y": lambda v: verify_certificate(
        StateSpace(A=_A, B=_B, C=_C), "ni", _with_entry(np.eye(2), v)),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("case", list(NON_FINITE_CASES))
def test_non_finite_entry_refused(case, value):
    with pytest.raises(InputError, match="contains non-finite entries"):
        NON_FINITE_CASES[case](value)
