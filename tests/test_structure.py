import numpy as np
import pytest

from nisynth import StateSpace, linalg, structure
from nisynth.errors import (
    InputError,
    NoRdLeqTwoError,
    NotControllableError,
    NotWeaklyMinimumPhaseError,
)
from nisynth.linalg import StabilityClass
from nisynth.structure import (
    RdKind,
    find_output_transformation,
    normal_form_input_matrix,
    normal_form_output_matrix,
    relative_degree_vector,
    split_zero_dynamics,
    to_normal_form,
)

from gen import (
    normal_form_from_blocks,
    planted_normal_blocks,
    planted_system,
    random_shape,
    well_conditioned,
)


def assert_same_normal_form(a, b):
    """Block for block and bit for bit."""
    assert (a.p1, a.p2, a.m) == (b.p1, b.p2, b.m)
    assert (a.rd_info.r, a.rd_info.kind) == (b.rd_info.r, b.rd_info.kind)
    assert np.array_equal(a.rd_info.H, b.rd_info.H)
    for name in ("A00", "A01", "A02", "A03", "A10", "A11", "A12", "A13",
                 "A30", "A31", "A32", "A33"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    for name in ("T_y", "T_x", "T_u", "T_y_inv", "T_x_inv", "T_u_inv"):
        assert np.array_equal(getattr(a.transforms, name),
                              getattr(b.transforms, name)), name


def triple_integrator():
    return StateSpace(A=[[0.0, 1, 0], [0, 0, 1], [0, 0, 0]],
                      B=[[0.0], [0.0], [1.0]], C=[[1.0, 0, 0]])


class TestRelativeDegreeVector:
    def test_demo_plant_has_no_rd_vector(self, demo_plant):
        info = relative_degree_vector(demo_plant)
        assert info.kind is not RdKind.FULL
        # C B is singular, both rows hit at degree one
        assert info.r == (1, 1)

    def test_demo_plant_after_output_transform(self, demo_plant,
                                               demo_transforms):
        sys = StateSpace(A=demo_plant.A, B=demo_plant.B,
                         C=demo_transforms["T_y"] @ demo_plant.C)
        info = relative_degree_vector(sys)
        assert info.r == (1, 2)
        assert info.kind is RdKind.FULL

    def test_double_integrator(self):
        # C B = 0, C A B = 1: oracle by direct multiplication
        sys = StateSpace(A=[[0.0, 1], [0, 0]], B=[[0.0], [1.0]],
                         C=[[1.0, 0.0]])
        assert float((sys.C @ sys.B)[0, 0]) == 0.0
        assert float((sys.C @ sys.A @ sys.B)[0, 0]) == 1.0
        info = relative_degree_vector(sys)
        assert info.r == (2,) and info.kind is RdKind.FULL

    def test_triple_integrator_degree_three(self):
        info = relative_degree_vector(triple_integrator())
        assert info.r == (3,) and info.kind is RdKind.FULL

    def test_invariant_under_state_transformation(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            p1, p2, m_a, m_b = random_shape(rng, max_p=2, max_n=6)
            sys, _ = planted_system(rng, p1, p2, m_a, m_b)
            T = well_conditioned(rng, sys.n)
            moved = StateSpace(A=T @ sys.A @ np.linalg.inv(T), B=T @ sys.B,
                               C=sys.C @ np.linalg.inv(T))
            assert relative_degree_vector(sys).r == \
                relative_degree_vector(moved).r

    def test_full_kind_has_rank_p(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            p1, p2, m_a, m_b = random_shape(rng, max_p=3, max_n=7)
            sys, truth = planted_system(rng, p1, p2, m_a, m_b)
            transformed = StateSpace(A=sys.A, B=sys.B,
                                     C=truth["T_y"] @ sys.C)
            info = relative_degree_vector(transformed)
            assert info.kind is RdKind.FULL
            assert linalg.rank(info.H) == p1 + p2


class TestFindOutputTransformation:
    def test_demo_plant(self, demo_plant):
        T_y, info = find_output_transformation(demo_plant)
        assert info.kind is RdKind.FULL
        assert sorted(info.r) == [1, 2]
        # post-condition, not a particular matrix: re-check independently
        recheck = relative_degree_vector(
            StateSpace(A=demo_plant.A, B=demo_plant.B,
                       C=T_y @ demo_plant.C))
        assert recheck.kind is RdKind.FULL and max(recheck.r) <= 2
        # without T_y, to_normal_form runs the same search itself
        assert_same_normal_form(to_normal_form(demo_plant),
                                to_normal_form(demo_plant, T_y))

    def test_identity_accepted_for_degree_one(self):
        sys = StateSpace(A=np.diag([-1.0, -2.0]), B=np.eye(2), C=np.eye(2))
        T_y, info = find_output_transformation(sys)
        assert np.array_equal(T_y, np.eye(2))
        assert info.r == (1, 1)

    def test_triple_integrator_rejected(self):
        with pytest.raises(NoRdLeqTwoError):
            find_output_transformation(triple_integrator())

    def test_mixed_degree_dependence_rejected(self):
        # degree-2 row of the high-frequency gain matrix lies in the span
        # of the degree-1 rows; no output transformation can repair this
        # (confirmed by random search over transformations)
        sys = StateSpace(
            A=[[0.0, 1, 0, 0], [0, 0, 0, 0], [0, 0, -1, 0], [0, 0, 0, -2]],
            B=[[0.0, 0], [1, 0], [1, 0], [0, 1]],
            C=[[1.0, 0, 1, 0], [1, 0, 0, 0]])
        info = relative_degree_vector(sys)
        assert info.kind is RdKind.LIRD_ONLY
        with pytest.raises(NoRdLeqTwoError):
            find_output_transformation(sys)

    def test_uncontrollable_rejected(self):
        sys = StateSpace(A=np.diag([-1.0, -2.0]), B=[[1.0], [0.0]],
                         C=[[1.0, 1.0]])
        with pytest.raises(NotControllableError):
            find_output_transformation(sys)

    def test_self_consistency_on_planted_systems(self):
        rng = np.random.default_rng(59)
        for _ in range(25):
            p1, p2, m_a, m_b = random_shape(rng, max_p=3, max_n=8)
            sys, _ = planted_system(rng, p1, p2, m_a, m_b)
            T_y, info = find_output_transformation(sys)
            assert info.kind is RdKind.FULL and max(info.r) <= 2
            assert sorted(info.r) == [1] * p1 + [2] * p2
            assert_same_normal_form(to_normal_form(sys),
                                    to_normal_form(sys, T_y))


class TestToNormalForm:
    def test_demo_blocks(self, demo_plant, demo_transforms):
        nf = to_normal_form(demo_plant, demo_transforms["T_y"],
                            T_x=demo_transforms["T_x"],
                            T_u=demo_transforms["T_u"])
        assert (nf.m, nf.p1, nf.p2) == (1, 1, 1)
        assert np.allclose(nf.A00, [[-1.0]])
        assert np.allclose(nf.A01, [[2.0]])
        assert np.allclose(nf.A02, [[2.0]])
        assert np.allclose(nf.A03, [[-1.0]])
        # x1 and x3 rows of the transformed state matrix
        assert np.allclose(np.hstack([nf.A10, nf.A11, nf.A12, nf.A13]),
                           [[1.0, 0.0, 1.0, -1.0]])
        assert np.allclose(np.hstack([nf.A30, nf.A31, nf.A32, nf.A33]),
                           [[1.0, -1.0, 1.0, 1.0]])

    def test_degree_one_only_reduces(self):
        sys = StateSpace(A=[[-1.0, 1.0], [0.5, 0.0]], B=[[0.0], [1.0]],
                         C=[[0.0, 1.0]])
        nf = to_normal_form(sys, np.eye(1))
        assert nf.p2 == 0 and nf.p1 == 1 and nf.m == 1

    def test_no_internal_dynamics(self):
        # n = p1 + 2 p2 leaves an empty internal block
        rng = np.random.default_rng(61)
        blk = planted_normal_blocks(rng, 1, 1, 0, 0)
        nf = normal_form_from_blocks(blk, 1, 1, 0)
        assert nf.m == 0 and nf.A00.shape == (0, 0)
        assert split_zero_dynamics(nf).stability is StabilityClass.HURWITZ

    def test_transform_round_trip(self):
        rng = np.random.default_rng(67)
        for _ in range(15):
            p1, p2, m_a, m_b = random_shape(rng, max_p=3, max_n=8)
            sys, _ = planted_system(rng, p1, p2, m_a, m_b)
            T_y, _ = find_output_transformation(sys)
            nf = to_normal_form(sys, T_y)
            t = nf.transforms
            At = nf.assemble().A
            Bt = normal_form_input_matrix(nf.m, nf.p1, nf.p2)
            Ct = normal_form_output_matrix(nf.m, nf.p1, nf.p2)
            # blocks were read off T_x A T_x^-1; round-trip must recover
            # the system (structural zeros included)
            assert np.allclose(t.T_x_inv @ At @ t.T_x, sys.A, atol=1e-8)
            assert np.allclose(t.T_x_inv @ Bt @ t.T_u, sys.B, atol=1e-8)
            assert np.allclose(t.T_y_inv @ Ct @ t.T_x, sys.C, atol=1e-8)

    def test_rejects_bad_ty(self, demo_plant):
        with pytest.raises(InputError):
            to_normal_form(demo_plant, np.eye(2))


def greedy_svd_rows(B, base, m, n):
    """Reference completion: one SVD per candidate per greedy step."""
    p = B.shape[1]
    U = np.linalg.svd(B, full_matrices=True)[0]
    candidates = [U[:, p + k] for k in range(n - p)]
    chosen = []
    for _ in range(m):
        best, best_sigma = None, -1.0
        for idx, cand in enumerate(candidates):
            trial = np.vstack([*(c.reshape(1, -1) for c in chosen),
                               cand.reshape(1, -1), base])
            sigma = np.linalg.svd(trial, compute_uv=False)[-1]
            if sigma > best_sigma:
                best, best_sigma = idx, sigma
        chosen.append(candidates.pop(best))
    return np.vstack(chosen) if chosen else np.zeros((0, n))


def gen_shapes(max_p=3, max_n=8):
    """Every (p1, p2, m_a, m_b) that ``random_shape`` can draw."""
    for p1 in range(max_p + 1):
        for p2 in range(max_p + 1 - p1):
            n_ext = p1 + 2 * p2
            if p1 + p2 == 0 or n_ext >= max_n:
                continue
            budget = max_n - n_ext
            for m_a in range(0, budget + 1, 2):
                for m_b in range(budget - m_a + 1):
                    yield p1, p2, m_a, m_b


class TestCompleteInternalRows:
    """The bordered-Gram completion picks the rows of the greedy
    per-candidate SVD loop, so ``T_x`` is unchanged bit for bit."""

    @staticmethod
    def assert_same_completion(sys):
        nf = to_normal_form(sys)
        Ct = nf.transforms.T_y @ sys.C
        base = np.vstack([Ct[:nf.p1], Ct[nf.p1:], Ct[nf.p1:] @ sys.A])
        rows = structure._complete_internal_rows(sys.B, base, nf.m, sys.n)
        expected = greedy_svd_rows(sys.B, base, nf.m, sys.n)
        assert rows.tobytes() == expected.tobytes()
        assert nf.transforms.T_x.tobytes() == \
            np.vstack([expected, base]).tobytes()

    def test_every_gen_shape(self):
        shapes = list(gen_shapes())
        assert len(shapes) > 50
        for k, shape in enumerate(shapes):
            sys, _ = planted_system(np.random.default_rng([71, k]), *shape)
            self.assert_same_completion(sys)

    def test_large_shapes(self):
        rng = np.random.default_rng(72)
        for shape in ((2, 1, 12, 10), (1, 2, 34, 25)):
            sys, _ = planted_system(rng, *shape)
            self.assert_same_completion(sys)

    def test_demo(self, demo_plant):
        self.assert_same_completion(demo_plant)


class TestSplitZeroDynamics:
    def test_scalar_hurwitz(self, demo_plant, demo_transforms):
        nf = to_normal_form(demo_plant, demo_transforms["T_y"],
                            T_x=demo_transforms["T_x"],
                            T_u=demo_transforms["T_u"])
        split = split_zero_dynamics(nf)
        assert split.m_a == 0 and split.m_b == 1
        assert np.allclose(split.A00b, [[-1.0]])
        assert np.allclose(split.S, np.eye(1))

    def test_imaginary_pair_made_skew(self):
        rng = np.random.default_rng(71)
        blk = planted_normal_blocks(rng, 1, 1, 0, 0)
        blk["A00"] = np.array([[0.0, 2.0], [-0.5, 0.0]])
        blk["A01"] = rng.standard_normal((2, 1))
        blk["A02"] = rng.standard_normal((2, 1))
        blk["A03"] = rng.standard_normal((2, 1))
        blk["A10"] = rng.standard_normal((1, 2))
        blk["A30"] = rng.standard_normal((1, 2))
        nf = normal_form_from_blocks(blk, 1, 1, 2)
        split = split_zero_dynamics(nf)
        assert split.m_a == 2 and split.m_b == 0
        assert np.linalg.norm(split.A00a + split.A00a.T) <= 1e-12
        got = np.sort_complex(np.linalg.eigvals(split.A00a))
        assert np.allclose(got, [-1j, 1j], atol=1e-9)

    def test_unstable_rejected(self):
        rng = np.random.default_rng(73)
        blk = planted_normal_blocks(rng, 1, 0, 0, 1)
        blk["A00"] = np.array([[1.0]])
        nf = normal_form_from_blocks(blk, 1, 0, 1)
        with pytest.raises(NotWeaklyMinimumPhaseError):
            split_zero_dynamics(nf)

    def test_internal_dynamics_decomposed_once(self, monkeypatch):
        rng = np.random.default_rng(79)
        blk = planted_normal_blocks(rng, 1, 1, 2, 2)
        nf = normal_form_from_blocks(blk, 1, 1, 4)
        on_a00 = []
        eig = linalg.eig

        def counting_eig(A):
            on_a00.append(np.array_equal(A, nf.A00))
            return eig(A)

        monkeypatch.setattr(linalg, "eig", counting_eig)
        split = split_zero_dynamics(nf)
        assert (split.m_a, split.m_b) == (2, 2)
        assert split.stability is StabilityClass.LYAPUNOV_STABLE
        assert sum(on_a00) == 1

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(79)
        for _ in range(10):
            m_a = int(rng.integers(0, 3)) * 2
            m_b = int(rng.integers(0, 4))
            if m_a + m_b == 0:
                continue
            blk = planted_normal_blocks(rng, 1, 1, m_a, m_b)
            nf = normal_form_from_blocks(blk, 1, 1, m_a + m_b)
            split = split_zero_dynamics(nf)
            assert (split.m_a, split.m_b) == (m_a, m_b)
            want = np.sort_complex(np.linalg.eigvals(nf.A00))
            got = np.sort_complex(np.concatenate(
                [np.linalg.eigvals(split.A00a),
                 np.linalg.eigvals(split.A00b)]))
            dist = np.abs(got[:, None] - want[None, :])
            assert dist.min(axis=0).max() < 1e-7
            # similarity reproduces the internal dynamics
            assert np.allclose(split.S @ nf.A00 @ split.S_inv, split.A00,
                               atol=1e-7 * (1 + np.linalg.norm(nf.A00)))


class TestPhaseClassification:
    """The split records the class of the zero dynamics it decided."""

    def test_demo(self, demo_plant, demo_transforms):
        nf = to_normal_form(demo_plant, demo_transforms["T_y"],
                            T_x=demo_transforms["T_x"],
                            T_u=demo_transforms["T_u"])
        assert split_zero_dynamics(nf).stability is StabilityClass.HURWITZ

    def test_marginal_zero_dynamics(self):
        rng = np.random.default_rng(83)
        blk = planted_normal_blocks(rng, 1, 0, 2, 0)
        blk["A00"] = np.array([[0.0, 1.0], [-1.0, 0.0]])
        nf = normal_form_from_blocks(blk, 1, 0, 2)
        assert split_zero_dynamics(nf).stability is \
            StabilityClass.LYAPUNOV_STABLE

    def test_defective_zero_dynamics(self):
        rng = np.random.default_rng(89)
        blk = planted_normal_blocks(rng, 1, 0, 0, 2)
        blk["A00"] = np.array([[0.0, 1.0], [0.0, 0.0]])
        nf = normal_form_from_blocks(blk, 1, 0, 2)
        with pytest.raises(NotWeaklyMinimumPhaseError):
            split_zero_dynamics(nf)
