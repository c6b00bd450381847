import numpy as np
import pytest

from nisynth import StateSpace, UncertainSystem, linalg, structure
from nisynth.certify import classify_freq
from nisynth.errors import (
    InputError,
    NoRdLeqTwoError,
    NotControllableError,
    NotWeaklyMinimumPhaseError,
)
from nisynth.linalg import StabilityClass
from nisynth.synth import (
    SynthesisConfig,
    robust_stabilize,
    synthesize_ni,
    synthesize_ssni,
)
from nisynth.structure import (
    _complement_basis,
    _real_eigenbasis,
    find_output_transformation,
    relative_degree_vector,
    split_zero_dynamics,
    to_normal_form,
)

from gen import (
    EDGE_ZERO_DYNAMICS,
    assemble_normal_realization,
    edge_plant,
    feedthrough_plant,
    normal_form_from_blocks,
    planted_normal_blocks,
    planted_system,
    random_shape,
    well_conditioned,
)


def assert_same_normal_form(a, b):
    """Block for block and bit for bit."""
    assert (a.p1, a.p2, a.m) == (b.p1, b.p2, b.m)
    assert a.rd_info == b.rd_info
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
        # C B is singular, both rows hit at degree one; the decoupling
        # block of the null direction is not
        assert info.r == (1, 1)
        assert (info.p1, info.p2) == (1, 1)

    def test_demo_plant_after_output_transform(self, demo_plant,
                                               demo_transforms):
        sys = StateSpace(A=demo_plant.A, B=demo_plant.B,
                         C=demo_transforms["T_y"] @ demo_plant.C)
        info = relative_degree_vector(sys)
        assert info.r == (1, 2)
        assert (info.p1, info.p2) == (1, 1)

    def test_double_integrator(self):
        # C B = 0, C A B = 1: oracle by direct multiplication
        sys = StateSpace(A=[[0.0, 1], [0, 0]], B=[[0.0], [1.0]],
                         C=[[1.0, 0.0]])
        assert float((sys.C @ sys.B)[0, 0]) == 0.0
        assert float((sys.C @ sys.A @ sys.B)[0, 0]) == 1.0
        info = relative_degree_vector(sys)
        assert info.r == (2,) and (info.p1, info.p2) == (0, 1)

    def test_triple_integrator_degree_three(self):
        # C B = C A B = 0: degree three or more, and no decoupling
        info = relative_degree_vector(triple_integrator())
        assert info.r == (">=3",) and (info.p1, info.p2) == (0, 0)

    def test_invariant_under_state_transformation(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            p1, p2, m_a, m_b = random_shape(rng, max_p=2, max_n=6)
            sys, _ = planted_system(rng, p1, p2, m_a, m_b)
            T = well_conditioned(rng, sys.n)
            moved = StateSpace(A=T @ sys.A @ np.linalg.inv(T), B=T @ sys.B,
                               C=sys.C @ np.linalg.inv(T))
            assert relative_degree_vector(sys) == \
                relative_degree_vector(moved)

    def test_full_kind_has_rank_p(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            p1, p2, m_a, m_b = random_shape(rng, max_p=3, max_n=7)
            sys, truth = planted_system(rng, p1, p2, m_a, m_b)
            transformed = StateSpace(A=sys.A, B=sys.B,
                                     C=truth["T_y"] @ sys.C)
            info = relative_degree_vector(transformed)
            assert info.r == (1,) * p1 + (2,) * p2
            assert (info.p1, info.p2) == (p1, p2)


def recorded_svds(monkeypatch):
    """The list, growing, of every matrix ``np.linalg.svd`` is asked to
    decompose."""
    seen = []
    svd = np.linalg.svd

    def recording(M, *args, **kwargs):
        seen.append(np.array(M))
        return svd(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    return seen


class TestBoundFirstGates:
    """The transforms' inverses and the split basis are decided from norm
    bounds, and an SVD is taken only where a bound leaves a gate open; the
    relative degrees take the SVDs of ``C B`` and of the decoupling block
    alone."""

    def test_degree_three_reject_takes_one_svd_of_a(self, monkeypatch):
        # the search fails, and the plant's own PBH test decomposes A once,
        # for its spectrum; the degrees read no ||A||_2
        plant = StateSpace(A=[[-1.0, 1, 0], [0, -2, 1], [0, 0, -3]],
                           B=[[0.0], [0.0], [1.0]], C=[[1.0, 0, 0]])
        seen = recorded_svds(monkeypatch)
        with pytest.raises(NoRdLeqTwoError):
            to_normal_form(plant)
        assert sum(np.array_equal(M, plant.A) for M in seen) == 1
        assert "spectrum" in vars(plant)

    def test_robust_op_of_26_states_takes_nine_svds(self, monkeypatch):
        # outputs of degrees (1, 1, 2): the search takes the SVDs of C B and
        # of the 1 x 1 decoupling block, and A, T_x, T_u and the split
        # basis take none
        drawn, truth = planted_system(np.random.default_rng(0), 2, 1, 12, 10)
        plant = StateSpace(A=drawn.A, B=drawn.B, C=truth["T_y"] @ drawn.C)
        seen = recorded_svds(monkeypatch)
        res = robust_stabilize(UncertainSystem(plant=plant, gamma=1.0),
                               SynthesisConfig(rng_seed=5))
        assert classify_freq(res.nominal_closed, "ni").holds
        assert len(seen) == 9
        tf = res.gains.normal_form.transforms
        for M in (plant.A, tf.T_x, tf.T_u):
            assert not any(np.array_equal(S, M) for S in seen)


class TestFindOutputTransformation:
    def test_demo_plant(self, demo_plant):
        T_y, info = find_output_transformation(demo_plant)
        assert info.r == (1, 2) and (info.p1, info.p2) == (1, 1)
        # post-condition, not a particular matrix: re-check independently
        recheck = relative_degree_vector(
            StateSpace(A=demo_plant.A, B=demo_plant.B,
                       C=T_y @ demo_plant.C))
        assert recheck == info
        # without T_y, to_normal_form runs the same search itself
        assert_same_normal_form(to_normal_form(demo_plant),
                                to_normal_form(demo_plant, T_y))

    def test_feedthrough_rejected(self):
        # the theorem is for strictly proper plants: a nonzero D is input
        # error, not a degree-1 output
        with pytest.raises(InputError, match="strictly proper"):
            find_output_transformation(feedthrough_plant())

    def test_transformed_outputs_read_the_plants_spectrum(self, demo_plant,
                                                          monkeypatch):
        # the demo needs T_y != I; with the plant's spectrum cached,
        # neither the search nor to_normal_form takes an SVD of A
        plant = StateSpace(A=demo_plant.A, B=demo_plant.B, C=demo_plant.C)
        assert not plant.controllability_failures.any()
        norms = []
        monkeypatch.setattr(structure, "spectral_norm",
                            lambda M: norms.append(M) or linalg.spectral_norm(M))
        T_y, _ = find_output_transformation(plant)
        to_normal_form(plant, T_y)
        assert not np.array_equal(T_y, np.eye(2))
        assert not any(np.array_equal(M, plant.A) for M in norms)

    @pytest.mark.parametrize("path, shape", [
        ("osni", (2, 1, 0, 3)), ("osni", (1, 1, 0, 3)),
        ("ssni", (2, 0, 0, 4)), ("ssni", (3, 0, 0, 3))])
    def test_one_svd_of_a_per_fresh_plant(self, monkeypatch, path, shape):
        # a plant with nothing cached: A is not decomposed; the degrees
        # read ||A||_F, so A takes no SVD either
        drawn, _ = planted_system(np.random.default_rng(61), *shape)
        plant = StateSpace(A=drawn.A, B=drawn.B, C=drawn.C)
        svd = np.linalg.svd
        of_a = []

        def counting(M, *args, **kwargs):
            of_a.append(np.array_equal(M, plant.A))
            return svd(M, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        if path == "osni":
            T_y, _ = find_output_transformation(plant)
        else:
            relative_degree_vector(plant)
            T_y = np.eye(plant.n_outputs)
        to_normal_form(plant, T_y)
        assert sum(of_a) == 0

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
        assert info.r == (1, 2) and (info.p1, info.p2) == (1, 0)
        with pytest.raises(NoRdLeqTwoError):
            find_output_transformation(sys)

    def test_uncontrollable_rejected(self):
        # the search reads Markov parameters alone; the controllability
        # gate belongs to the search path of to_normal_form
        sys = StateSpace(A=np.diag([-1.0, -2.0]), B=[[1.0], [0.0]],
                         C=[[1.0, 1.0]])
        with pytest.raises(NotControllableError):
            to_normal_form(sys)

    @pytest.mark.parametrize("plant, error", [
        (StateSpace(A=np.diag([-1.0, -2.0]), B=[[1.0], [0.0]],
                    C=[[1.0, 1.0]], D=[[5.0]]), InputError),
        (StateSpace(A=np.diag([-1.0, -2.0]), B=[[1.0, 0.0], [0.0, 0.0]],
                    C=np.eye(2)), InputError),
        (StateSpace(A=[[0.0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0],
                       [0, 0, 0, -1]],
                    B=[[0.0], [0], [1], [0]], C=[[1.0, 0, 0, 1]]),
         NotControllableError)],
        ids=["feedthrough", "rank-b", "degree-3"])
    def test_search_path_error_order(self, plant, error):
        # the degrees' preconditions come before the controllability
        # verdict, which comes before the search's own NoRdLeqTwoError
        with pytest.raises(error):
            to_normal_form(plant)

    def test_self_consistency_on_planted_systems(self):
        rng = np.random.default_rng(59)
        for _ in range(25):
            p1, p2, m_a, m_b = random_shape(rng, max_p=3, max_n=8)
            sys, _ = planted_system(rng, p1, p2, m_a, m_b)
            T_y, info = find_output_transformation(sys)
            assert info.r == (1,) * p1 + (2,) * p2
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

    def test_feedthrough_rejected_with_a_given_t_y(self):
        # the transformed system carries T_y D, so a pinned T_y takes the
        # same strictly-proper check as the search
        with pytest.raises(InputError, match="strictly proper"):
            to_normal_form(feedthrough_plant(), [[2.0]])

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
            blk = {name: getattr(nf, name) for name in (
                "A00", "A01", "A02", "A03", "A10", "A11", "A12", "A13",
                "A30", "A31", "A32", "A33")}
            nf_sys = assemble_normal_realization(blk, nf.p1, nf.p2, nf.m)
            At, Bt, Ct = nf_sys.A, nf_sys.B, nf_sys.C
            # blocks were read off T_x A T_x^-1; round-trip must recover
            # the system (structural zeros included)
            assert np.allclose(t.T_x_inv @ At @ t.T_x, sys.A, atol=1e-8)
            assert np.allclose(t.T_x_inv @ Bt @ t.T_u, sys.B, atol=1e-8)
            assert np.allclose(t.T_y_inv @ Ct @ t.T_x, sys.C, atol=1e-8)

    def test_rejects_bad_ty(self, demo_plant):
        with pytest.raises(InputError):
            to_normal_form(demo_plant, np.eye(2))


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


def planted_tie(rng, n=7):
    """A plant with ``p1 = p2 = 1`` whose base rows ``[C_O; C_T; C_T A]``
    are orthogonal to ``c1 - c2``, where ``c1, c2`` are the first two left
    null vectors of ``B`` from its SVD: in exact arithmetic the two are
    equally good completions, a tie that only rounding could break."""
    B = rng.standard_normal((n, 2))
    null = np.linalg.svd(B, full_matrices=True)[0][:, 2:]
    d = (null[:, 0] - null[:, 1]) / np.sqrt(2.0)
    off_d = np.eye(n) - np.outer(d, d)
    C_O = rng.standard_normal(n) @ off_d
    C_T = null @ rng.standard_normal(n - 2) @ off_d      # C_T B = 0
    A = rng.standard_normal((n, n))
    C_TA = rng.standard_normal(n) @ off_d
    A += np.outer(C_T, C_TA - C_T @ A) / (C_T @ C_T)
    return StateSpace(A=A, B=B, C=np.vstack([C_O, C_T]))


class TestSuppliedTransforms:
    """A pinned ``T_u`` or ``T_x`` that does not fit the plant and its
    ``T_y`` is an ``InputError`` naming the defect.  The demo has
    ``m = p1 = p2 = 1``: row 0 of ``T_x`` is internal, rows 1..3 are
    ``[C_O; C_T; C_T A]``."""

    @staticmethod
    def normal_form(demo_plant, demo_transforms, **changed):
        pinned = {key: np.array(M) for key, M in demo_transforms.items()}
        for key, (index, value) in changed.items():
            pinned[key][index] = value
        return to_normal_form(demo_plant, **pinned)

    def test_t_u_mismatch(self, demo_plant, demo_transforms):
        with pytest.raises(InputError, match="supplied T_u does not match"):
            self.normal_form(demo_plant, demo_transforms,
                             T_u=((1, 1), 1.0))

    def test_t_x_rows_other_than_the_outputs(self, demo_plant,
                                             demo_transforms):
        with pytest.raises(InputError, match=r"rows m\.\.n must equal "
                                             r"\[C_O; C_T; C_T A\]"):
            self.normal_form(demo_plant, demo_transforms,
                             T_x=((3, 3), -2.0))

    def test_t_x_internal_rows_leak_into_b(self, demo_plant,
                                           demo_transforms):
        # row 0 = e0 + e1 sees B's row 1, which is not zero
        with pytest.raises(InputError,
                           match="internal rows must annihilate B"):
            self.normal_form(demo_plant, demo_transforms,
                             T_x=((0, 1), 1.0))


class TestInternalRows:
    """``T_x`` stacks an orthonormal basis ``Cz`` of the common left null
    space of ``B`` and ``C_T^T`` over the base rows ``[C_O; C_T; C_T A]``."""

    @staticmethod
    def assert_internal_rows(sys):
        nf = to_normal_form(sys)
        Ct = nf.transforms.T_y @ sys.C
        C_T = Ct[nf.p1:]
        base = np.vstack([Ct[:nf.p1], C_T, C_T @ sys.A])
        T_x = nf.transforms.T_x
        Cz = T_x[:nf.m]
        assert np.abs(Cz @ Cz.T - np.eye(nf.m)).max(initial=0.0) <= 1e-12
        assert linalg.spectral_norm(Cz @ sys.B) <= \
            1e-12 * linalg.spectral_norm(sys.B)
        assert linalg.spectral_norm(Cz @ C_T.T) <= \
            1e-12 * linalg.spectral_norm(C_T)
        assert linalg.rank(T_x) == sys.n
        assert np.array_equal(T_x[nf.m:], base)

    def test_every_gen_shape(self):
        shapes = list(gen_shapes())
        assert len(shapes) > 50
        for k, shape in enumerate(shapes):
            sys, _ = planted_system(np.random.default_rng([71, k]), *shape)
            self.assert_internal_rows(sys)

    def test_large_shapes(self):
        rng = np.random.default_rng(72)
        for shape in ((2, 1, 12, 10), (1, 2, 34, 25)):
            sys, _ = planted_system(rng, *shape)
            self.assert_internal_rows(sys)

    def test_demo(self, demo_plant):
        self.assert_internal_rows(demo_plant)

    def test_rounding_level_ties_keep_rows(self):
        # entries of B scaled by (1 +- 4 eps): Cz may move only at rounding
        # level, however the plant ties
        eps = np.finfo(float).eps
        for seed in range(200):
            rng = np.random.default_rng([75, seed])
            sys = planted_tie(rng)
            nudge = 1.0 + 4.0 * eps * rng.choice([-1.0, 1.0], sys.B.shape)
            moved = StateSpace(A=sys.A, B=sys.B * nudge, C=sys.C)
            nf, nf_moved = to_normal_form(sys), to_normal_form(moved)
            assert (nf.p1, nf.p2, nf.m) == (nf_moved.p1, nf_moved.p2, 4)
            shift = np.linalg.norm(nf_moved.transforms.T_x[:4]
                                   - nf.transforms.T_x[:4])
            assert shift <= 1e-12, (seed, shift)


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
        calls = []
        eig = linalg.eig

        def recording_eig(A):
            calls.append(np.array(A))
            return eig(A)

        monkeypatch.setattr(linalg, "eig", recording_eig)
        split = split_zero_dynamics(nf)
        assert (split.m_a, split.m_b) == (2, 2)
        assert split.stability is StabilityClass.LYAPUNOV_STABLE
        # the trusted eigenbasis gives U_a: A00^T is never decomposed
        assert nf.zero_spectrum.left is not None
        assert sum(np.array_equal(A, nf.A00) for A in calls) == 1
        assert not any(np.array_equal(A, nf.A00.T) for A in calls)

    def test_complement_basis_fixed_by_subspace(self):
        # Q_b depends on span U_a only: U_a -> U_a M leaves it in place
        rng = np.random.default_rng(89)
        for m, m_a in ((3, 2), (7, 2), (22, 12), (59, 34)):
            U = rng.standard_normal((m, m_a))
            M = well_conditioned(rng, m_a)
            Q = _complement_basis(U, m - m_a)
            assert np.linalg.norm(Q.T @ Q - np.eye(m - m_a)) <= 1e-12
            assert np.linalg.norm(U.T @ Q) <= 1e-12 * np.linalg.norm(U)
            moved = np.linalg.norm(_complement_basis(U @ M, m - m_a) - Q)
            assert moved <= 1e-12 * np.linalg.norm(Q), (m, moved)

    def test_jordan_hurwitz_block_decomposes_transpose(self, monkeypatch):
        # a skew pair and a 2x2 Jordan block at -1: V is numerically
        # singular, so U_a comes from eig(A00^T)
        rng = np.random.default_rng(83)
        blk = planted_normal_blocks(rng, 1, 1, 2, 2)
        canon = np.zeros((4, 4))
        canon[:2, :2] = [[0.0, 1.5], [-1.5, 0.0]]
        canon[2:, 2:] = [[-1.0, 1.0], [0.0, -1.0]]
        Tz = well_conditioned(rng, 4)
        blk["A00"] = np.linalg.solve(Tz, canon) @ Tz
        nf = normal_form_from_blocks(blk, 1, 1, 4)
        assert nf.zero_spectrum.left is None
        on_transpose = []
        eig = linalg.eig

        def recording_eig(A):
            on_transpose.append(np.array_equal(A, nf.A00.T))
            return eig(A)

        monkeypatch.setattr(linalg, "eig", recording_eig)
        split = split_zero_dynamics(nf)
        assert (split.m_a, split.m_b) == (2, 2)
        assert sum(on_transpose) == 1
        Ad = split.S @ nf.A00 @ split.S_inv
        scale = 1.0 + np.linalg.norm(nf.A00, 2)
        assert max(np.linalg.norm(Ad[:2, 2:], 2),
                   np.linalg.norm(Ad[2:, :2], 2)) <= 1e-7 * scale
        g = synthesize_ni(nf)
        assert g.verdict.holds and g.certificate.Y.shape == (nf.n, nf.n)

    def test_slow_hurwitz_pair_is_not_critical(self):
        # Re lambda = -5e-8 is Hurwitz for the phase decision (its
        # tolerance is 1e-8 (1 + ||A00||)), so the split must not make it
        # a skew block: NI and SSNI synthesis both deliver a verified law
        rng = np.random.default_rng(5)
        blk = planted_normal_blocks(rng, 2, 0, 0, 2)
        blk["A00"] = np.array([[-5e-8, 1.0], [-1.0, -5e-8]])
        nf = normal_form_from_blocks(blk, 2, 0, 2)
        split = split_zero_dynamics(nf)
        assert split.stability is StabilityClass.HURWITZ
        assert (split.m_a, split.m_b) == (0, 2)
        assert synthesize_ni(nf).verdict.holds
        assert synthesize_ssni(nf).verdict.holds

    def test_rotations_under_a_similarity(self):
        # a damped pair is Hurwitz, a Jordan chain of two equal rotations
        # is not Lyapunov stable, and two equal semisimple rotations (p1 =
        # 2, so that the plant is controllable) split exactly skew
        rng = np.random.default_rng(31)
        rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
        for k in range(60):
            w = rng.uniform(0.5, 3.0, 2)
            if k % 3 == 0:      # one mode damped by 1e-4 .. 1e-1
                J = np.kron(np.diag(w), rot)
                J[0, 0] = J[1, 1] = -10.0 ** rng.uniform(-4, -1)
            else:               # two equal rotations, chained when k % 3 == 1
                J = np.kron(np.diag([w[0], w[0]]), rot)
                J[0:2, 2:4] = np.eye(2) if k % 3 == 1 else 0.0
            T = well_conditioned(rng, 4)
            blk = planted_normal_blocks(rng, 2, 0, 0, 4)
            blk["A00"] = T @ J @ np.linalg.inv(T)
            nf = normal_form_from_blocks(blk, 2, 0, 4)
            if k % 3 == 1:
                with pytest.raises(NotWeaklyMinimumPhaseError):
                    split_zero_dynamics(nf)
                continue
            split = split_zero_dynamics(nf)
            if k % 3 == 0:
                assert (split.m_a, split.m_b) == (2, 2)
                continue
            assert (split.m_a, split.m_b) == (4, 0)
            assert np.array_equal(split.A00a, -split.A00a.T)
            assert np.linalg.norm(split.S @ split.S_inv - np.eye(4)) <= 1e-13
            assert synthesize_ni(nf).verdict.holds

    @pytest.mark.parametrize("name", sorted(EDGE_ZERO_DYNAMICS))
    def test_edge_of_the_decisions(self, name):
        # one decision on where each eigenvalue lies: a zero at the origin
        # is a verdict, one too close to call is a NumericalError, and
        # nothing in the band reaches the syntheses' inverses
        A00, error = EDGE_ZERO_DYNAMICS[name]
        with pytest.raises(error) as info:
            split_zero_dynamics(to_normal_form(edge_plant(A00)))
        assert type(info.value) is error

    def test_real_eigenbasis_matches_its_loop(self):
        # the loop over the on-axis indices the split ran, as reference
        def reference(res, vectors):
            cols, tol = [], res.axis_tol
            for k in np.flatnonzero(np.abs(res.values.real) <= tol):
                v = vectors[:, k]
                if abs(res.values[k].imag) <= tol:
                    cols.append(np.real(v))
                elif res.values[k].imag < 0:
                    cols += [np.real(v), np.imag(v)]
            return np.column_stack(cols) if cols else \
                np.zeros((vectors.shape[0], 0))

        rng = np.random.default_rng(91)
        for canon in ([[0.0, 1.5], [-1.5, 0.0]], [[0.0, 1e-9], [-1e-9, 0.0]],
                      np.diag([0.0, -1.0]), [[-1.0, 2.0], [-2.0, -1.0]]):
            Tz = well_conditioned(rng, 2)
            res = linalg.eig(np.linalg.solve(Tz, canon) @ Tz)
            for vectors in (res.vectors, res.left.T):
                assert np.array_equal(_real_eigenbasis(res, vectors),
                                      reference(res, vectors))

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
