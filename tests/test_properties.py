"""Property tests, run with a fixed example sequence (``derandomize``)
and a bounded budget.

* ``linalg.frobenius_clears``: a norm gate ``||X||_2 <= tol max(1, s)``
  decided bound-first, ``frobenius_clears(X, tol)`` and only then the SVD,
  gives the verdict of the SVD alone, on random, rank-1 and near-threshold
  matrices, including ones scaled onto the bound ``||X||_F = tol / 2``.
* The split's blocks decomposed by none of their own: over random
  splittable internal dynamics (a skew block and a Hurwitz block under a
  random similarity), no kernel solve runs, the critical block is exactly
  skew, ``S S_inv`` is I to 1e-13, and the Lyapunov solution of the
  Hurwitz block from the eigenvectors carried from ``eig(A00)`` matches
  that of the block's own ``eig`` to 1e-10, relative, and passes its
  residual gate without the vectorized fallback; an untrusted eigenbasis
  (a Jordan block) still takes the direct route and certifies.
* ``statespace.simulate`` from doubled transition powers: over stable,
  skew, unstable and saddle systems (n <= 6, up to 3 000 steps, x0 scaled
  by 1e-300, 1 or 1e300), it raises ``SimulationDivergedError`` with the
  ``t_bad`` of the per-step loop ``x <- e^(dt A) x`` exactly when that
  loop goes non-finite, and otherwise its samples are within 1e-12 of the
  loop's largest sample (for a saddle, of ``kappa(T) e^(lambda_max t_end)
  ||x0||_1``, the rounding of x0 the unstable modes grow); a saddle whose
  doubled product overflows where the steps do not returns the loop's
  samples bit for bit.
* ``cli._norm``, the norm the ``simulate`` report takes of a
  power-of-two-scaled vector, equals ``np.linalg.norm`` bit for bit on
  vectors of up to 8 entries with magnitudes from 1e-12 to 1e12, where the
  plain norm neither overflows nor underflows.
* The zero dynamics' PBH screen (``NormalForm.screened_minimal``) clears
  no plant that is not minimal: over ``planted_system`` plants (p <= 2,
  n <= 7) given one more mode at ``-U(0.5, 3)``, not driven (a zero row
  of ``B``) or not seen (a zero column of ``C``), then hidden by ``U
  diag(logspace(0, log10 kappa)) V`` with kappa in {1, 1e2, 1e4}, the
  screen clears only where ``is_minimal`` calls the plant minimal, and
  ``robust_stabilize`` reports the plant's own PBH verdict first.
* ``linalg.frobenius_norm`` is ``np.linalg.norm`` bit for bit, with
  ``axis`` None, 0 and 1, on real and complex arrays of shapes 0 x k,
  1 x k and k x m, contiguous, transposed or strided, with magnitudes from
  1e-300 to 1e300, including sums of squares that overflow to inf or
  underflow to zero.
* The bound-first gates of the structure layer give the SVD's verdict:
  ``linalg.full_rank_inverse``, which passes a square matrix by
  ``condition_clears`` of it and its inverse, returns None exactly where
  ``rank`` calls the matrix singular, and else its inverse (the split's
  gate), and ``TransformSet.build`` returns the inverse, or raises the error class
  and message, of its gates decided by the SVD alone, on matrices of
  ``kappa_2`` from 1 to 1e17, exactly singular ones, and entries scaled
  from 1e-150 to 1e300, where ``||.||_F`` overflows but the SVD does not.
* ``C B`` and ``C A B`` decide the output transformation: on
  ``planted_system`` plants (p <= 3, n <= 8) behind a full output mixing
  ``relative_degree_vector`` and ``find_output_transformation`` recover
  the planted ``(p1, p2)``, and on the (1, 1) plant hidden behind a
  diagonal or general state similarity of condition up to 1e3 they give
  ``(1, 1)``, each with ``||T_y T_y^T - I||_2 <= 1e-14``; on plants with
  an output of degree 3 the search raises ``NoRdLeqTwoError``.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from nisynth import StateSpace, cli, is_minimal, linalg, simulate  # noqa: E402
from nisynth.errors import (  # noqa: E402
    InputError,
    NisynthError,
    NoRdLeqTwoError,
    NumericalError,
    NotControllableError,
    SimulationDivergedError,
    VerdictError,
)
from nisynth.linalg import TOL, spectral_norm  # noqa: E402
from nisynth.structure import (  # noqa: E402
    TransformSet,
    find_output_transformation,
    relative_degree_vector,
    to_normal_form,
)
from nisynth.synth import robust_stabilize, synthesize_ni  # noqa: E402

from gen import (  # noqa: E402
    degree3_system,
    normal_form_from_blocks,
    planted_normal_blocks,
    planted_system,
    random_hurwitz,
    random_orthogonal,
    random_shape,
    well_conditioned,
)

#: relative offsets of a matrix's norm from the bound or the limit
OFFSETS = (-1e-3, -1e-15, 0.0, 1e-15, 1e-3)


@st.composite
def gates(draw):
    """``(X, tol, s)``: a matrix, a tolerance and the scale of its limit."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    X = rng.standard_normal((rows, cols))
    if draw(st.booleans()):  # rank 1: ||X||_2 = ||X||_F
        X = np.outer(X[:, 0], X[0])
    tol = draw(st.sampled_from((1e-10, 1e-8, 1e-5)))
    s = draw(st.sampled_from((0.0, 0.5, 1.0, 3.0, 1e3)))
    offset = 1.0 + draw(st.sampled_from(OFFSETS))
    target = draw(st.sampled_from(("bound", "limit", "free")))
    if target == "bound":
        X *= offset * (tol / 2.0) / np.linalg.norm(X)
    elif target == "limit":
        X *= offset * tol * max(1.0, s) / spectral_norm(X)
    else:
        X *= tol * draw(st.floats(1e-3, 1e3))
    return X, tol, s


@settings(derandomize=True, max_examples=400, deadline=None)
@given(gates())
def test_bound_first_gate_gives_the_svd_verdict(gate):
    X, tol, s = gate
    svd_verdict = spectral_norm(X) <= tol * max(1.0, s)
    if linalg.frobenius_clears(X, tol):
        assert svd_verdict
    bound_first = linalg.frobenius_clears(X, tol) or svd_verdict
    assert bound_first == svd_verdict


@st.composite
def splittable(draw):
    """A normal form (p1 = 1, p2 in {0, 1}) whose ``A00`` is a skew block
    of pairs +-j w, w at least 0.3 apart in [0.5, 2.1], and a Hurwitz
    block, under a random similarity of condition number at most 4."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m_a = draw(st.sampled_from((0, 2, 4)))
    m_b = draw(st.integers(0 if m_a else 1, 4))
    p2 = draw(st.integers(0, 1))
    m = m_a + m_b
    canon = np.zeros((m, m))
    for k in range(m_a // 2):
        w = 0.5 + 0.9 * k + rng.uniform(0.0, 0.6)
        canon[2 * k:2 * k + 2, 2 * k:2 * k + 2] = [[0.0, w], [-w, 0.0]]
    Q = random_orthogonal(rng, m_a)
    canon[:m_a, :m_a] = Q @ canon[:m_a, :m_a] @ Q.T
    canon[m_a:, m_a:] = random_hurwitz(rng, m_b)
    Tz = well_conditioned(rng, m)
    blk = planted_normal_blocks(rng, 1, p2, m_a, m_b)
    blk["A00"] = np.linalg.solve(Tz, canon) @ Tz
    return normal_form_from_blocks(blk, 1, p2, m)


def recorded_synthesis(nf):
    """``synthesize_ni(nf)`` with the Lyapunov solves it runs and the
    spectra they receive, and the number of vectorized (``np.kron``)
    solves."""
    seen, krons = [], []
    lyapunov, kron = linalg.solve_lyapunov, np.kron

    def recording_lyapunov(A, Q, spectrum=None):
        seen.append((np.array(A), np.array(Q), spectrum))
        return lyapunov(A, Q, spectrum)

    def recording_kron(*args):
        krons.append(args)
        return kron(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "solve_lyapunov", recording_lyapunov)
        mp.setattr(np, "kron", recording_kron)
        gains = synthesize_ni(nf)
    return gains, [call for call in seen if call[0].size], len(krons)


def assert_split_without_congruence(nf, split):
    """No kernel solve exists to run: the critical block is exactly skew,
    and ``S`` inverts ``S_inv`` to 1e-13."""
    assert not hasattr(linalg, "kernel_pd_solution")
    assert np.array_equal(split.A00a, -split.A00a.T)
    assert np.linalg.norm(split.S @ split.S_inv - np.eye(nf.m)) <= 1e-13


@settings(derandomize=True, max_examples=60, deadline=None)
@given(splittable())
def test_carried_block_spectra_match_the_direct_route(nf):
    assert nf.zero_spectrum.left is not None
    gains, seen, krons = recorded_synthesis(nf)
    assert gains.verdict.holds
    assert krons == 0
    split = gains.split
    assert_split_without_congruence(nf, split)
    assert len(seen) == int(split.m_b > 0)
    for A, Q, spectrum in seen:
        assert spectrum is not None
        P = linalg.solve_lyapunov(A, Q, spectrum)
        direct = linalg.solve_lyapunov(A, Q)
        residual = spectral_norm(A.T @ P + P @ A + Q)
        bound = TOL.lyapunov_residual * (
            spectral_norm(A) * spectral_norm(P) + spectral_norm(Q))
        assert np.linalg.norm(P - direct) <= 1e-10 * np.linalg.norm(direct)
        assert residual <= bound, (residual, bound)


def test_untrusted_eigenbasis_takes_the_direct_route():
    # a skew pair and a 2x2 Jordan block at -1: V is numerically singular,
    # so the Hurwitz block is decomposed on its own, and the law still
    # certifies
    rng = np.random.default_rng(83)
    blk = planted_normal_blocks(rng, 1, 1, 2, 2)
    canon = np.zeros((4, 4))
    canon[:2, :2] = [[0.0, 1.5], [-1.5, 0.0]]
    canon[2:, 2:] = [[-1.0, 1.0], [0.0, -1.0]]
    Tz = well_conditioned(rng, 4)
    blk["A00"] = np.linalg.solve(Tz, canon) @ Tz
    nf = normal_form_from_blocks(blk, 1, 1, 4)
    assert nf.zero_spectrum.left is None
    gains, seen, _ = recorded_synthesis(nf)
    assert [spectrum for *_, spectrum in seen] == [None]
    assert gains.split.hurwitz_spectrum is None
    assert_split_without_congruence(nf, gains.split)
    assert gains.verdict.holds


@st.composite
def zero_input_runs(draw):
    """``(family, A, x0, t_end, dt, log_growth)``: ``A = T J T^-1`` with
    ``T`` of condition number at most 4 and ``J`` diagonal (stable,
    unstable, or saddle with x0 on its stable subspace) or of rotations
    (skew); ``log_growth`` is ``log(kappa(T) e^(max(lambda, 0) t_end)
    ||x0||_1)``, which bounds ``||e^(t A) x0||`` for ``t <= t_end``."""
    family = draw(st.sampled_from(("stable", "skew", "unstable", "saddle")))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if family == "skew":
        n = 2 * draw(st.integers(1, 3))
        lam, J = np.zeros(n), np.zeros((n, n))
        for k in range(0, n, 2):
            w = rng.uniform(0.5, 2.0)
            J[k:k + 2, k:k + 2] = [[0.0, w], [-w, 0.0]]
    else:
        n = draw(st.integers(2 if family == "saddle" else 1, 6))
        unstable = {"stable": 0, "unstable": n}.get(family)
        if unstable is None:
            unstable = draw(st.integers(1, n - 1))
        lam = np.concatenate([rng.uniform(0.2, 1.5, unstable),
                              -rng.uniform(0.2, 1.5, n - unstable)])
        J = np.diag(lam)
    T = well_conditioned(rng, n)
    A = T @ J @ np.linalg.inv(T)
    if family == "saddle":
        x0 = T[:, unstable:] @ rng.standard_normal(n - unstable)
    else:
        x0 = rng.standard_normal(n)
    x0 *= draw(st.sampled_from((1e-300, 1.0, 1e300)))
    dt = draw(st.sampled_from((0.01, 0.1, 0.5)))
    steps = draw(st.integers(1, 3000))
    t_end = dt * (steps - draw(st.sampled_from((0.0, 0.3))))
    log_growth = (np.log(np.linalg.cond(T)) + max(lam.max(), 0.0) * t_end
                  + np.log(np.abs(x0).sum()))
    return family, A, x0, t_end, dt, log_growth


def stepped(A, x0, t_end, dt):
    """The per-step loop ``x <- e^(dt A) x``, the last step with its own
    ``e^(h A)`` when it is short: the time of its first non-finite sample
    (None when there is none) and its samples."""
    steps = int(max(1.0, np.ceil(t_end / dt - TOL.step_ratio)))
    times = np.arange(steps + 1) * dt
    times[-1] = t_end
    with np.errstate(over="ignore", invalid="ignore"):
        phi = phi_last = linalg.expm(A * dt)
        if steps - t_end / dt > TOL.step_ratio:
            phi_last = linalg.expm(A * (t_end - times[-2]))
        x, states = x0, [x0]
        for k in range(steps):
            x = (phi_last if k == steps - 1 else phi) @ x
            states.append(x)
    states = np.array(states)
    bad = ~np.isfinite(states).all(axis=1)
    return (float(times[bad.argmax()]) if bad.any() else None), states


def unforced(A):
    n = A.shape[0]
    return StateSpace(A=A, B=np.zeros((n, 1)), C=np.eye(n)[:1])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(zero_input_runs())
def test_doubled_powers_keep_the_per_step_outcome(run):
    family, A, x0, t_end, dt, log_growth = run
    t_bad, states = stepped(A, x0, t_end, dt)
    if t_bad is not None:
        with pytest.raises(SimulationDivergedError) as exc:
            simulate(unforced(A), x0, t_end, dt)
        assert exc.value.t_bad == t_bad
        return
    traj = simulate(unforced(A), x0, t_end, dt)
    with np.errstate(over="ignore"):
        deviation = float(np.abs(traj.states - states).max())
    if family == "saddle":
        assert deviation == 0.0 or \
            np.log(deviation) <= np.log(1e-12) + log_growth
    else:
        assert deviation <= 1e-12 * np.abs(states).max()


def test_saddle_whose_doubled_product_overflows_takes_the_steps():
    # eigenvalues +-1, x0 on the stable eigenvector (1, -1): e^(32 A) has
    # entries cosh 32 = 4e13, so the block from sample 0 to sample 32
    # overflows, while the steps' rounding, grown by e^40, stays near 1e302
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    x0 = 1e300 * np.array([1.0, -1.0])
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(linalg.expm(32.0 * A) @ x0).all()
    t_bad, states = stepped(A, x0, 40.0, 1.0)
    assert t_bad is None
    traj = simulate(unforced(A), x0, t_end=40.0, dt=1.0)
    assert np.array_equal(traj.states, states)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
def test_scaled_norm_is_the_plain_norm_in_range(size, seed):
    rng = np.random.default_rng(seed)
    x = rng.choice((-1.0, 1.0), size) * 10.0 ** rng.uniform(-12, 12, size)
    assert cli._norm(x) == float(np.linalg.norm(x))


@st.composite
def norm_inputs(draw):
    """``(X, axis)``: a real or complex array of random magnitudes, as a
    contiguous array or a transposed or strided view."""
    k = draw(st.integers(2, 8))
    rows = draw(st.sampled_from((0, 1, k, k)))
    cols = draw(st.integers(0, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # decades of magnitude: narrow bands make the order of the sum show
    width = draw(st.sampled_from((1, 10, 600)))
    low = draw(st.integers(-300, 300 - width))
    high = low + width

    def part(shape):
        return rng.choice((-1.0, 1.0), shape) * \
            10.0 ** rng.uniform(low, high, shape)

    layout = draw(st.sampled_from(("contiguous", "transposed", "strided")))
    shape = (cols, rows) if layout == "transposed" else \
        (rows, 2 * cols) if layout == "strided" else (rows, cols)
    X = part(shape)
    if draw(st.booleans()):
        X = X + 1j * part(shape)
    X = X.T if layout == "transposed" else \
        X[:, ::2] if layout == "strided" else X
    return X, draw(st.sampled_from((None, 0, 1)))


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(norm_inputs())
def test_norm_helper_is_numpys_norm(case):
    X, axis = case
    # a sum of squares beyond the float range is inf in both, with the
    # same warning
    with np.errstate(over="ignore", under="ignore"):
        ref = np.linalg.norm(X, axis=axis)
        out = linalg.frobenius_norm(X, axis=axis)
    if axis is None:
        assert type(out) is float
    out = np.asarray(out)
    assert out.dtype == ref.dtype and out.shape == ref.shape
    assert out.tobytes() == np.asarray(ref).tobytes()


@st.composite
def hidden_mode_plants(draw):
    """A planted minimal plant with one mode at ``-U(0.5, 3)`` added that
    the input does not drive or the output does not see, under a state
    similarity of condition number ``kappa``."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    hidden = draw(st.sampled_from(("uncontrollable", "unobservable")))
    kappa = draw(st.sampled_from((1.0, 1e2, 1e4)))
    planted, _ = planted_system(rng, *random_shape(rng, max_p=2, max_n=7))
    n, p = planted.n, planted.n_inputs
    A = np.zeros((n + 1, n + 1))
    A[:n, :n] = planted.A
    A[n, n] = -rng.uniform(0.5, 3.0)
    b, c = rng.standard_normal((1, p)), rng.standard_normal((p, 1))
    if hidden == "uncontrollable":
        b = np.zeros((1, p))
    else:
        c = np.zeros((p, 1))
    T = random_orthogonal(rng, n + 1) @ np.diag(
        np.logspace(0.0, np.log10(kappa), n + 1)) @ \
        random_orthogonal(rng, n + 1)
    Ti = np.linalg.inv(T)
    return StateSpace(A=T @ A @ Ti, B=T @ np.vstack([planted.B, b]),
                      C=np.hstack([planted.C, c]) @ Ti)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(hidden_mode_plants())
def test_zero_dynamics_screen_clears_only_minimal_plants(plant):
    minim = is_minimal(plant)
    try:
        T_y, _ = find_output_transformation(plant)
        nf = to_normal_form(plant, T_y)
    except NisynthError:
        nf = None      # no normal form, no screen: is_minimal decides
    if nf is not None and nf.screened_minimal:
        assert minim.minimal
    # the first verdict is the plant's own PBH test's, as before the
    # screen; a plant that test calls minimal takes the pipeline either way
    if not minim.controllable:
        with pytest.raises(NotControllableError,
                           match="^plant realization is not controllable$"):
            robust_stabilize(plant)
    elif not minim.observable:
        with pytest.raises(VerdictError,
                           match="^plant realization is not observable$") \
                as exc:
            robust_stabilize(plant)
        assert type(exc.value) is VerdictError


#: entry scales of the bound-first gates' inputs: ``||.||_F`` of a 2 x 2
#: matrix overflows from about 1e154, the SVD only near 1e308
SCALES = (1.0, 1e-150, 1e150, 1e154, 1e155, 1e160, 1e300)


@st.composite
def conditioned(draw):
    """A square matrix of ``kappa_2`` from 1 to 1e17, or exactly singular,
    with its entries scaled by one of ``SCALES``."""
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(("kappa", "zero-row", "equal-columns")))
    if kind == "kappa":
        decades = draw(st.floats(0.0, 17.0))
        M = random_orthogonal(rng, n) * np.logspace(0.0, -decades, n) \
            @ random_orthogonal(rng, n)
    else:
        M = rng.standard_normal((n, n))
        if kind == "equal-columns" and n > 1:
            M[:, -1] = M[:, 0]
        else:
            M[-1] = 0.0
    return M * draw(st.sampled_from(SCALES))


def outcome(fn, *args):
    """``("ok", result)``, or the class and message of the error raised."""
    try:
        return "ok", fn(*args)
    except (NisynthError, np.linalg.LinAlgError) as exc:
        return type(exc), str(exc)


def rank_inverse(M):
    """``full_rank_inverse`` by the SVD alone: None when ``rank(M) < n``,
    else ``inv(M)``."""
    return None if linalg.rank(M) < M.shape[0] else np.linalg.inv(M)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(conditioned())
def test_full_rank_inverse_gives_the_rank_verdict(M):
    got = outcome(linalg.full_rank_inverse, M)
    want = outcome(rank_inverse, M)
    assert got[0] == want[0]
    if got[0] != "ok":
        assert got[1] == want[1]
    elif want[1] is None:
        assert got[1] is None
    else:
        assert np.array_equal(got[1], want[1])
        if linalg.condition_clears(M, got[1]):
            assert linalg.rank(M) == M.shape[0]


def svd_inverse(M, name):
    """``TransformSet.build``'s gates for one transform, decided by the
    SVD alone: singular by ``rank``'s rule, then ``||M M^-1 - I||_2 <=
    TOL.inverse_residual max(1, ||M||_2)``."""
    n = M.shape[0]
    sv = np.linalg.svd(M, compute_uv=False)
    if linalg.sv_rank(sv, M.shape) < n:
        raise InputError(f"{name} is singular")
    Minv = np.linalg.inv(M)
    with np.errstate(over="ignore", invalid="ignore"):
        defect = M @ Minv
    defect.flat[::n + 1] -= 1.0
    residual = spectral_norm(defect)
    if residual > TOL.inverse_residual * max(1.0, float(sv[0])):
        raise NumericalError(
            f"{name} inverse residual {residual:.3e} too large")
    return Minv


@settings(derandomize=True, max_examples=400, deadline=None)
@given(conditioned())
def test_transform_gates_give_the_svd_verdict(M):
    got = outcome(lambda: TransformSet.build(np.eye(1), M, np.eye(1)).T_x_inv)
    want = outcome(svd_inverse, M, "T_x")
    assert got[0] == want[0]
    if got[0] == "ok":
        assert np.array_equal(got[1], want[1])
    else:
        assert got[1] == want[1]


@st.composite
def two_product_plants(draw):
    """``(plant, want)``: a ``planted_system`` with its planted ``(p1,
    p2)`` behind a full output mixing; a ``degree3_system`` (``want``
    None); or the ``(1, 1, 2, 2)`` plant hidden as ``(T A T^-1, T B, C
    T^-1)``, with ``T`` of condition ``kappa <= 1e3`` diagonal, ``diag(s)``
    with ``s = logspace(0, log10 kappa, n)`` permuted, or general, ``U
    diag(s) V``."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(("planted", "degree-3", "diagonal",
                                 "general")))
    if kind == "planted":
        shape = random_shape(rng, max_p=3, max_n=8)
        return planted_system(rng, *shape)[0], shape[:2]
    if kind == "degree-3":
        return degree3_system(rng, int(rng.integers(0, 3)),
                              int(rng.integers(1, 4))), None
    plant, _ = planted_system(rng, 1, 1, 2, 2)
    s = np.logspace(0.0, np.log10(draw(st.sampled_from(
        (1.0, 10.0, 1e2, 1e3)))), plant.n)
    T = np.diag(rng.permutation(s)) if kind == "diagonal" else \
        random_orthogonal(rng, plant.n) * s @ random_orthogonal(rng, plant.n)
    Ti = np.linalg.inv(T)
    return StateSpace(A=T @ plant.A @ Ti, B=T @ plant.B,
                      C=plant.C @ Ti), (1, 1)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(two_product_plants())
def test_two_products_decide_the_output_transformation(case):
    plant, want = case
    if want is None:
        assert relative_degree_vector(plant).p2 == 0
        with pytest.raises(NoRdLeqTwoError):
            find_output_transformation(plant)
        return
    info = relative_degree_vector(plant)
    assert (info.p1, info.p2) == want
    T_y, found = find_output_transformation(plant)
    assert (found.p1, found.p2) == want
    assert found.r == (1,) * want[0] + (2,) * want[1]
    assert spectral_norm(T_y @ T_y.T - np.eye(len(T_y))) <= 1e-14
