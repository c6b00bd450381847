"""Property tests, run with a fixed example sequence (``derandomize``)
and a bounded budget.

* ``linalg.frobenius_clears``: a norm gate ``||X||_2 <= tol max(1, s)``
  decided bound-first, ``frobenius_clears(X, tol)`` and only then the SVD,
  gives the verdict of the SVD alone, on random, rank-1 and near-threshold
  matrices, including ones scaled onto the bound ``||X||_F = tol / 2``.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from nisynth import linalg  # noqa: E402
from nisynth.linalg import spectral_norm  # noqa: E402

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
