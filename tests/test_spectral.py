"""Tests for the Perron eigenvalue machinery.

Numeric pins were frozen from runs cross-checked two ways (power iteration
on the block companion vs bisection on the diagonal-scaling
characterization), which agreed to ~1e-12 everywhere.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from bootperc import counting as ct
from bootperc import spectral as sp


# ---------------------------------------------------------------------------
# matrix construction


def test_build_A_1x1():
    A = sp.build_A(2, 1)
    assert A.shape == (1, 1)
    assert A[0, 0] == pytest.approx(math.exp(-1), rel=1e-15)


def test_build_A_2x2_entries():
    A = sp.build_A(2, 2)
    assert A[0, 0] == pytest.approx(math.exp(-1), rel=1e-14)
    assert A[0, 1] == pytest.approx(2 * math.exp(-1), rel=1e-14)
    assert A[1, 0] == pytest.approx(math.exp(-2) / 2, rel=1e-14)
    assert A[1, 1] == pytest.approx(2 * math.exp(-2), rel=1e-14)


def test_build_A_log_consistent():
    for r, ell in [(2, 5), (3, 8), (4, 12)]:
        assert np.allclose(np.exp(sp.build_A_log(r, ell)), sp.build_A(r, ell))


def test_build_A_positive():
    assert np.all(sp.build_A(3, 30) > 0)


def test_build_A_validation():
    with pytest.raises(ValueError):
        sp.build_A(1, 5)
    with pytest.raises(ValueError):
        sp.build_A(2, 0)


def test_companion_layout_ell2():
    A = sp.build_A(2, 2)
    P = sp.companion_psi(A).toarray()
    expected = np.array(
        [
            [A[0, 0], A[0, 1], 0.0, 0.0],
            [0.0, 0.0, A[1, 0], A[1, 1]],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
        ]
    )
    assert np.array_equal(P, expected)


def test_companion_ell1_is_input():
    P = sp.companion_psi(np.array([[0.5]])).toarray()
    assert P.shape == (1, 1) and P[0, 0] == 0.5


def test_companion_psi_has_no_ell_cap():
    # psi(M) is never formed, so a large ell costs O(ell^2) memory only
    psi = sp.companion_psi(np.ones((65, 65)))
    assert psi.shape == (65 * 65, 65 * 65)
    x = np.arange(65 * 65, dtype=np.float64)
    y = psi @ x
    assert np.array_equal(y[65:], x[:-65])
    assert np.allclose(y[:65], x.reshape(65, 65).sum(axis=1))


def test_companion_non_square():
    with pytest.raises(ValueError):
        sp.companion_psi(np.ones((2, 3)))


@st.composite
def _nonnegative_square(draw, max_ell=12):
    ell = draw(st.integers(1, max_ell))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    M = rng.random((ell, ell)) * 10.0 ** draw(st.integers(-6, 6))
    M[rng.random((ell, ell)) < draw(st.sampled_from([0.0, 0.3, 0.7]))] = 0.0
    return M, rng


@settings(max_examples=200, deadline=None)
@given(_nonnegative_square())
def test_companion_operator_matches_dense(case):
    # the top block plus shift against the dense layout: same products,
    # summed in another order, so equal to a few units in the last place
    M, rng = case
    psi = sp.companion_psi(M)
    P = psi.toarray()
    assert psi.shape == P.shape == (M.size, M.size)
    x = rng.random(M.size)
    x[rng.random(M.size) < 0.2] = 0.0
    got, want = psi @ x, P @ x
    assert np.all(np.abs(got - want) <= 1e-15 * want)
    assert np.array_equal(psi.diagonal(), np.diagonal(P))
    assert sp.is_primitive(psi) == sp.is_primitive(P)


def test_companion_operator_rejects_wrong_length():
    psi = sp.companion_psi(sp.build_A(2, 3))
    with pytest.raises(ValueError):
        psi @ np.ones(3)


# ---------------------------------------------------------------------------
# primitivity


def test_is_primitive_cases():
    assert sp.is_primitive(np.ones((3, 3)))
    assert not sp.is_primitive(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert not sp.is_primitive(np.eye(3))
    assert sp.is_primitive(np.array([[1.0, 1.0], [1.0, 0.0]]))
    assert sp.is_primitive(sp.companion_psi(sp.build_A(2, 3)).toarray())


def _wielandt_primitive(P: np.ndarray) -> bool:
    # Wielandt (1950): a nonnegative n x n matrix is primitive iff its
    # ((n - 1)^2 + 1)-th power is positive; powers of the 0/1 pattern by
    # repeated squaring
    B = (P > 0).astype(np.int64)
    R = np.eye(B.shape[0], dtype=np.int64)
    e = (B.shape[0] - 1) ** 2 + 1
    while e:
        if e & 1:
            R = (R @ B > 0).astype(np.int64)
        B = (B @ B > 0).astype(np.int64)
        e >>= 1
    return bool(np.all(R > 0))


@st.composite
def _zero_one_square(draw, max_n):
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return (rng.random((n, n)) < draw(st.floats(0.0, 1.0))).astype(np.float64)


@settings(max_examples=400, deadline=None)
@given(_zero_one_square(8))
def test_is_primitive_matches_wielandt_on_dense_patterns(M):
    assert sp.is_primitive(M) == _wielandt_primitive(M)


@settings(max_examples=300, deadline=None)
@given(_zero_one_square(4))
# psi's node 0 reaches every node, but node 1 (M's zero row) has no out-edge
@example(np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]))
def test_is_primitive_matches_wielandt_on_companion_patterns(M):
    psi = sp.companion_psi(M)
    assert sp.is_primitive(psi) == _wielandt_primitive(psi.toarray())


# ---------------------------------------------------------------------------
# power iteration


def test_perron_symmetric_2x2():
    res = sp.perron(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert res.value == pytest.approx(3.0, rel=1e-12)
    assert np.allclose(res.vector, [0.5, 0.5], atol=1e-10)
    assert res.iterations >= 1


def test_perron_scaled_identity():
    res = sp.perron(3.0 * np.eye(4))
    assert res.value == pytest.approx(3.0, rel=1e-14)
    assert np.allclose(res.vector, 0.25)


def test_perron_rejects_periodic():
    with pytest.raises(sp.NotPrimitiveError):
        sp.perron(np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_perron_rejects_negative():
    with pytest.raises(ValueError):
        sp.perron(np.array([[1.0, -0.1], [0.5, 1.0]]))


@pytest.mark.parametrize("tol", [0.0, -1e-13, math.nan, math.inf])
def test_perron_and_dlambda_reject_bad_tol(tol):
    with pytest.raises(ValueError, match="tol"):
        sp.perron(np.eye(2), tol=tol)
    with pytest.raises(ValueError, match="tol"):
        sp.dlambda_report(2, 5, tol=tol)


def test_tol_floors():
    # below the floors no stopping test can pass; at them, runs go ahead
    with pytest.raises(ValueError, match="tol must be >="):
        sp.perron(np.eye(2), tol=sp.PERRON_MIN_TOL / 2)
    assert sp.perron(3.0 * np.eye(2), tol=sp.PERRON_MIN_TOL).value == 3.0
    for tol in (1e-20, 3e-15):
        with pytest.raises(ValueError, match="tol must be >="):
            sp.dlambda_report(2, 40, tol=tol)
    # the inner solves run at tol * 1e-3, which must clear perron's floor
    rep = sp.dlambda_report(2, 1, tol=sp.DLAMBDA_MIN_TOL)
    assert rep["lambda"] == pytest.approx(math.exp(-1), rel=1e-14)


def test_perron_scalar_companion():
    res = sp.perron(sp.companion_psi(sp.build_A(2, 1)))
    assert res.value == pytest.approx(math.exp(-1), rel=1e-12)


def test_perron_eigen_residual():
    M = sp.companion_psi(sp.build_A(2, 5))
    res = sp.perron(M)
    resid = np.max(np.abs(M @ res.vector - res.value * res.vector))
    assert resid < 1e-10 * np.max(res.vector)


@pytest.mark.parametrize("r", [2, 3, 4, 5])
@pytest.mark.parametrize("ell", [1, 2, 9, 23, 40])
def test_perron_operator_matches_dense(r, ell):
    psi = sp.companion_psi(sp.build_A(r, ell))
    fast, dense = sp.perron(psi), sp.perron(psi.toarray())
    assert math.isclose(fast.value, dense.value, rel_tol=1e-13, abs_tol=0.0)
    assert np.max(np.abs(fast.vector - dense.vector)) <= 1e-12 * np.max(dense.vector)
    assert abs(fast.iterations - dense.iterations) <= 1


def test_perron_operator_checks_entries_and_pattern():
    for bad in (np.array([[1.0, -0.1], [0.5, 1.0]]), np.array([[1.0, np.nan], [1, 1]])):
        with pytest.raises(ValueError):
            sp.perron(sp.companion_psi(bad))
    # psi of the zero matrix is a nilpotent shift; psi of [[0]] is [[0]]
    for M in (np.zeros((3, 3)), np.zeros((1, 1))):
        with pytest.raises(sp.NotPrimitiveError):
            sp.perron(sp.companion_psi(M))


# ---------------------------------------------------------------------------
# diagonal-scaling characterization


def test_dlambda_scalar_case():
    assert sp.lambda_via_dlambda(2, 1) == pytest.approx(math.exp(-1), abs=1e-9)


def test_dlambda_matches_companion_perron():
    for r, ell in [(2, 5), (2, 10), (3, 5)]:
        d = sp.lambda_via_dlambda(r, ell, tol=1e-12)
        p = sp.perron(sp.companion_psi(sp.build_A(r, ell))).value
        assert abs(d - p) < 1e-10


def test_lambda_pins():
    # frozen from the two-solver cross-check
    assert sp.lambda_via_dlambda(2, 2, tol=1e-12) == pytest.approx(
        0.6628958472738304, abs=1e-9
    )
    assert sp.lambda_via_dlambda(3, 10, tol=1e-12) == pytest.approx(
        0.3563265691288985, abs=1e-9
    )


def test_lambda_increasing_in_ell():
    vals = [sp.lambda_via_dlambda(2, ell, tol=1e-11) for ell in (2, 4, 8, 16)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_lambda_growth_rate_bound():
    for r in (2, 3, 4):
        bound = math.exp(-(r - 2)) + 1e-9
        for ell in (1, 5, 20):
            assert sp.lambda_via_dlambda(r, ell, tol=1e-11) <= bound


def test_lambda_2_40_band():
    lam = sp.lambda_via_dlambda(2, 40, tol=1e-11)
    assert 0.9 <= lam <= 1.0


def test_dlambda_report_shape():
    rep = sp.dlambda_report(3, 4, tol=1e-10)
    assert set(rep) == {"r", "ell", "lambda", "outer_iterations", "inner_iterations"}
    assert rep["outer_iterations"] >= 1
    assert rep["inner_iterations"] > rep["outer_iterations"]


# ---------------------------------------------------------------------------
# eigenvector lift


def test_lift_vector_layout():
    v = np.array([1.0, 2.0])
    lam = 0.5
    assert np.allclose(sp.lift_vector(v, lam), [0.5, 1.0, 1.0, 2.0])


def test_eigenvector_lift_residual():
    for r, ell in [(2, 10), (3, 8)]:
        lam = sp.lambda_via_dlambda(r, ell, tol=1e-12)
        v = sp.dlambda_eigenvector(r, ell, lam)
        vl = sp.lift_vector(v, lam)
        P = sp.companion_psi(sp.build_A(r, ell))
        resid = float(np.max(np.abs(P @ vl - lam * vl)) / np.max(np.abs(vl)))
        assert resid < 1e-8


# ---------------------------------------------------------------------------
# proof-side inequality checks


def test_row_sums_exceed_one_at_proof_lambda():
    # lambda = e^{-(r-2)}(1 - delta/e) with delta = 0.5
    for r in (2, 3, 4):
        lam = math.exp(-(r - 2)) * (1 - 0.5 / math.e)
        # log row sums of D_lambda A, in log space: row i of log A minus i log lambda
        i = np.arange(1, 41)[:, None]
        logs = logsumexp(sp.build_A_log(r, 40) - i * math.log(lam), axis=1)
        assert logs.shape == (40,)
        assert np.all(logs > 0)


def test_table_growth_band():
    # level-bounded lower-bound tables grow no faster than lambda(r, ell)
    ell = 6
    tab = ct.build_count_table(
        2, 200, variant="triangle_free_lower_level_bounded", level_bound=ell
    )
    lam = sp.lambda_via_dlambda(2, ell, tol=1e-11)

    def log_row_mass(k):
        # log of sum_i sigma(k, i) over the row's nonzero entries
        logs = [ct.normalized(2, k, i, table=tab).log_value
                for i in range(1, k - 1) if tab.entries.get((k, i), 0) > 0]
        assert logs, k
        return logsumexp(logs)

    mass = {k: log_row_mass(k) for k in range(49, 201)}
    for k in range(50, 201):
        assert math.exp(mass[k] - mass[k - 1]) <= lam * 1.05, k
