"""Counting module tests.

Expected values come from three independent routes: hand-checkable small
cases, the brute-force construction oracle, and (for k <= 6) filtering every
graph with the right edge count through a self-contained bootstrap run.
"""

import io
import sys
from fractions import Fraction
from itertools import combinations
from math import comb, exp, factorial, isclose, lgamma, log

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import count_oracle
from bootperc.counting import (
    VARIANTS,
    CountTable,
    EnumerationCapExceeded,
    TableBudgetExceeded,
    a_count,
    brute_force_count,
    build_count_table,
    induction_step_report,
    iter_minimally_susceptible,
    normalized,
    table_from_csv,
    table_to_csv,
)
from bootperc.spectral import build_A
from bootperc.thresholds import lambda_vs_gamma_sweep

# Oracle outputs, frozen.  Keys are top-level sizes i.
M2 = {
    3: {1: 1},
    4: {1: 4, 2: 1},
    5: {1: 51, 2: 12, 3: 1},
    6: {1: 1188, 2: 366, 3: 32, 4: 1},
    7: {1: 48160, 2: 14850, 3: 2330, 4: 80, 5: 1},
}
M3 = {
    4: {1: 1},
    5: {1: 6, 2: 1},
    6: {1: 135, 2: 27, 3: 1},
    7: {1: 7204, 2: 1782, 3: 108, 4: 1},
}
M2_TRIANGLE_FREE = {
    3: {1: 1},
    4: {2: 1},
    5: {1: 3, 3: 1},
    6: {1: 36, 2: 6, 4: 1},
    7: {1: 720, 2: 210, 3: 10, 5: 1},
}


def test_a_count_values():
    assert a_count(2, 3, 1) == 2
    assert a_count(2, 4, 1) == 3
    assert a_count(2, 4, 2) == 5
    assert a_count(2, 5, 2) == 7
    assert a_count(2, 6, 4) == 14
    assert a_count(3, 5, 2) == comb(5, 3) - comb(3, 3)
    assert a_count(2, 5, 0) == 0
    assert a_count(2, 5, 5) == comb(5, 2)
    with pytest.raises(ValueError):
        a_count(2, 1, 1)
    with pytest.raises(ValueError):
        a_count(2, 5, 6)


def test_a_count_identity_grid():
    # falling-factorial identity, incremental rhs per x
    for r in (2, 3, 4):
        worst = 0.0
        for x in range(r + 1, 501):
            acc = 0.0
            for y in range(1, x - r + 1):
                term = 1.0
                for t in range(r - 1):
                    term *= (x - y - t) / x
                acc += term
                lhs = factorial(r - 1) / x ** (r - 1) * a_count(r, x, y) / y
                rhs = acc / y
                worst = max(worst, abs(lhs - rhs) / rhs)
        assert worst < 1e-10, (r, worst)


def test_oracle_matches_frozen_r2():
    for k, expected in M2.items():
        assert brute_force_count(2, k) == expected


def test_oracle_matches_frozen_r3():
    for k, expected in M3.items():
        assert brute_force_count(3, k) == expected


def test_oracle_triangle_free_matches_frozen():
    for k, expected in M2_TRIANGLE_FREE.items():
        assert brute_force_count(2, k, triangle_free=True) == expected


def _bootstrap_spreads(n, r, adj, seed):
    """Self-contained r-neighbor bootstrap; returns levels or None if the
    seed is not contagious."""
    infected = set(seed)
    levels = [tuple(sorted(seed))]
    while len(infected) < n:
        newly = sorted(
            v for v in range(n)
            if v not in infected and len(adj[v] & infected) >= r
        )
        if not newly:
            return None
        infected.update(newly)
        levels.append(tuple(newly))
    return levels


@pytest.mark.parametrize("r,k", [(2, 4), (2, 5), (2, 6), (3, 5), (3, 6)])
def test_oracle_matches_raw_edge_set_filter(r, k):
    # third route: every edge set of size r*(k-r), filtered by a bootstrap
    pairs = list(combinations(range(k), 2))
    want = r * (k - r)
    buckets = {}
    for edges in combinations(pairs, want):
        adj = {v: set() for v in range(k)}
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        levels = _bootstrap_spreads(k, r, adj, range(r))
        if levels is None:
            continue
        i = len(levels[-1])
        buckets[i] = buckets.get(i, 0) + 1
    assert buckets == brute_force_count(r, k)


def test_oracle_levels_are_bootstrap_levels():
    for edges, levels in iter_minimally_susceptible(2, 6):
        adj = {v: set() for v in range(6)}
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        assert _bootstrap_spreads(6, 2, adj, range(2)) == [
            tuple(sorted(l)) for l in levels
        ]
        assert len(edges) == 2 * 4


def test_oracle_cap():
    with pytest.raises(EnumerationCapExceeded, match="123"):
        brute_force_count(2, 7, cap=123)


def _row(table, k):
    """{i: m_r(k, i)} for one k of the table."""
    return {i: m for (kk, i), m in table.entries.items() if kk == k}


def test_recurrence_matches_oracle():
    table = build_count_table(2, 7)
    for k, expected in M2.items():
        assert _row(table, k) == expected
    table3 = build_count_table(3, 7)
    for k, expected in M3.items():
        assert _row(table3, k) == expected


def test_recurrence_recomputation_identity():
    # every stored entry satisfies the recurrence when recomputed directly
    r = 3
    table = build_count_table(r, 25)
    for (k, i), m in table.entries.items():
        if i == k - r:
            assert m == 1
            continue
        acc = sum(
            a_count(r, k - i, j) ** i * table.entry(k - i, j)
            for j in range(1, k - i - r + 1)
        )
        assert m == comb(k - r, i) * acc


def test_triangle_free_lower_is_sandwiched():
    lower = build_count_table(2, 7, variant="triangle_free_lower")
    exact = build_count_table(2, 7)
    for k, expected in M2_TRIANGLE_FREE.items():
        for i in range(1, k - 1):
            lo = lower.entries.get((k, i), 0)
            mid = expected.get(i, 0)
            hi = exact.entries.get((k, i), 0)
            assert lo <= mid <= hi


def test_level_bounded_table():
    ell = 6
    bounded = build_count_table(
        2, 40, variant="triangle_free_lower_level_bounded", level_bound=ell
    )
    unbounded = build_count_table(2, 40, variant="triangle_free_lower")
    for (k, i), m in bounded.entries.items():
        assert i <= ell
        assert m <= unbounded.entry(k, i)
    # restricting levels can only remove graphs
    assert bounded.entry(40, 2) < unbounded.entry(40, 2)
    assert bounded.entry(40, 2) > 0


def test_level_bounded_table_can_collapse():
    # the clamped parent count vanishes at small levels, so a tight level
    # bound starves the recursion; the lower bound is then vacuous (all 0)
    bounded = build_count_table(
        2, 30, variant="triangle_free_lower_level_bounded", level_bound=3
    )
    assert sum(_row(bounded, 30).values()) == 0
    assert sum(_row(bounded, 5).values()) == 1


def test_table_budget_error():
    with pytest.raises(TableBudgetExceeded):
        build_count_table(2, 120, memory_budget=10_000)


def test_table_entry_missing():
    table = build_count_table(2, 6)
    with pytest.raises(KeyError, match="k=9"):
        table.entry(9, 1)


def test_csv_round_trip():
    table = build_count_table(
        3, 12, variant="triangle_free_lower_level_bounded", level_bound=4
    )
    buf = io.StringIO()
    table_to_csv(table, buf)
    buf.seek(0)
    back = table_from_csv(buf)
    assert back.r == table.r
    assert back.k_max == table.k_max
    assert back.variant == table.variant
    assert back.level_bound == 4
    assert back.entries == table.entries
    header = buf.getvalue().splitlines()[0]
    assert header == "r,k,i,variant,count"


@settings(max_examples=40, deadline=None)
@given(
    r=st.integers(2, 5),
    k_max=st.integers(3, 40),
    variant=st.sampled_from(VARIANTS),
    ell_extra=st.integers(0, 20),
)
def test_csv_round_trips_every_built_table(r, k_max, variant, ell_extra):
    k_max = max(k_max, r + 1)
    level_bound = (r + ell_extra
                   if variant == "triangle_free_lower_level_bounded" else None)
    table = build_count_table(r, k_max, variant, level_bound)
    buf = io.StringIO()
    table_to_csv(table, buf)
    buf.seek(0)
    back = table_from_csv(buf)
    assert (back.r, back.k_max, back.variant, back.level_bound) == (
        r, k_max, variant, level_bound)
    assert back.entries == table.entries


@pytest.mark.parametrize("body, match", [
    # keys no minimally susceptible graph has: i = 0, and i > k - r
    ("2,3,0,exact,5", "1 <= i <= k - r"),
    ("2,3,9,exact,4", "1 <= i <= k - r"),
    ("2,2,1,exact,1", "r < k"),
    ("2,9,4,triangle_free_lower_level_bounded(3),0", "level bound 3"),
    # the top level too: (k, k - r) is stored only when k - r <= ell
    ("2,5,3,triangle_free_lower_level_bounded(2),1", "level bound 2"),
    ("2,4,1,exact,4\r\n2,4,1,exact,4", "repeated key"),
    ("2,3,1,exact,1\r\n3,5,1,exact,6", "disagrees"),
    ("2,3,1,exact,1\r\n2,4,1,triangle_free_lower,0", "disagrees"),
    ("2,3,1,bogus,1", "unknown variant"),
    ("2,3,1,triangle_free_lower_level_bounded(1),1", "unknown variant"),
    ("2,3,1,triangle_free_lower_level_bounded(x),1", "unknown variant"),
    ("1,3,1,exact,1", "r must be >= 2"),
    ("2,3,1,exact", "5 fields"),
])
def test_csv_rejects_rows_no_built_table_has(body, match):
    buf = io.StringIO(f"r,k,i,variant,count\r\n{body}\r\n")
    with pytest.raises(ValueError, match=match):
        table_from_csv(buf)


def test_csv_round_trip_past_int_str_digit_limit():
    limit = sys.get_int_max_str_digits()
    count = 10**5000 + 7  # past the default 4300-digit int <-> str limit
    table = CountTable(r=2, k_max=3, variant="exact", entries={(3, 1): count})
    buf = io.StringIO()
    table_to_csv(table, buf)
    row = buf.getvalue().splitlines()[1].split(",")
    assert row[:4] == ["2", "3", "1", "exact"]
    assert len(row[4]) == 5001 and row[4] == "1" + "0" * 4999 + "7"
    buf.seek(0)
    back = table_from_csv(buf)
    assert back.entries == {(3, 1): count}
    assert sys.get_int_max_str_digits() == limit


def _csv_bytes(write, table, path=None):
    if path is None:
        buf = io.StringIO()
        write(table, buf)
        return buf.getvalue().encode()
    with open(path, "w") as fp:  # as `counts table --out` opens it
        write(table, fp)
    return path.read_bytes()


@pytest.mark.parametrize("r", [2, 3, 4, 5])
@pytest.mark.parametrize("variant", VARIANTS)
def test_table_to_csv_matches_csv_writer_oracle(variant, r, tmp_path):
    bounded = variant == "triangle_free_lower_level_bounded"
    table = build_count_table(r, r + 14, variant, r + 2 if bounded else None)
    on_disk = bounded and r == 3
    got = _csv_bytes(table_to_csv, table, tmp_path / "got" if on_disk else None)
    want = _csv_bytes(count_oracle.table_to_csv, table,
                      tmp_path / "want" if on_disk else None)
    assert got == want
    assert got.startswith(b"r,k,i,variant,count\r\n")
    if bounded:
        assert f",triangle_free_lower_level_bounded({r + 2}),".encode() in got


def test_table_to_csv_matches_oracle_past_int_str_digit_limit():
    table = CountTable(r=2, k_max=3, variant="exact",
                       entries={(3, 1): 10**5000 + 7})
    got = _csv_bytes(table_to_csv, table)
    assert got == _csv_bytes(count_oracle.table_to_csv, table)
    assert got.endswith(b",exact,1" + b"0" * 4999 + b"7\r\n")


@pytest.mark.parametrize("bad", ["1.5", "1e3", "-4", "x"])
def test_csv_rejects_non_integer_counts(bad):
    buf = io.StringIO(f"r,k,i,variant,count\n2,3,1,exact,{bad}\n")
    with pytest.raises(ValueError, match="nonnegative integer"):
        table_from_csv(buf)


def _sigma_exact(r, k, i, m):
    # Fraction-exact sigma for small cases
    return Fraction(m, factorial(k - r)) * Fraction(factorial(r - 1), k ** (r - 1)) ** k


def test_normalized_sigma_small_cases():
    table = build_count_table(2, 7)
    for k, row in M2.items():
        for i, m in row.items():
            got = normalized(2, k, i, table=table)
            want = _sigma_exact(2, k, i, m)
            assert isclose(got.value, float(want), rel_tol=1e-12)
    assert isclose(normalized(2, 3, 1, table=table).value, 1 / 27, rel_tol=1e-14)


def test_normalized_rho_hat_small_cases():
    table = build_count_table(3, 9, variant="triangle_free_lower")
    m = table.entry(9, 6)
    assert m == 1
    got = normalized(3, 9, 6, kind="rho_hat", table=table)
    want = Fraction(1, factorial(6)) * Fraction(2, 3 * 9) ** 9
    assert isclose(got.value, float(want), rel_tol=1e-12)
    zero = normalized(3, 9, 1, kind="rho_hat", table=table)
    assert zero.log_value == float("-inf") and zero.value == 0.0


def test_normalized_builds_own_table():
    assert isclose(normalized(2, 5, 2).value, float(_sigma_exact(2, 5, 2, 12)),
                   rel_tol=1e-12)


@pytest.mark.parametrize("k, i", [(6, 5), (6, 0), (2, 1), (6, -1)])
def test_normalized_rejects_keys_outside_the_table(k, i):
    with pytest.raises(ValueError, match="1 <= i <= k - r"):
        normalized(2, k, i)


def test_normalized_json_record():
    rec = normalized(2, 6, 2)
    import json

    data = json.loads(rec.to_json_record())
    assert set(data) == {"r", "k", "i", "kind", "log_value"}
    assert data["kind"] == "sigma"


def test_sigma_upper_bound_small():
    # sigma_2(k, i) <= i^(-1/2) e^(-i), in log space
    table = build_count_table(2, 7)
    for k, row in M2.items():
        for i in row:
            got = normalized(2, k, i, table=table)
            assert got.log_value <= -0.5 * log(i) - i


def test_A_entry_limit_values():
    # the limit entries A_r(i, j) = j^i e^(-(r-1)i) / i! of spectral.build_A
    assert isclose(build_A(2, 3)[0, 0], exp(-1), rel_tol=1e-14)
    assert isclose(build_A(2, 3)[1, 2], 9 * exp(-2) / 2, rel_tol=1e-14)
    assert isclose(build_A(3, 2)[1, 1], 4 * exp(-4) / 2, rel_tol=1e-14)


def _A_entry_finite(r, i, j, k):
    """A_r(k, i, j) = j^i/i! ((k-i)/k)^((r-1)k) ((r-1)!/(k-i)^(r-1) a_r(k-i, j)/j)^i."""
    a = a_count(r, k - i, j)
    return exp(
        i * log(j)
        - lgamma(i + 1)
        + (r - 1) * k * log((k - i) / k)
        + i * (lgamma(r) - (r - 1) * log(k - i) + log(a) - log(j))
    )


def test_A_entry_monotone_in_k():
    # the finite-k kernel increases to the limit entry of build_A
    for r in (2, 3):
        A = build_A(r, 4)
        for i, j in [(1, 1), (2, 3), (4, 2)]:
            limit = A[i - 1, j - 1]
            prev = 0.0
            for k in range(r + i + j + 1, 160, 7):
                val = _A_entry_finite(r, i, j, k)
                assert prev <= val * (1 + 1e-12)
                assert val <= limit * (1 + 1e-12)
                prev = val
            assert isclose(_A_entry_finite(r, i, j, 3000), limit, rel_tol=0.05)


@pytest.fixture(scope="module")
def lambda_sweep():
    """The Lambda(i) reports for i <= 500, from one sweep."""
    return lambda_vs_gamma_sweep(500)


def test_lambda_weight_sum_log_matches_direct(lambda_sweep):
    # direct float summation is safe for small i
    for i in (1, 2, 5, 10):
        direct = sum(j ** (i - 0.5) * exp(-j) for j in range(1, 400))
        lam = lambda_sweep[i - 1]
        assert isclose(lam["log_lambda"], log(direct), rel_tol=1e-12)
        assert lam["truncated_at"] < 400


def test_induction_step_holds_spot(lambda_sweep):
    for i in (1, 2, 3, 10, 100, 500):
        rep = induction_step_report(lambda_sweep[i - 1])
        assert rep["holds"], rep
        # margin behaves like 1/(8i)
        assert rep["rhs_log"] - rep["lhs_log"] < 1.0 / i


def test_table_variant_validation():
    with pytest.raises(ValueError):
        build_count_table(2, 6, variant="bogus")
    with pytest.raises(ValueError):
        build_count_table(2, 6, variant="triangle_free_lower_level_bounded")
    for variant in ("exact", "triangle_free_lower"):
        with pytest.raises(ValueError, match="level_bound"):
            build_count_table(2, 6, variant=variant, level_bound=3)
    with pytest.raises(ValueError):
        build_count_table(1, 6)
    with pytest.raises(ValueError):
        build_count_table(2, 2)


# ---------------------------------------------------------------------------
# differential tests: the x-major table, and log Lambda(i) from the sweep,
# against the straightforward versions in count_oracle


@settings(max_examples=60, deadline=None)
@given(
    r=st.integers(2, 5),
    k_max=st.integers(3, 60),
    variant=st.sampled_from(VARIANTS),
    ell_extra=st.integers(0, 30),
    budget_share=st.floats(0.0, 1.2),
)
def test_table_matches_k_major_oracle(r, k_max, variant, ell_extra, budget_share):
    k_max = max(k_max, r + 1)
    level_bound = (r + ell_extra
                   if variant == "triangle_free_lower_level_bounded" else None)
    got = build_count_table(r, k_max, variant, level_bound)
    want = count_oracle.build_count_table(r, k_max, variant, level_bound)
    assert list(got.entries.items()) == list(want.entries.items())
    assert (got.r, got.k_max, got.variant, got.level_bound) == (
        want.r, want.k_max, want.variant, want.level_bound)

    total = sum(v.__sizeof__() for v in want.entries.values())
    for budget in (total - 1, total, int(budget_share * total)):
        raised = []
        for build in (build_count_table, count_oracle.build_count_table):
            try:
                build(r, k_max, variant, level_bound, memory_budget=budget)
                raised.append(False)
            except TableBudgetExceeded:
                raised.append(True)
        assert raised[0] == raised[1] == (budget < total), budget


@settings(max_examples=12, deadline=None)
@given(i=st.integers(1, 500))
@example(i=1)
@example(i=500)
def test_lambda_weight_sum_log_matches_resumming_oracle(lambda_sweep, i):
    # the float oracle stops at a relative tail of 1e-16, the sweep at
    # 10^-(dps - 3) <= 1e-27, so it cuts the series no earlier
    want, j_stop = count_oracle.lambda_weight_sum_log(i)
    lam = lambda_sweep[i - 1]
    assert lam["i"] == i
    assert isclose(lam["log_lambda"], want, rel_tol=1e-12)
    assert lam["truncated_at"] >= j_stop
