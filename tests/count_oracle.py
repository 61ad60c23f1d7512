"""The straightforward count-table recursion, Lambda(i) series sum and CSV
writer, the oracles for the fast versions in `bootperc.counting` and for
log Lambda(i) from `bootperc.thresholds.lambda_vs_gamma_sweep`.

`build_count_table` fills the table k-major: every entry m_r(k, i) takes its
own sum of big-integer products a_r(k-i, j)^i * m_r(k-i, j).
`lambda_weight_sum_log` sums Lambda(i) in floats, re-summing every term at
every j past the peak until the remainder bound falls below 1e-16 of the
partial sum; the sweep sums it in extended precision and must agree to
1e-12.  `table_to_csv` writes each row through csv.writer, which decides
field by field whether to quote.  All are slow and plain on purpose; the
library's table and CSV must give the same values in the same order, and
the same bytes.
"""

import csv
from decimal import Decimal
from math import comb, exp, fsum, log

from bootperc.counting import (
    DEFAULT_TABLE_BUDGET,
    CountTable,
    TableBudgetExceeded,
    a_count,
    hat_a_count,
)


def build_count_table(r, k_max, variant="exact", level_bound=None,
                      memory_budget=DEFAULT_TABLE_BUDGET):
    bounded = variant == "triangle_free_lower_level_bounded"
    if not bounded:
        level_bound = None
    count_fn = a_count if variant == "exact" else hat_a_count

    entries = {}
    used = 0
    a_vals = {}
    powers = {}
    power_exp = {}

    def store(k, i, value):
        nonlocal used
        entries[(k, i)] = value
        used += value.__sizeof__()
        if used > memory_budget:
            raise TableBudgetExceeded(f"over budget at (k={k}, i={i})")

    for k in range(r + 1, k_max + 1):
        top = k - r
        if not bounded or top <= level_bound:
            store(k, top, 1)
        i_hi = min(top - 1, level_bound) if bounded else top - 1
        for i in range(1, i_hi + 1):
            x = k - i
            if x not in a_vals:
                jj = x - r
                a_vals[x] = [count_fn(r, x, j) for j in range(1, jj + 1)]
                powers[x] = [1] * jj
                power_exp[x] = 0
            while power_exp[x] < i:
                row_a = a_vals[x]
                row_p = powers[x]
                for idx, a in enumerate(row_a):
                    row_p[idx] *= a
                power_exp[x] += 1
            j_hi = x - r
            if bounded:
                j_hi = min(j_hi, level_bound)
            row_p = powers[x]
            acc = 0
            for j in range(1, j_hi + 1):
                mj = entries.get((x, j))
                if mj:
                    acc += row_p[j - 1] * mj
            store(k, i, comb(top, i) * acc)
    return CountTable(r=r, k_max=k_max, variant=variant, entries=entries,
                      level_bound=level_bound)


def lambda_weight_sum_log(i):
    ex = i - 0.5
    terms = []
    peak = max(1.0, ex)
    j = 0
    while True:
        j += 1
        terms.append(ex * log(j) - j)
        if j <= peak + 1:
            continue
        ratio = exp(ex * log((j + 1) / j) - 1.0)
        if ratio >= 1.0:
            continue
        m = max(terms)
        partial = fsum(exp(t - m) for t in terms)
        tail = exp(terms[-1] - m) * ratio / (1.0 - ratio)
        if tail < 1e-16 * partial:
            return m + log(partial), j


def table_to_csv(table, fp):
    writer = csv.writer(fp)
    writer.writerow(["r", "k", "i", "variant", "count"])
    label = table.variant_label()
    for (k, i) in sorted(table.entries):
        writer.writerow([table.r, k, i, label, str(Decimal(table.entries[(k, i)]))])
