"""Exact counting of minimally susceptible graphs.

A graph on vertex set {0, ..., k-1} with threshold r >= 2 is *minimally
susceptible* (with seed {0, ..., r-1}) when the seed is a contagious set for
r-neighbor bootstrap percolation and the graph has exactly r*(k-r) edges.
The edge budget forces a rigid structure: every non-seed vertex has exactly
r neighbors in strictly earlier infection levels (its "parents", at least
one of them in the immediately preceding level), there are no edges inside a
level and none inside the seed.  Consequently each such graph is uniquely
described by an ordered partition of the non-seed vertices into nonempty
levels plus a choice of parent set for every vertex, which is what both the
recurrence and the brute-force oracle below enumerate.

Writing m_r(k, i) for the number of minimally susceptible graphs on k
labeled vertices whose final (top) level has size i:

    m_r(k, k-r) = 1
    m_r(k, i)   = C(k-r, i) * sum_{j=1..k-r-i} a_r(k-i, j)^i * m_r(k-i, j)

for i < k-r, where a_r(x, y) = C(x, r) - C(x-y, r) counts the r-subsets of
an x-set that meet a distinguished y-subset (the admissible parent sets of a
top-level vertex above a graph whose own top level has size y).

The table is filled x-major: row x = k - i feeds exactly the entries
m_r(x+i, i), so once the rows below x are done, row x is final and its
terms q_j = a_r(x, j)^i m_r(x, j) are advanced from i to i+1 by one
multiplication by the small integer a_r(x, j) (below 2^26 at k = 200).  Only
that one row of running products is live, and no two big integers are ever
multiplied together.

The triangle-free tables use

    hat_a_r(x, y) = max(0, a_r(x, y) - 2*r*y*x^(r-2))

which discards enough parent-set choices to kill every potential triangle;
the resulting recurrence therefore *undercounts* triangle-free minimally
susceptible graphs and the tables built from it are lower bounds only.
Exact triangle-free counts are available through the brute-force oracle.
The level-bounded variant additionally restricts every level (top size i
and every summation index j) to at most ell.

Normalized quantities, computed in log space (log-gamma for factorials,
relative error of the value <= 1e-12):

    sigma_r(k, i)   = m_r(k, i) / (k-r)! * ((r-1)! / k^(r-1))^k
    rho_hat_r(k, i) = mhat_r(k, i) / (k-r)! * ((r-1)! / ((k-i) k^(r-2)))^k

sigma_r satisfies sigma_r(k, i) <= i^(-1/2) e^(-i-(r-2)k); the induction
step behind that bound is the series inequality checked by
induction_step_report.  Its kernel Lambda(i) = sum_j j^(i-1/2) e^(-j) is
summed once, by thresholds.lambda_vs_gamma_sweep, whose per-i reports feed
both this check and the Lambda-vs-gamma comparison.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from decimal import Decimal
from itertools import combinations, product
from math import comb, exp, lgamma, log

__all__ = [
    "CountTable",
    "NormalizedCount",
    "CountingError",
    "EnumerationCapExceeded",
    "TableBudgetExceeded",
    "a_count",
    "hat_a_count",
    "build_count_table",
    "brute_force_count",
    "iter_minimally_susceptible",
    "normalized",
    "induction_step_report",
    "table_to_csv",
    "table_from_csv",
]

DEFAULT_TABLE_BUDGET = 2 * 2**30  # bytes of stored big integers
DEFAULT_ENUM_CAP = 10_000_000  # brute-force leaves

VARIANTS = ("exact", "triangle_free_lower", "triangle_free_lower_level_bounded")


class CountingError(Exception):
    pass


class EnumerationCapExceeded(CountingError):
    pass


class TableBudgetExceeded(CountingError):
    pass


# ----------------------------------------------------------------------
# parent-set counts
# ----------------------------------------------------------------------

def a_count(r: int, x: int, y: int) -> int:
    """Number of r-subsets of an x-set meeting a distinguished y-subset.

    a_r(x, y) = C(x, r) - C(x-y, r), with C(m, r) = 0 for m < r.
    """
    if r < 2:
        raise ValueError(f"threshold r must be >= 2, got {r}")
    if x < r:
        raise ValueError(f"need x >= r, got x={x}, r={r}")
    if y < 0 or y > x:
        raise ValueError(f"need 0 <= y <= x, got y={y}, x={x}")
    return comb(x, r) - (comb(x - y, r) if x - y >= r else 0)


def hat_a_count(r: int, x: int, y: int) -> int:
    """Parent-set count after discarding all potentially triangle-creating
    choices: max(0, a_r(x, y) - 2*r*y*x^(r-2))."""
    return max(0, a_count(r, x, y) - 2 * r * y * x ** (r - 2))


# ----------------------------------------------------------------------
# count tables
# ----------------------------------------------------------------------

@dataclass
class CountTable:
    """Big-integer table of minimally susceptible graph counts.

    entries maps (k, i) -> count for r < k <= k_max, 1 <= i <= k - r
    (additionally i <= level_bound for the level-bounded variant).
    """

    r: int
    k_max: int
    variant: str
    entries: dict[tuple[int, int], int] = field(repr=False)
    level_bound: int | None = None

    def entry(self, k: int, i: int) -> int:
        try:
            return self.entries[(k, i)]
        except KeyError:
            raise KeyError(
                f"no entry (k={k}, i={i}) in {self.variant_label()} table "
                f"(r={self.r}, k_max={self.k_max})"
            ) from None

    def variant_label(self) -> str:
        if self.variant == "triangle_free_lower_level_bounded":
            return f"triangle_free_lower_level_bounded({self.level_bound})"
        return self.variant


def build_count_table(
    r: int,
    k_max: int,
    variant: str = "exact",
    level_bound: int | None = None,
    memory_budget: int = DEFAULT_TABLE_BUDGET,
) -> CountTable:
    """Fill the (k, i) count table by the recurrence, row x = k - i at a time.

    For x = r+1, ..., k_max-1 in order, row x is complete; the running
    products q_j = m_r(x, j) a_r(x, j)^i, one per j, are multiplied by
    a_r(x, j) for each i = 1, 2, ... and give m_r(x+i, i) =
    C(x+i-r, i) sum_j q_j.  Each step multiplies a big integer by a small
    one; only the current row's products are held.  entries is keyed in
    the order k ascending, then i = k - r, then i = 1, 2, ...

    variant "exact" uses a_r, the triangle-free variants use hat_a_r; the
    level-bounded variant restricts both the stored top-level sizes and the
    summation index j to level_bound, which the other variants reject.
    Exact integer arithmetic throughout.
    Raises TableBudgetExceeded if the stored integers outgrow memory_budget;
    the stored total only grows, so whether it raises depends on the final
    total alone, and the cell it names is the one filled when it crossed.
    """
    if r < 2:
        raise ValueError(f"threshold r must be >= 2, got {r}")
    if k_max <= r:
        raise ValueError(f"need k_max > r, got k_max={k_max}, r={r}")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    bounded = variant == "triangle_free_lower_level_bounded"
    if bounded:
        if level_bound is None or level_bound < r:
            raise ValueError("level-bounded variant needs level_bound >= r")
    elif level_bound is not None:
        raise ValueError(f"level_bound is not used by the {variant!r} variant")
    count_fn = a_count if variant == "exact" else hat_a_count
    cap = level_bound if bounded else k_max

    entries: dict[tuple[int, int], int] = {}
    used = 0

    def store(k: int, i: int, value: int) -> None:
        nonlocal used
        entries[(k, i)] = value
        used += value.__sizeof__()
        if used > memory_budget:
            raise TableBudgetExceeded(
                f"count table exceeds memory budget of {memory_budget} bytes "
                f"at (k={k}, i={i})"
            )

    # Every key goes in first, in the order the entries keep: k ascending,
    # then the top level i = k - r, then i = 1, 2, ...
    for k in range(r + 1, k_max + 1):
        top = k - r
        if top <= cap:
            store(k, top, 1)
        for i in range(1, min(top - 1, cap) + 1):
            entries[(k, i)] = 0
    # Row x is final here: the rows below it were its only inputs.
    for x in range(r + 1, k_max):
        pairs = [(count_fn(r, x, j), entries[(x, j)])
                 for j in range(1, min(x - r, cap) + 1)]
        a_row = [a for a, m in pairs if a and m]
        q = [m for a, m in pairs if a and m]
        for i in range(1, min(k_max - x, cap) + 1):
            q = [qj * a for qj, a in zip(q, a_row)]
            store(x + i, i, comb(x + i - r, i) * sum(q))
    return CountTable(r=r, k_max=k_max, variant=variant, entries=entries,
                      level_bound=level_bound)


# ----------------------------------------------------------------------
# brute-force oracle
# ----------------------------------------------------------------------

def iter_minimally_susceptible(r: int, k: int, cap: int = DEFAULT_ENUM_CAP):
    """Yield every minimally susceptible graph on {0..k-1} with seed {0..r-1}.

    Enumeration is by recursive top-down construction: split the non-seed
    labels into ordered nonempty levels and give each vertex of a level a choice
    of r parents among all earlier vertices, at least one of them in the
    immediately preceding level.  Yields (edges, levels) with edges a sorted
    tuple of (u, v) pairs (u < v) and levels the list of level tuples,
    levels[0] being the seed.  Raises EnumerationCapExceeded past cap graphs.
    """
    if r < 2:
        raise ValueError(f"threshold r must be >= 2, got {r}")
    if k <= r:
        raise ValueError(f"need k > r, got k={k}, r={r}")
    seed = tuple(range(r))
    produced = 0

    def parent_sets(cum: tuple[int, ...], prev: tuple[int, ...]):
        prev_set = set(prev)
        for ps in combinations(cum, r):
            if prev_set.intersection(ps):
                yield ps

    def recurse(cum, prev, remaining, edges, levels):
        nonlocal produced
        if not remaining:
            produced += 1
            if produced > cap:
                raise EnumerationCapExceeded(
                    f"brute-force enumeration exceeds cap of {cap} graphs"
                )
            yield tuple(sorted(edges)), list(levels)
            return
        rem = tuple(remaining)
        for s in range(1, len(rem) + 1):
            for labels in combinations(rem, s):
                next_rem = tuple(v for v in rem if v not in labels)
                choices = list(parent_sets(cum, prev))
                if not choices:
                    continue
                stack_edges = len(edges)
                for pick in product(choices, repeat=s):
                    for v, ps in zip(labels, pick):
                        for p in ps:
                            edges.append((p, v) if p < v else (v, p))
                    levels.append(labels)
                    yield from recurse(cum + labels, labels, next_rem,
                                       edges, levels)
                    levels.pop()
                    del edges[stack_edges:]

    yield from recurse(seed, seed, tuple(range(r, k)), [], [seed])


def _has_triangle(edges) -> bool:
    adj: dict[int, set[int]] = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    for u, v in edges:
        if adj[u] & adj[v]:
            return True
    return False


def brute_force_count(
    r: int,
    k: int,
    triangle_free: bool = False,
    cap: int = DEFAULT_ENUM_CAP,
) -> dict[int, int]:
    """Count minimally susceptible graphs by exhaustive construction.

    Returns {top level size i: labeled graph count}; with triangle_free the
    graphs containing a triangle are skipped.  Independent of the recurrence:
    this enumerates concrete edge sets.
    """
    buckets: dict[int, int] = {}
    for edges, levels in iter_minimally_susceptible(r, k, cap=cap):
        if triangle_free and _has_triangle(edges):
            continue
        i = len(levels[-1])
        buckets[i] = buckets.get(i, 0) + 1
    return buckets


# ----------------------------------------------------------------------
# normalized quantities
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class NormalizedCount:
    """A count normalized to the scale where its growth is bounded; held as
    log_value since the raw value underflows quickly."""

    r: int
    k: int
    i: int
    kind: str  # "sigma" | "rho_hat"
    log_value: float

    @property
    def value(self) -> float:
        try:
            return exp(self.log_value)
        except OverflowError:
            return float("inf")

    def to_json_record(self) -> str:
        return json.dumps(
            {"r": self.r, "k": self.k, "i": self.i, "kind": self.kind,
             "log_value": self.log_value}
        )


def normalized(
    r: int,
    k: int,
    i: int,
    kind: str = "sigma",
    table: CountTable | None = None,
) -> NormalizedCount:
    """sigma or rho_hat normalization of a table entry, in log space.

    sigma normalizes exact counts, rho_hat the triangle-free lower-bound
    counts.  A table of the matching variant may be passed; otherwise one
    is built.
    """
    if kind not in ("sigma", "rho_hat"):
        raise ValueError(f"unknown kind {kind!r}")
    if not (r < k and 1 <= i <= k - r):
        raise ValueError(f"need r < k and 1 <= i <= k - r, got r={r}, k={k}, i={i}")
    if table is None:
        variant = "exact" if kind == "sigma" else "triangle_free_lower"
        table = build_count_table(r, k, variant=variant)
    m = table.entry(k, i)
    if m == 0:
        return NormalizedCount(r=r, k=k, i=i, kind=kind, log_value=float("-inf"))
    logm = log(m)  # exact-path log of a big integer
    if kind == "sigma":
        log_value = logm - lgamma(k - r + 1) + k * (lgamma(r) - (r - 1) * log(k))
    else:
        log_value = logm - lgamma(k - r + 1) + k * (
            lgamma(r) - log(k - i) - (r - 2) * log(k)
        )
    return NormalizedCount(r=r, k=k, i=i, kind=kind, log_value=log_value)


# ----------------------------------------------------------------------
# the induction-step inequality
# ----------------------------------------------------------------------

def induction_step_report(lam: dict) -> dict:
    """Check sum_j (j^i e^-i / i!) j^(-1/2) e^-j <= i^(-1/2) e^-i.

    Dividing by e^-i/i! this is Lambda(i) <= i!/sqrt(i); both sides are
    compared in log space.  lam is the report for i from
    thresholds.lambda_vs_gamma_sweep, which supplies log Lambda(i) and the
    point where its series was cut.  Returns a report dict with that point.
    """
    i = lam["i"]
    lhs_log = lam["log_lambda"] - i - lgamma(i + 1)
    rhs_log = -0.5 * log(i) - i
    return {
        "i": i,
        "lhs_log": lhs_log,
        "rhs_log": rhs_log,
        "holds": lhs_log <= rhs_log,
        "truncated_at": lam["truncated_at"],
    }


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------

# A count table is written as plain text lines, CRLF-terminated like the
# csv module's default dialect.  Every field is an integer or a variant
# label such as triangle_free_lower_level_bounded(6), none of which holds a
# comma, quote or line break, so no field ever needs quoting and the lines
# are byte for byte what csv.writer would write.  table_from_csv reads them
# back with csv.reader.  Counts go through Decimal, whose conversions to and
# from decimal text are exact at any length: int <-> str refuses integers
# past sys.get_int_max_str_digits() digits (4300 by default).


def table_to_csv(table: CountTable, fp) -> None:
    """CSV with header r,k,i,variant,count (counts in full decimal).

    One line per entry, in sorted (k, i) order, written through
    fp.writelines so the text (8-14 MB at k_max = 200) is never held
    whole.  No field is scanned for quoting: none can need it (see above).
    Decimal stays for the counts, whose int -> str conversion fails past
    4300 digits.
    """
    r, label, entries = table.r, table.variant_label(), table.entries
    fp.write("r,k,i,variant,count\r\n")
    fp.writelines(f"{r},{k},{i},{label},{Decimal(entries[(k, i)])}\r\n"
                  for k, i in sorted(entries))


def _parse_count(text: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"count is not a nonnegative integer: {text!r}")
    return int(Decimal(text))


def _parse_label(label: str, r: int) -> tuple[str, int | None]:
    """(variant, level_bound) of a variant label that build_count_table
    can give a table with threshold r."""
    if label in ("exact", "triangle_free_lower"):
        return label, None
    prefix = "triangle_free_lower_level_bounded("
    bound = label[len(prefix):-1]
    if (label.startswith(prefix) and label.endswith(")")
            and bound.isascii() and bound.isdigit() and int(bound) >= r):
        return "triangle_free_lower_level_bounded", int(bound)
    raise ValueError(f"unknown variant label {label!r} for r={r}")


def table_from_csv(fp) -> CountTable:
    """Read back a table written by table_to_csv.

    Raises ValueError for any row build_count_table cannot have written:
    a key outside r < k, 1 <= i <= k - r (and i <= level_bound for the
    level-bounded variant), a repeated key, a row whose r or variant label
    differs from the first row's, or an unknown label.
    """
    reader = csv.reader(fp)
    header = next(reader, None)
    if header != ["r", "k", "i", "variant", "count"]:
        raise ValueError(f"unexpected CSV header: {header}")
    entries: dict[tuple[int, int], int] = {}
    first = None
    for row in reader:
        if len(row) != 5:
            raise ValueError(f"expected 5 fields, got {row}")
        if first is None:
            first = (int(row[0]), row[3])
            r, label = first
            if r < 2:
                raise ValueError(f"threshold r must be >= 2, got {r}")
            variant, level_bound = _parse_label(label, r)
        elif (int(row[0]), row[3]) != first:
            raise ValueError(
                f"row {row} disagrees with r={r}, variant {label!r} of the first row"
            )
        k, i = int(row[1]), int(row[2])
        if not (r < k and 1 <= i <= k - r):
            raise ValueError(f"need r < k and 1 <= i <= k - r, got row {row}")
        if level_bound is not None and i > level_bound:
            raise ValueError(f"i={i} exceeds the level bound {level_bound}: {row}")
        if (k, i) in entries:
            raise ValueError(f"repeated key (k={k}, i={i})")
        entries[(k, i)] = _parse_count(row[4])
    if first is None:
        raise ValueError("empty count table CSV")
    return CountTable(r=r, k_max=max(k for k, _ in entries), variant=variant,
                      entries=entries, level_bound=level_bound)
