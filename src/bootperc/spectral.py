"""Perron eigenvalue machinery for the multi-level counting recursion.

The limit matrix A(r, ell) has entries

    A_r(i, j) = j^i e^{-(r-1)i} / i!,    1 <= i, j <= ell,

the growth rate of level-bounded counting tables is the Perron eigenvalue
lambda(r, ell) of the block companion operator psi(A), and the same number
is characterized as the unique lambda with spectral-radius(D_lambda A) = 1
where D_lambda = diag(lambda^{-i}).  Both routes are implemented: power
iteration on psi(A), and bisection on the D_lambda characterization (the
spectral radius of D_lambda A is strictly decreasing in lambda).

psi(A) is ell^2 x ell^2 but is never formed: a product with it is the
row-wise dot of A with the stacked vector's ell blocks (the top block)
followed by a shift of the vector down one block, O(ell^2) work and
memory instead of O(ell^4).

Entries of A underflow double precision for large i, so A is built from
log entries; the D_lambda route rescales by the largest log entry and
folds the scale factor back into the computed radius.
"""

import math
from typing import NamedTuple

import numpy as np

from .engine import row_entries

__all__ = [
    "SpectralError",
    "NotPrimitiveError",
    "ConvergenceError",
    "PerronResult",
    "CompanionPsi",
    "build_A",
    "build_A_log",
    "companion_psi",
    "is_primitive",
    "perron",
    "lambda_via_dlambda",
    "dlambda_report",
    "lift_vector",
    "dlambda_eigenvector",
]

# perron raises ConvergenceError after this many power iterations, or once
# this many pass without narrowing its Collatz-Wielandt bounds: rounding then
# holds the iterate in a cycle.  Converging runs narrow at least every 127
# iterations (psi(A(r, ell)) at its floor; 13 on random 8 x 8 matrices).
PERRON_MAX_ITER = 500_000
PERRON_STALL_ITER = 1000


class SpectralError(Exception):
    pass


class NotPrimitiveError(SpectralError):
    pass


class ConvergenceError(SpectralError):
    pass


def _validate_r_ell(r: int, ell: int) -> None:
    if r < 2:
        raise ValueError(f"threshold r must be >= 2, got {r}")
    if ell < 1:
        raise ValueError(f"level cap ell must be >= 1, got {ell}")


def build_A_log(r: int, ell: int) -> np.ndarray:
    """Log entries of the limit matrix: log A_r(i,j) = i log j - (r-1)i - log i!."""
    _validate_r_ell(r, ell)
    i = np.arange(1, ell + 1, dtype=np.float64)[:, None]
    j = np.arange(1, ell + 1, dtype=np.float64)[None, :]
    return i * np.log(j) - (r - 1) * i - np.array(
        [math.lgamma(t + 1) for t in range(1, ell + 1)]
    )[:, None]


def build_A(r: int, ell: int) -> np.ndarray:
    """Limit matrix A(r, ell); entries below the double-precision floor come out 0."""
    return np.exp(build_A_log(r, ell))


class CompanionPsi:
    """Block companion operator psi(M) of an ell x ell matrix M, never formed.

    As an ell^2 x ell^2 matrix, row i of M occupies block column i of the
    top block row and identity blocks sit on the block subdiagonal.  The
    product with a vector x is therefore the row-wise dot of M with the
    ell blocks of x (the top block) followed by x[:-ell] (the shift), so
    it costs O(ell^2).  `toarray()` builds the dense layout for tests.
    """

    __slots__ = ("M", "shape")

    def __init__(self, M: np.ndarray):
        self.M = M
        n = M.shape[0] * M.shape[0]
        self.shape = (n, n)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        ell = self.M.shape[0]
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.shape[1],):
            raise ValueError(
                f"expected a vector of length {self.shape[1]}, got shape {x.shape}"
            )
        out = np.empty_like(x)
        np.einsum("ij,ij->i", self.M, x.reshape(ell, ell), out=out[:ell])
        out[ell:] = x[:-ell]
        return out

    def pattern(self) -> tuple[np.ndarray, np.ndarray]:
        """Positivity pattern of psi(M) as edge arrays (src, dst): psi(M)
        has a positive entry in row src[e], column dst[e] for each e."""
        ell, n = self.M.shape[0], self.shape[0]
        top_i, top_j = np.nonzero(self.M > 0)
        src = np.concatenate([top_i, np.arange(ell, n)])
        dst = np.concatenate([top_i * ell + top_j, np.arange(n - ell)])
        return src, dst

    def toarray(self) -> np.ndarray:
        ell, n = self.M.shape[0], self.shape[0]
        P = np.zeros(self.shape, dtype=np.float64)
        for i in range(ell):
            P[i, i * ell : (i + 1) * ell] = self.M[i]
        idx = np.arange(n - ell)
        P[ell + idx, idx] = 1.0
        return P


def companion_psi(M: np.ndarray) -> CompanionPsi:
    """Block companion operator psi(M) of an ell x ell matrix, applied
    as top block plus shift (see `CompanionPsi`) and never formed.

    The stacked vector with blocks lambda^{ell-1} v, ..., lambda v, v is an
    eigenvector for eigenvalue lambda exactly when D_lambda M v = v.
    """
    M = np.array(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("companion_psi expects a square matrix")
    return CompanionPsi(M)


def _bfs_levels(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Breadth-first level of each of n nodes from node 0 along the edges
    src[e] -> dst[e], -1 where node 0 does not reach.  Each edge is read
    once, when its source is in the frontier."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    indices = dst[np.argsort(src, kind="stable")]
    level = np.full(n, -1, dtype=np.int64)
    level[0] = 0
    frontier = np.zeros(1, dtype=np.int64)
    depth = 0
    while frontier.shape[0]:
        depth += 1
        reached = row_entries(indptr, indices, frontier)
        frontier = np.unique(reached[level[reached] < 0])
        level[frontier] = depth
    return level


def is_primitive(M: np.ndarray | CompanionPsi) -> bool:
    """Whether some power of the nonnegative matrix is strictly positive.

    Equivalent graph test: the positivity pattern is strongly connected
    (node 0 reaches every node along the edges and along the reversed
    edges) and aperiodic.  With BFS levels from node 0, the period is the
    gcd of level[u] + 1 - level[w] over the edges u -> w.  A `CompanionPsi`
    is tested on its edge arrays, without forming the matrix.
    """
    if isinstance(M, CompanionPsi):
        src, dst = M.pattern()
    else:
        M = np.asarray(M)
        if np.all(M > 0):
            return True
        src, dst = np.nonzero(M > 0)
    n = M.shape[0]
    level = _bfs_levels(n, src, dst)
    if np.any(level < 0) or np.any(_bfs_levels(n, dst, src) < 0):
        return False
    return int(np.gcd.reduce(level[src] + 1 - level[dst])) == 1


class PerronResult(NamedTuple):
    value: float
    vector: np.ndarray
    iterations: int


def perron(M: np.ndarray | CompanionPsi, tol: float = 1e-13) -> PerronResult:
    """Dominant eigenvalue and unit-sum eigenvector of a primitive matrix.

    M is a square array or a `CompanionPsi`, whose entries are checked on
    its ell x ell block and whose primitivity on its sparse pattern.

    Power iteration with max-norm renormalization from the uniform vector,
    which stays positive because M is primitive.  Each step brackets the
    root by the Collatz-Wielandt bounds lo = min(w/v) <= rho <= max(w/v) = hi
    of w = M v; the solve stops once hi - lo <= tol * hi and returns their
    midpoint.  A row with k positive entries gives each ratio w/v a
    relative rounding error of up to (k + 1) eps, so a tol below that floor,
    with k the most positive entries in any row, is rejected at once.  Above
    it, a subdominant eigenvalue close to rho can still stall the bounds
    short of tol; that ends in ConvergenceError after PERRON_STALL_ITER
    steps without narrowing, not after the PERRON_MAX_ITER budget.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    if isinstance(M, CompanionPsi):
        entries = M.M
    else:
        M = entries = np.asarray(M, dtype=np.float64)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError("perron expects a square matrix")
    if not np.all(np.isfinite(entries)):
        raise ValueError("matrix entries must be finite")
    if np.any(entries < 0):
        raise ValueError("matrix entries must be nonnegative")
    # psi(M)'s shift rows hold one positive entry each
    k = max(int(np.count_nonzero(entries > 0, axis=1).max()), 1)
    floor = (k + 1) * float(np.finfo(np.float64).eps)
    if tol < floor:
        raise ValueError(
            f"tol must be >= {floor:.3g}, finer than doubles resolve here; got {tol}"
        )
    if not is_primitive(M):
        raise NotPrimitiveError("power iteration requires a primitive matrix")
    v = np.full(M.shape[0], 1.0 / M.shape[0])
    best, best_it = math.inf, 0
    for it in range(1, PERRON_MAX_ITER + 1):
        w = M @ v
        ratios = w / v
        lo, hi = float(ratios.min()), float(ratios.max())
        if hi - lo <= tol * hi:
            return PerronResult(0.5 * (lo + hi), v / v.sum(), it)
        width = (hi - lo) / hi
        if width < best:
            best, best_it = width, it
        elif it - best_it >= PERRON_STALL_ITER:
            raise ConvergenceError(
                f"the Collatz-Wielandt bounds stopped narrowing at relative "
                f"width {best:.3g}, above tol {tol:.3g}"
            )
        v = w / w.max()
    raise ConvergenceError(f"no convergence within {PERRON_MAX_ITER} iterations")


def _scaled_dlambda(log_A: np.ndarray, lam: float) -> tuple[np.ndarray, float]:
    ell = log_A.shape[0]
    i = np.arange(1, ell + 1, dtype=np.float64)[:, None]
    log_entries = log_A - i * math.log(lam)
    shift = float(log_entries.max())
    return np.exp(log_entries - shift), shift


def dlambda_report(r: int, ell: int, tol: float = 1e-10) -> dict:
    """Solve rho(D_lambda A) = 1 by bisection; returns the root and work counts.

    The spectral radius is strictly decreasing in lambda, so the root is
    unique.  Each rho comes from `perron` at tol itself, within tol/2 of the
    true radius, and the bisection stops at |rho - 1| <= tol/2, so the
    returned lambda satisfies |rho(D_lambda A) - 1| < tol.  A tol below
    perron's floor for D_lambda A, (ell + 1) eps, is rejected by the first
    solve before it iterates; a tol that lambda's doubles cannot resolve
    ends the bounded bisection in ConvergenceError.
    """
    _validate_r_ell(r, ell)
    log_A = build_A_log(r, ell)
    inner_total = 0

    def rho(lam: float) -> float:
        nonlocal inner_total
        scaled, shift = _scaled_dlambda(log_A, lam)
        res = perron(scaled, tol=tol)
        inner_total += res.iterations
        return res.value * math.exp(shift)

    hi = math.exp(-(r - 2))
    if rho(hi) > 1.0:
        raise SpectralError("upper bracket violates the growth-rate bound")
    lo = hi
    for _ in range(60):
        lo *= 0.5
        if rho(lo) > 1.0:
            break
    else:
        raise SpectralError("failed to bracket the unit spectral radius")
    outer = 0
    lam = 0.5 * (lo + hi)
    for outer in range(1, 201):
        lam = 0.5 * (lo + hi)
        val = rho(lam)
        if abs(val - 1.0) <= tol / 2:
            break
        if val > 1.0:
            lo = lam
        else:
            hi = lam
    else:
        raise ConvergenceError("bisection did not reach the requested tolerance")
    return {
        "r": r,
        "ell": ell,
        "lambda": lam,
        "outer_iterations": outer,
        "inner_iterations": inner_total,
    }


def lambda_via_dlambda(r: int, ell: int, tol: float = 1e-10) -> float:
    return dlambda_report(r, ell, tol=tol)["lambda"]


def lift_vector(v: np.ndarray, lam: float) -> np.ndarray:
    """Stack blocks lambda^{ell-1} v, ..., lambda v, v into an ell^2 vector."""
    v = np.asarray(v, dtype=np.float64)
    ell = v.shape[0]
    return np.concatenate([lam ** (ell - 1 - s) * v for s in range(ell)])


def dlambda_eigenvector(r: int, ell: int, lam: float, tol: float = 1e-13) -> np.ndarray:
    """Positive v with D_lambda A v = v (up to tol) at the given lambda."""
    scaled, _ = _scaled_dlambda(build_A_log(r, ell), lam)
    return perron(scaled, tol=tol).vector

