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
    "PERRON_MIN_TOL",
    "DLAMBDA_MIN_TOL",
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

# perron's Collatz-Wielandt test asks the ratios w/v to agree to 100*tol
# relatively; below eps/100 only exactly equal ratios could pass it.
PERRON_MIN_TOL = float(np.finfo(np.float64).eps) / 100

# dlambda_report stops at |rho(D_lambda A) - 1| < tol, with rho from a power
# iteration that is itself accurate to a few units in the last place.
# Measured over r = 2..5 and ell in {2, 3, 5, 10, 20, 30, 40, 64}: no case
# converged at tol = 3e-15, 6 of 32 did at 4e-15 and 18 of 32 at 1e-14
# (the rest run out of power iterations), and all of them from 3e-13 up.
DLAMBDA_MIN_TOL = 4e-15


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

    def diagonal(self) -> np.ndarray:
        """Diagonal of psi(M): M[0, 0], then zeros."""
        d = np.zeros(self.shape[0])
        d[0] = self.M[0, 0]
        return d

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


def _check_tol(tol: float, floor: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    if tol < floor:
        raise ValueError(
            f"tol must be >= {floor:.3g}, finer than doubles resolve here; got {tol}"
        )


def perron(
    M: np.ndarray | CompanionPsi, tol: float = 1e-13, max_iter: int = 500_000
) -> PerronResult:
    """Dominant eigenvalue and unit-sum eigenvector of a nonnegative matrix.

    M is a square array or a `CompanionPsi`, whose entries are checked on
    its ell x ell block and whose primitivity on its sparse pattern.
    Accepts primitive matrices, and also matrices whose diagonal is strictly
    positive (every communicating class is then aperiodic, so the iteration
    converges to the largest class radius; the uniform start keeps scaled
    multiples of the identity exact).  Periodic inputs are rejected.

    Power iteration with max-norm renormalization; stops when successive
    Rayleigh quotients differ by less than tol and, when the iterate is
    strictly positive, the Collatz-Wielandt bounds agree to 100*tol
    relatively.  A tol below PERRON_MIN_TOL is rejected.
    """
    _check_tol(tol, PERRON_MIN_TOL)
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
    n = M.shape[0]
    if not (is_primitive(M) or np.all(M.diagonal() > 0)):
        raise NotPrimitiveError(
            "power iteration requires a primitive matrix "
            "(or one with strictly positive diagonal)"
        )
    v = np.full(n, 1.0 / n)
    rayleigh = math.inf
    for it in range(1, max_iter + 1):
        w = M @ v
        top = float(w.max())
        if top <= 0.0:
            raise ConvergenceError("iterate collapsed to zero")
        new_rayleigh = float(np.dot(v, w) / np.dot(v, v))
        converged = abs(new_rayleigh - rayleigh) < tol
        if converged and np.all(v > 0):
            ratios = w / v
            lo, hi = float(ratios.min()), float(ratios.max())
            converged = hi - lo <= 100 * tol * max(hi, 1e-300)
            if converged:
                new_rayleigh = 0.5 * (lo + hi)
        if converged:
            vec = v / v.sum()
            return PerronResult(new_rayleigh, vec, it)
        rayleigh = new_rayleigh
        v = w / top
    raise ConvergenceError(f"no convergence within {max_iter} iterations")


def _scaled_dlambda(log_A: np.ndarray, lam: float) -> tuple[np.ndarray, float]:
    ell = log_A.shape[0]
    i = np.arange(1, ell + 1, dtype=np.float64)[:, None]
    log_entries = log_A - i * math.log(lam)
    shift = float(log_entries.max())
    return np.exp(log_entries - shift), shift


def _rho_dlambda(log_A: np.ndarray, lam: float, tol: float) -> tuple[float, int]:
    scaled, shift = _scaled_dlambda(log_A, lam)
    res = perron(scaled, tol=tol)
    return res.value * math.exp(shift), res.iterations


def dlambda_report(r: int, ell: int, tol: float = 1e-10) -> dict:
    """Solve rho(D_lambda A) = 1 by bisection; returns the root and work counts.

    The spectral radius is strictly decreasing in lambda, so the root is
    unique; the returned lambda satisfies |rho(D_lambda A) - 1| < tol.  A
    tol below DLAMBDA_MIN_TOL is rejected at once: doubles cannot meet it.
    """
    _validate_r_ell(r, ell)
    _check_tol(tol, DLAMBDA_MIN_TOL)
    log_A = build_A_log(r, ell)
    inner_tol = min(1e-13, tol * 1e-3)
    inner_total = 0

    def rho(lam: float) -> float:
        nonlocal inner_total
        val, its = _rho_dlambda(log_A, lam, inner_tol)
        inner_total += its
        return val

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
        if abs(val - 1.0) < tol:
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

