"""Bootstrap percolation on Erdos-Renyi graphs.

Exact counting of minimally susceptible graphs, CSR graphs and the K_k
graph bootstrap, sharp-threshold functions, branching-process
approximations, spectral analysis of the counting recursion, and G(n, p)
Monte Carlo experiments, whose r-neighbour percolations run in two round
drivers (the peeling kernel and the seeded trials' lockstep) that share one
numpy finisher.
"""

from . import branching, counting, engine, experiments, spectral, thresholds

__version__ = "0.1.0"

__all__ = [
    "branching",
    "counting",
    "engine",
    "experiments",
    "spectral",
    "thresholds",
    "__version__",
]
