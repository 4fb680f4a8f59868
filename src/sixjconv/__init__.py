"""SO(3)-equivariant point-cloud convolutions via Wigner 6j recoupling.

Two mathematically identical convolution routes over point clouds:

* ``conv.edge_conv``: the classical baseline, one Clebsch-Gordan tensor
  product per edge between source features and edge-vector solid harmonics.
* ``conv.node_conv``: the factorized route; tensor products only per node,
  with the edge work reduced to scalar-weighted sums, glued back together
  by Wigner 6j recoupling coefficients.

Supporting modules: exact angular coefficients and real coupling tables
(``angular``), real solid harmonics and Wigner D matrices (``harmonics``),
irrep feature containers and the exact pair-coupling constants
(``irreps``), point clouds and neighbor graphs (``graph``), and a
verification/benchmark CLI (``bench_cli``).

Submodules load lazily (PEP 562) so the command-line entry point can pin
BLAS thread counts through environment variables before numpy is imported.
"""

import importlib

__all__ = ["angular", "conv", "graph", "harmonics", "irreps", "bench_cli"]
__version__ = "0.1.0"


def __getattr__(name):
    if name in __all__:
        module = importlib.import_module(f".{name}", __name__)
        globals()[name] = module
        return module
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(list(globals()) + list(__all__))
