"""Equivariant feature containers and the exact pair-coupling constants.

* ``IrrepTensor``: N node features blocked by degree; layout entries are
  (degree l, channels c), each block stored channel-major with m = -l..l
  fastest. ``rotate`` applies the blockwise Wigner D action.
* ``calibrate_pair_constants``: kappa(u, v -> u+v), which glues the binomial
  local expansion of an edge harmonic to node-local harmonics.

All tensors live in the normalized (orthonormal real) harmonic basis; see
``harmonics`` for the raw presentation used in goldens. Tensor products
run inside the convolutions (``conv``), straight from the coupling tables
of ``angular.real_cg_table``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .angular import default_cache
from .harmonics import Rotation, wigner_d

__all__ = [
    "IrrepsLayout",
    "IrrepTensor",
    "KappaTable",
    "calibrate_pair_constants",
    "random_tensor",
]


@dataclass(frozen=True)
class IrrepsLayout:
    """Ordered list of (degree l, channel count) entries."""

    entries: tuple

    def __post_init__(self):
        entries = tuple((int(l), int(c)) for l, c in self.entries)
        for l, c in entries:
            if l < 0:
                raise ValueError(f"negative degree {l}")
            if c <= 0:
                raise ValueError(f"nonpositive channel count {c}")
        object.__setattr__(self, "entries", entries)

    @property
    def dim(self) -> int:
        return sum(c * (2 * l + 1) for l, c in self.entries)

    def offsets(self) -> list:
        out, off = [], 0
        for l, c in self.entries:
            out.append(off)
            off += c * (2 * l + 1)
        return out

    @property
    def degrees(self) -> tuple:
        return tuple(l for l, _ in self.entries)

    def index_of_degree(self, l: int) -> int:
        hits = [i for i, (d, _) in enumerate(self.entries) if d == l]
        if not hits:
            raise KeyError(f"layout has no degree {l}")
        if len(hits) > 1:
            raise KeyError(f"degree {l} is ambiguous in layout {self.entries}")
        return hits[0]


@dataclass
class IrrepTensor:
    """N node features in a blocked layout; values (N, layout.dim)."""

    layout: IrrepsLayout
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or self.values.shape[1] != self.layout.dim:
            raise ValueError(
                f"values shape {self.values.shape} does not match layout dim {self.layout.dim}"
            )

    @property
    def n_nodes(self) -> int:
        return self.values.shape[0]

    def block(self, index: int) -> np.ndarray:
        """Entry `index` as an (N, channels, 2l+1) view."""
        l, c = self.layout.entries[index]
        off = self.layout.offsets()[index]
        return self.values[:, off:off + c * (2 * l + 1)].reshape(self.n_nodes, c, 2 * l + 1)

    def degree_block(self, l: int) -> np.ndarray:
        return self.block(self.layout.index_of_degree(l))

    @staticmethod
    def from_blocks(entries, blocks) -> "IrrepTensor":
        """Build from per-entry (N, c, 2l+1) arrays."""
        layout = IrrepsLayout(tuple(entries))
        n = blocks[0].shape[0]
        flat = [np.asarray(b, dtype=float).reshape(n, -1) for b in blocks]
        return IrrepTensor(layout, np.concatenate(flat, axis=1) if flat else np.zeros((n, 0)))

    def rotate(self, rot: Rotation) -> "IrrepTensor":
        """Apply the blockwise Wigner D action of `rot` (normalized basis)."""
        mats = {}
        out = np.empty_like(self.values)
        res = IrrepTensor(self.layout, out)
        for i, (l, _) in enumerate(self.layout.entries):
            if l not in mats:
                mats[l] = wigner_d(l, rot).matrix
            res.block(i)[:] = self.block(i) @ mats[l].T
        return res


def random_tensor(layout, n: int, seed=0) -> IrrepTensor:
    """Deterministic standard-normal tensor for tests and benchmarks."""
    layout = layout if isinstance(layout, IrrepsLayout) else IrrepsLayout(tuple(layout))
    rng = np.random.default_rng(np.random.Philox(key=seed))
    return IrrepTensor(layout, rng.standard_normal((n, layout.dim)))


class KappaTable:
    """Pair-coupling constants kappa(u, v -> l) of the normalized basis.

    kappa is defined by  [sh_u(r) x sh_v(r)]^(l) = kappa * sh_l(r)  for the
    maximal coupling l = u + v, any r. These constants glue the binomial
    local expansion and the node-route convolution to the raw identities.
    """

    def __init__(self, l_max: int, values: dict):
        self.l_max = int(l_max)
        self._values = dict(values)

    def kappa(self, u: int, v: int, l: int) -> float:
        if l != u + v:
            raise KeyError(f"kappa is defined for maximal couplings only, got ({u},{v})->{l}")
        if l > self.l_max:
            raise KeyError(f"kappa({u},{v}->{l}) beyond the table's l_max={self.l_max}")
        return self._values[(u, l)]

    def items(self):
        return self._values.items()


@lru_cache(maxsize=None)
def calibrate_pair_constants(l_max: int) -> KappaTable:
    """Exact kappa(u, l-u -> l) for all 0 <= u <= l <= l_max.

    For the maximal coupling l = u + v of the orthonormal basis,

        kappa(u, v -> l) = (-1)^l sqrt((2u+1)(2v+1) / (4 pi)) (u v l; 0 0 0),

    read from the exact 3j values of ``default_cache``.
    """
    default_cache._check(l_max)
    values = {}
    for l in range(l_max + 1):
        sign = -1.0 if l % 2 else 1.0
        for u in range(l + 1):
            v = l - u
            three_j = default_cache.wigner3j((u, v, l, 0, 0, 0))
            values[(u, l)] = sign * math.sqrt((2 * u + 1) * (2 * v + 1) / (4 * math.pi)) * three_j
    return KappaTable(l_max, values)
