"""Point clouds and neighbor graphs for verification and benchmarking.

Determinism contract: clouds come from a counter-based RNG (Philox), so the
same (N, seed) is bit-identical on every platform. Neighbor lists are
ordered by (squared distance, index), so ties go to the lower node index;
kNN is directed (no symmetric closure), because the convolutions sum over
N(i) exactly as given.

Neighbor search queries a k-d tree (``scipy.spatial.cKDTree``), O(N log N)
time and O(N k) memory, and returns exactly the lists a brute-force scan
of all pairs would: candidate squared distances are recomputed with the
scan's own arithmetic and ordered by (distance, index), and a row whose
tree query cannot prove that every unreturned node lies strictly beyond
its last kept neighbor is queried again with twice as many candidates.
Graphs are stored as flat CSR arrays (``indptr``, ``indices``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "PointCloud",
    "NeighborGraph",
    "random_cloud",
    "knn",
    "dense",
    "radius",
    "save_cloud",
    "load_cloud",
]

# Relative margin between the tree's distances and the recomputed ones. A
# squared distance carries a relative rounding error of a few ulp (1e-15)
# wherever the cloud sits, so a gap of 1e-9 separates true ties from
# rounding by six orders of magnitude.
_SLACK = 1e-9


@dataclass(frozen=True)
class PointCloud:
    """N positions in a cubic box; seed/box retained for reproducibility."""

    positions: np.ndarray
    seed: int | None = None
    box_side: float | None = None

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 3 or pos.shape[0] < 1:
            raise ValueError("positions must be an (N>=1, 3) array")
        if not np.isfinite(pos).all():
            raise ValueError("positions must be finite")
        pos = pos.copy()
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)

    @property
    def n_nodes(self) -> int:
        return self.positions.shape[0]


class NeighborGraph:
    """Per-node neighbor lists in flat CSR form.

    The neighbors of node i are ``indices[indptr[i]:indptr[i + 1]]``, in
    (distance, index) order. ``kind`` records the construction (dense,
    knn(k), radius(r_cut, max)). Both arrays are read-only.
    """

    def __init__(self, neighbors, kind: str):
        lists = [np.asarray(lst, dtype=np.int64).reshape(-1) for lst in neighbors]
        indptr = np.zeros(len(lists) + 1, dtype=np.int64)
        np.cumsum([lst.shape[0] for lst in lists], out=indptr[1:])
        indices = np.concatenate(lists) if lists else np.zeros(0, dtype=np.int64)
        bad = (indices < 0) | (indices >= len(lists))
        if bad.any():
            raise ValueError(f"neighbor index {indices[bad][0]} is outside "
                             f"[0, {len(lists)}) for a graph of {len(lists)} nodes")
        self._set(indptr, indices, kind)

    @classmethod
    def _from_csr(cls, indptr, indices, kind: str) -> "NeighborGraph":
        graph = cls.__new__(cls)
        graph._set(indptr, indices, kind)
        return graph

    def _set(self, indptr, indices, kind):
        # both arrays are fresh int64 arrays owned by this graph
        indptr.setflags(write=False)
        indices.setflags(write=False)
        self.indptr, self.indices, self.kind = indptr, indices, kind

    @property
    def n_nodes(self) -> int:
        return self.indptr.shape[0] - 1

    @property
    def n_edges(self) -> int:
        return self.indices.shape[0]

    @cached_property
    def neighbors(self) -> tuple:
        """Per-node views of ``indices``, in (distance, index) order."""
        return tuple(np.split(self.indices, self.indptr[1:-1]))

    def edge_arrays(self):
        """Flat (centers, sources) edge enumeration.

        Centers ascend; within one center the sources are re-sorted to
        ascending node index, the frozen accumulation order for the
        convolutions (graph storage order is by distance instead).
        """
        n = self.n_nodes
        centers = np.repeat(np.arange(n, dtype=np.int64), np.diff(self.indptr))
        # keys of one center fill [center * n, center * n + n), so one sort
        # orders every row in place; timsort keeps presorted rows linear
        offset = centers * n
        sources = np.sort(offset + self.indices, kind="stable")
        sources -= offset
        return centers, sources


def random_cloud(n: int, seed: int, density: float = 1.0) -> PointCloud:
    """Uniform cloud of n points in a cube of side (n / density)^(1/3).

    Constant density keeps kNN geometry scale-stable as n grows.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if density <= 0:
        raise ValueError("density must be positive")
    side = float((n / density) ** (1.0 / 3.0))
    gen = np.random.Generator(np.random.Philox(key=seed))
    pos = gen.random((n, 3)) * side
    return PointCloud(positions=pos, seed=seed, box_side=side)


def _nearest(pos: np.ndarray, k: int, cut: float):
    """Rows of the k nearest other nodes with squared distance <= cut.

    Returns (indptr, indices) with each row in (squared distance, index)
    order; cut = inf keeps every candidate. Squared distances are those of
    a brute-force scan (the same einsum over pos_i - pos_j), so ties at the
    k-th neighbor or at the cutoff fall exactly as in that scan.
    """
    # imported here: scipy.spatial adds about 16 MB of resident memory,
    # which a process that only builds dense graphs should not carry
    from scipy.spatial import cKDTree

    n = pos.shape[0]
    tree = cKDTree(pos)
    # a finite cutoff bounds the tree search; the bound must keep its margin
    # over the cutoff, which a zero or subnormal one cannot
    bound = np.sqrt(cut) * (1.0 + _SLACK)
    if not bound * bound * (1.0 - _SLACK) > cut:
        bound = np.inf
    if bound < np.inf:
        # no row keeps more nodes than its ball holds besides itself, so a
        # cap far above the ball occupancy costs no memory
        k = min(k, int(tree.query_ball_point(pos, bound, return_length=True).max()) - 1)
    k = min(k, n - 1)
    if k == 0:
        return np.zeros(n + 1, dtype=np.int64), np.zeros(0, dtype=np.int64)
    kept = np.zeros((n, k), dtype=np.int64)
    counts = np.zeros(n, dtype=np.int64)
    rows = np.arange(n)
    width = k + 2  # the node itself, k neighbors, and one to prove the k-th
    while rows.size:
        width = min(width, n)
        dist, cand = tree.query(pos[rows], k=width, distance_upper_bound=bound)
        found = cand < n  # the tree pads rows with fewer hits by index n
        cand = np.where(found, cand, rows[:, None])
        diff = pos[rows][:, None, :] - pos[cand]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        keep = found & (cand != rows[:, None]) & (d2 <= cut)
        order = np.lexsort((cand, np.where(keep, d2, np.inf), ~keep), axis=1)
        cand = np.take_along_axis(cand, order, axis=1)[:, :k]
        d2 = np.take_along_axis(d2, order, axis=1)[:, :k]
        n_keep = np.minimum(keep.sum(axis=1), k)
        # a row with an unfilled slot holds every node inside the bound, so
        # all within the cutoff; otherwise every unreturned node lies at tree
        # distance >= the last returned one, and the row is final when that
        # provably exceeds its k-th kept neighbor (if it has k) or the cutoff
        beyond = dist[:, -1] ** 2 * (1.0 - _SLACK)
        done = (width == n) | ~found.all(axis=1) | (cut < beyond)
        done |= (n_keep == k) & (d2[:, -1] < beyond)
        kept[rows[done]] = cand[done]
        counts[rows[done]] = n_keep[done]
        rows = rows[~done]
        width *= 2
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, kept[np.arange(k) < counts[:, None]]


def knn(cloud: PointCloud, k: int) -> NeighborGraph:
    """Directed k-nearest-neighbor graph; ties to the lower node index."""
    if k < 1:
        raise ValueError("k must be >= 1")
    indptr, indices = _nearest(cloud.positions, k, np.inf)
    return NeighborGraph._from_csr(indptr, indices, kind=f"knn({k})")


def dense(n: int) -> NeighborGraph:
    """Every node connected to all other nodes (no self-loops)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    # row i lists 0..n-2 with every entry >= i moved up by one, skipping i
    cols = np.arange(max(n - 1, 0), dtype=np.int64)
    rows = np.arange(n, dtype=np.int64)[:, None]
    indices = (cols + (cols >= rows)).reshape(-1)
    indptr = np.arange(n + 1, dtype=np.int64) * cols.shape[0]
    return NeighborGraph._from_csr(indptr, indices, kind="dense")


def radius(cloud: PointCloud, r_cut: float, max_neighbors: int) -> NeighborGraph:
    """Up to max_neighbors nearest nodes within r_cut; same tie-break as knn.

    ``r_cut`` may be inf (no cutoff); it must not be negative or NaN.
    """
    if not float(r_cut) >= 0.0:
        raise ValueError(f"r_cut must be >= 0 (inf allowed), got {r_cut}")
    if max_neighbors < 1:
        raise ValueError(f"max_neighbors must be >= 1, got {max_neighbors}")
    cut = float(r_cut) ** 2 if np.isfinite(r_cut) else np.inf
    indptr, indices = _nearest(cloud.positions, max_neighbors, cut)
    return NeighborGraph._from_csr(indptr, indices, kind=f"radius({r_cut},{max_neighbors})")


def save_cloud(cloud: PointCloud, path) -> None:
    """Plain-text format: one 'x y z' line per node at 17 significant digits.

    Header comments keep seed and box side so a load round-trips the whole
    record; any other '#' line is ignored by the loader.
    """
    with open(path, "w") as fh:
        if cloud.seed is not None:
            fh.write(f"# seed={cloud.seed}\n")
        if cloud.box_side is not None:
            fh.write(f"# box_side={cloud.box_side:.17g}\n")
        for p in cloud.positions:
            fh.write(f"{p[0]:.17g} {p[1]:.17g} {p[2]:.17g}\n")


def load_cloud(path) -> PointCloud:
    """Read the plain-text cloud format written by save_cloud."""
    seed = None
    box = None
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("seed="):
                    seed = int(body[5:])
                elif body.startswith("box_side="):
                    box = float(body[9:])
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected three columns, got {len(parts)}")
            rows.append([float(x) for x in parts])
    if not rows:
        raise ValueError(f"{path}: no positions found")
    return PointCloud(positions=np.array(rows), seed=seed, box_side=box)
