"""Equivariant feature containers and the three tensor-product primitives.

* ``cg_tp``: Clebsch-Ordan tensor product along explicit coupling paths.
* ``project``: extraction of one degree's blocks.
* ``wigner6j_tp``: the recoupled product. For pure-degree factors A (degree
  a), B (degree b), C (degree c) it evaluates

      [A x [B x C]^(j)]^(l_out)
        = sum_d (-1)^(a+b+c+l_out) sqrt((2d+1)(2j+1)) {a b d; c l_out j}
                [[A x B]^(d) x C]^(l_out)

  from the precomputed intermediate blocks [A x B]^(d). The phase here is
  (-1)^(a+b+c+l_out); the variant with d in the exponent fails numerically
  (it flips the sign of every odd-(d - l_out) term), which the recoupling
  test suite pins down. Since the phase does not depend on the summation
  index d, it is one overall sign per (a, b, c, l_out).

All tensors live in the normalized (orthonormal real) harmonic basis; see
``harmonics`` for the raw presentation used in goldens.

Features are blocked by degree: layout entries are (degree l, channels c),
each block stored channel-major with m = -l..l fastest. Products are
per-channel (depthwise); channel mixing is a separate linear map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .angular import default_cache, real_cg_table, triangle_ok
from .harmonics import Rotation, presentation_scale, solid_sh, wigner_d

__all__ = [
    "IrrepsLayout",
    "IrrepTensor",
    "PathSpec",
    "KappaTable",
    "cg_tp",
    "project",
    "tensor_power_project",
    "calibrate_pair_constants",
    "wigner6j_tp",
    "random_tensor",
    "mix_channels",
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


def from_sh(table, l: int) -> IrrepTensor:
    """Wrap one degree block of a SolidHarmonicsTable as a 1-channel tensor."""
    arr = table.blocks[l]
    return IrrepTensor.from_blocks([(l, 1)], [arr[:, None, :]])


@dataclass(frozen=True)
class PathSpec:
    """One coupling path (l1, l2) -> l_out with a scalar weight."""

    l1: int
    l2: int
    l_out: int
    weight: float = 1.0

    def __post_init__(self):
        if not triangle_ok(self.l1, self.l2, self.l_out):
            raise ValueError(f"path ({self.l1},{self.l2})->{self.l_out} violates the triangle rule")


# sparse-first storage of coupling tables; kernels densify on demand
@lru_cache(maxsize=None)
def sparse_cg(l1: int, l2: int, l3: int):
    """Nonzero real coupling entries as (m1_idx, m2_idx, m3_idx, values) arrays."""
    w = real_cg_table(l1, l2, l3)
    i1, i2, i3 = np.nonzero(w)
    return i1, i2, i3, w[i1, i2, i3]


@lru_cache(maxsize=None)
def dense_w(l1: int, l2: int, l3: int) -> np.ndarray:
    """Coupling table as a dense ((2l1+1)(2l2+1), 2l3+1) GEMM matrix."""
    i1, i2, i3, vals = sparse_cg(l1, l2, l3)
    d2, d3 = 2 * l2 + 1, 2 * l3 + 1
    out = np.zeros(((2 * l1 + 1) * d2, d3))
    out[i1 * d2 + i2, i3] = vals
    out.setflags(write=False)
    return out


def _pair_blocks(a: IrrepTensor, b: IrrepTensor, path: PathSpec):
    ba = a.degree_block(path.l1)
    bb = b.degree_block(path.l2)
    ca, cb = ba.shape[1], bb.shape[1]
    if ca != cb and 1 not in (ca, cb):
        raise ValueError(f"channel mismatch on path {path}: {ca} vs {cb}")
    c = max(ca, cb)
    if ca != c:
        ba = np.broadcast_to(ba, (ba.shape[0], c, ba.shape[2]))
    if cb != c:
        bb = np.broadcast_to(bb, (bb.shape[0], c, bb.shape[2]))
    return ba, bb, c


def cg_tp(a: IrrepTensor, b: IrrepTensor, paths) -> IrrepTensor:
    """Clebsch-Gordan tensor product of two tensors along explicit paths.

    Output carries one (l_out, channels) entry per path, in path order.
    Channels combine elementwise; a 1-channel operand broadcasts.
    """
    if a.n_nodes != b.n_nodes:
        raise ValueError("operand node counts differ")
    entries, blocks = [], []
    for path in paths:
        ba, bb, c = _pair_blocks(a, b, path)
        w = real_cg_table(path.l1, path.l2, path.l_out)
        out = np.einsum("ncu,ncv,uvw->ncw", ba, bb, w, optimize=True)
        if path.weight != 1.0:
            out *= path.weight
        entries.append((path.l_out, c))
        blocks.append(out)
    return IrrepTensor.from_blocks(entries, blocks)


def project(a: IrrepTensor, l: int) -> IrrepTensor:
    """Restrict to the degree-l entries; empty tensor if none exist."""
    keep = [i for i, (d, _) in enumerate(a.layout.entries) if d == l]
    if not keep:
        return IrrepTensor(IrrepsLayout(()), a.values[:, :0])
    entries = [a.layout.entries[i] for i in keep]
    return IrrepTensor.from_blocks(entries, [a.block(i) for i in keep])


def tensor_power_project(v, p: int, L: int) -> np.ndarray:
    """Top-degree projection of the p-fold tensor power of a 3-vector.

    Couples v with itself along the maximal path (1,1)->2, (2,1)->3, ...,
    (L-1,1)->L; by ordering invariance of the top component, any other
    binary coupling tree gives the same block. Requires p == L (lower
    projections of a p-fold power are different objects). The input is the
    Cartesian vector (x, y, z) (single (3,) or batch (N, 3)); the result is
    returned in the raw presentation, so p = L = 1 returns the degree-1
    block of v itself (kappa_1 = 1) and general L is proportional to
    solid_sh(L, v) raw with a constant kappa_L depending only on L.
    """
    if p != L:
        raise ValueError("only the top projection p == L is defined")
    if L < 1:
        raise ValueError("L must be >= 1")
    pts = np.asarray(v, dtype=float)
    single = pts.ndim == 1
    if single:
        pts = pts[None, :]
    sh1 = solid_sh(1, pts, mode="normalized").blocks[1]
    cur = sh1
    for s in range(2, L + 1):
        w = real_cg_table(s - 1, 1, s)
        cur = np.einsum("nu,nv,uvw->nw", cur, sh1, w, optimize=True)
    out = cur / presentation_scale(L)
    return out[0] if single else out


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
            raise KeyError(f"kappa({u},{v}->{l}) beyond calibrated l_max={self.l_max}")
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


def wigner6j_tp(ab: IrrepTensor, c_t: IrrepTensor, l_out: int, j_fixed: int, pair) -> IrrepTensor:
    """Recoupled product [A x [B x C]^(j_fixed)]^(l_out) from (A x B) blocks.

    `ab` must carry one block per admissible intermediate degree
    d = |a-b|..a+b for the source pair (a, b) (which the d values alone do
    not determine, hence the explicit `pair`); `c_t` is a pure-degree
    tensor. j_fixed is the inner coupling degree of the target association
    order. Triangle-incompatible (j_fixed, l_out) give an exact zero block.
    """
    a, b = pair
    if len(c_t.layout.entries) != 1:
        raise ValueError("C must be a pure-degree tensor")
    c = c_t.layout.entries[0][0]
    need = list(range(abs(a - b), a + b + 1))
    have = sorted(ab.layout.degrees)
    if have != need:
        raise ValueError(f"intermediate blocks {have} do not cover d = {need} for pair {pair}")
    if ab.n_nodes != c_t.n_nodes:
        raise ValueError("operand node counts differ")
    ch = max(ab.block(0).shape[1], c_t.block(0).shape[1])
    out = np.zeros((ab.n_nodes, ch, 2 * l_out + 1))
    phase = -1.0 if (a + b + c + l_out) % 2 else 1.0
    if triangle_ok(b, c, j_fixed) and triangle_ok(a, j_fixed, l_out):
        for d in need:
            if not triangle_ok(d, c, l_out):
                continue
            sixj = default_cache.wigner6j((a, b, d, c, l_out, j_fixed))
            if sixj == 0.0:
                continue
            coeff = phase * math.sqrt((2 * d + 1) * (2 * j_fixed + 1)) * sixj
            term = cg_tp(
                project(ab, d),
                c_t,
                [PathSpec(d, c, l_out, weight=coeff)],
            )
            out += term.block(0)
    return IrrepTensor.from_blocks([(l_out, ch)], [out])


def mix_channels(a: IrrepTensor, weights: dict) -> IrrepTensor:
    """Linear per-degree channel mixing: block -> weights[l] @ block.

    `weights[l]` has shape (c_out, c_in). Degrees without a matrix pass
    through unchanged. This is the only place channels interact.
    """
    entries, blocks = [], []
    for i, (l, c) in enumerate(a.layout.entries):
        blk = a.block(i)
        if l in weights:
            w = np.asarray(weights[l], dtype=float)
            if w.shape[1] != c:
                raise ValueError(f"mixing matrix for degree {l} expects {c} input channels")
            blk = np.einsum("oc,ncm->nom", w, blk)
            c = w.shape[0]
        entries.append((l, c))
        blocks.append(blk)
    return IrrepTensor.from_blocks(entries, blocks)
