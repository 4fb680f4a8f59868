"""Independent reference implementations the tests compare the library against.

None of this runs on a library path: the convolutions read the coupling
tables (``angular.real_cg_table``) directly. These are the slow, literal
forms of the same algebra:

* ``real_cg``: one scalar entry of a real coupling table, for naive loops.
* ``real_cg_table_per_entry``: a real coupling table with every complex
  entry from its own ``clebsch_gordan`` call, where the library evaluates
  half and mirrors the rest by m -> -m.
* ``cg_tp``: Clebsch-Gordan tensor product along explicit coupling paths.
* ``project``: extraction of one degree's blocks.
* ``wigner6j_tp``: the recoupled product. For pure-degree factors A (degree
  a), B (degree b), C (degree c) it evaluates

      [A x [B x C]^(j)]^(l_out)
        = sum_d (-1)^(a+b+c+l_out) sqrt((2d+1)(2j+1)) {a b d; c l_out j}
                [[A x B]^(d) x C]^(l_out)

  from the precomputed intermediate blocks [A x B]^(d). The phase here is
  (-1)^(a+b+c+l_out); the variant with d in the exponent fails numerically
  (it flips the sign of every odd-(d - l_out) term), which the recoupling
  tests pin down. Since the phase does not depend on the summation index
  d, it is one overall sign per (a, b, c, l_out).
* ``tensor_power_project``: the top projection of a vector's tensor power.
* ``adjacency_indicator``: dense 0/1 weights marking a graph's edges.

Products are per-channel (depthwise) in the normalized real basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from sixjconv.angular import (
    _real_basis_matrix,
    clebsch_gordan,
    default_cache,
    real_cg_table,
    triangle_ok,
)
from sixjconv.conv import AttentionWeights
from sixjconv.harmonics import presentation_scale, solid_sh
from sixjconv.irreps import IrrepsLayout, IrrepTensor


def real_cg(l1: int, m1: int, l2: int, m2: int, l3: int, m3: int) -> float:
    """Single entry of the real-basis coupling table."""
    if abs(m1) > l1 or abs(m2) > l2 or abs(m3) > l3:
        raise ValueError("|m| > l")
    return float(real_cg_table(l1, l2, l3)[m1 + l1, m2 + l2, m3 + l3])


def real_cg_table_per_entry(l1: int, l2: int, l3: int) -> np.ndarray:
    """``real_cg_table`` built from one ``clebsch_gordan`` call per entry."""
    d1, d2, d3 = 2 * l1 + 1, 2 * l2 + 1, 2 * l3 + 1
    cg = np.zeros((d1, d2, d3))
    if not triangle_ok(l1, l2, l3):
        return cg
    for mu1 in range(-l1, l1 + 1):
        for mu2 in range(-l2, l2 + 1):
            mu3 = mu1 + mu2
            if abs(mu3) <= l3:
                cg[mu1 + l1, mu2 + l2, mu3 + l3] = clebsch_gordan(l1, mu1, l2, mu2, l3, mu3)
    table = np.einsum("cw,uvw,au,bv->abc", _real_basis_matrix(l3), cg.astype(complex),
                      _real_basis_matrix(l1).conj(), _real_basis_matrix(l2).conj(),
                      optimize=True)
    table *= 1j ** (l1 + l2 - l3)
    return np.ascontiguousarray(table.real)


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


def adjacency_indicator(graph) -> AttentionWeights:
    """Dense 0/1 weights marking the graph's edges (handy for equivalences)."""
    n = graph.n_nodes
    a = np.zeros((n, n))
    centers, sources = graph.edge_arrays()
    a[centers, sources] = 1.0
    return AttentionWeights.from_dense(a)
