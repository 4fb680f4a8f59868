"""The two equivalent convolutions: edge-wise messages vs node-wise recoupling.

Edge route (the classical baseline): for every edge (i, j) couple the source
features with solid harmonics of the edge vector,

    out_i = sum_{j in N(i)} alpha_ij * [h_j x R(r_ij)]     r_ij = r_i - r_j.

Node route: expand R(r_ij) through the binomial local expansion into
node-local harmonics of r_i and r_j, push the j-side factor through the edge
sum (so edges contribute scalar-weighted additions only), and re-associate
the coupling order per center with Wigner 6j coefficients:

    out_i = sum_{l, u, d} (-1)^(l-u) binom(l, u) / kappa(u, l-u -> l)
            * (-1)^(a + l + l_out) sqrt((2d+1)(2l+1))
            * {a, l-u, d; u, l_out, l} * [ S_i^(a, l-u, d) x sh_u(r_i) ]^(l_out)

    S_i^(a, v, d) = sum_{j in N(i)} alpha_ij [h_j x sh_v(r_j)]^(d).

The pair constants kappa(u, l-u -> l) come in closed form from exact 3j
symbols (``irreps.calibrate_pair_constants``), and every node call computes
the harmonics sh(r_i) of its own node positions; a caller supplies neither.
Attention weights on a graph arrive as ``AttentionWeights``, never as a
bare array; only ``attention_node_conv`` also takes a bare dense array.

Both routes produce identical outputs (the equivalence suite pins this at
1e-10); their cost profiles differ: tensor products per edge versus per node.

The node route runs in three stages. Stage 1 forms the j-side products
P_j^(a, v, d) = [h_j x sh_v(r_j)]^(d): one GEMM contracts each node's
harmonic sh_v(r_j) with the coupling tables into a per-node operator, which
one batched matmul applies to all channels of the node. Stages 2 and 3 then
run one intermediate degree d at a time. Stage 2 stacks the P blocks of that
d and sums them over each node's neighbours (S): on a graph with one sparse
matrix product per weight exponent; on dense weights (H, N, N) with one
batched GEMM per head and exponent, S_h = (w_h / |r_ij|^e) @ P_h, with no
edge list. Stage 3 forms every 6j-weighted sum x = sum g S of that d with one
GEMM, then couples x with sh_u(r_i) through a per-node operator per output
degree, built by one GEMM from the node harmonics and applied by one
batched matmul. S and x of one d are released before the next.

Every node-route call runs through the one entry ``_node_route``: input
checks, plan, counters and packing. ``node_conv`` and ``attention_node_conv``
run the three stages and supply stage 2 only: a sum over a graph's edges, or
the dense sum (``attention_node_conv``, and ``node_conv`` on a graph whose
edges are every ordered pair, which its edge arrays show).
``moments_conv`` sums before it couples: S_i is the same sum over all nodes
for every centre, so one set of global moments per call replaces stages 1
and 2, and stage 3 is one GEMM per output degree.

Normalization modes: "raw-solid" uses the solid harmonics as-is; "unit-Y"
divides the degree-l edge harmonic by |r_ij|^l, which on the node route is
absorbed into per-degree aggregation weights alpha_ij / |r_ij|^l.
Internally all blocks live in the orthonormal real basis; see ``harmonics``
for presentation conventions.

Instrumented counters are first-class outputs. ``tp_count`` counts logical
tensor-product evaluations (edges x coupling paths on the edge route; nodes x
(j-side products + applied recouplings) on the node route; vectorized
batching does not change the count). ``add_count`` counts scalar-weighted
block additions (per edge, except moments_conv where the interaction is
global and the adds are per node). The node route's tp_count is exactly
independent of the neighbor count and proportional to N, which is the
testable form of the complexity claim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .angular import CapacityError, default_cache, real_cg_table, triangle_ok
from .harmonics import presentation_scale, solid_sh
from .irreps import IrrepTensor, calibrate_pair_constants

__all__ = [
    "ConvConfig",
    "AttentionWeights",
    "OpCounters",
    "ConvResult",
    "DegenerateEdgeError",
    "edge_conv",
    "binomial_expand_sh",
    "node_conv",
    "attention_node_conv",
    "moments_conv",
]

MODES = ("raw-solid", "unit-Y")

_EPS = 1e-8  # shortest edge unit-Y, which divides by |r_ij|, accepts


class DegenerateEdgeError(ValueError):
    """An edge shorter than 1e-8 was hit in unit-Y mode, which divides by distance."""


@dataclass(frozen=True)
class ConvConfig:
    """Convolution configuration.

    ``harmonic_degrees`` restricts which edge-harmonic degrees contribute
    (default: all of 0..l_max). ``include_self`` adds the j = i term, which
    only makes sense with uniform or dense attention weights; the zero-length
    self edge is harmless in raw-solid mode because harmonics of degree >= 1
    vanish at the origin. unit-Y divides by |r_ij| and rejects it.
    """

    l_max: int
    channels: int
    mode: str = "raw-solid"
    include_self: bool = False
    harmonic_degrees: tuple | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == "unit-Y" and self.include_self:
            raise ValueError("mode='unit-Y' cannot take include_self=True: it divides "
                             "by |r_ij|, which is 0 on the self edge")
        if self.l_max < 0 or self.channels < 1:
            raise ValueError("l_max must be >= 0 and channels >= 1")
        default_cache._check(self.l_max)
        if self.harmonic_degrees is not None:
            degs = tuple(sorted({int(v) for v in self.harmonic_degrees}))
            if degs and degs[0] < 0:
                raise ValueError("harmonic degrees must be nonnegative")
            default_cache._check(*degs)
            object.__setattr__(self, "harmonic_degrees", degs)

    @property
    def degrees(self) -> tuple:
        if self.harmonic_degrees is not None:
            return self.harmonic_degrees
        return tuple(range(self.l_max + 1))


@dataclass(frozen=True)
class AttentionWeights:
    """Per-edge or dense scalar weights, optionally per-head.

    Dense values have shape (N, N) or (N, N, H); per-edge values have shape
    (E,) or (E, H) aligned with ``graph.edge_arrays()`` order. Heads split
    the channel axis into H contiguous groups, so H must divide the channel
    count.
    """

    values: np.ndarray
    dense: bool

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if not np.isfinite(v).all():
            raise ValueError("attention weights must be finite")
        if self.dense and (v.ndim not in (2, 3) or v.shape[0] != v.shape[1]):
            raise ValueError("dense weights must be (N, N) or (N, N, H)")
        if not self.dense and v.ndim not in (1, 2):
            raise ValueError("edge weights must be (E,) or (E, H)")
        object.__setattr__(self, "values", v)

    @property
    def heads(self) -> int:
        if self.dense:
            return 1 if self.values.ndim == 2 else self.values.shape[2]
        return 1 if self.values.ndim == 1 else self.values.shape[1]

    @staticmethod
    def from_dense(values) -> "AttentionWeights":
        return AttentionWeights(np.asarray(values, dtype=float), dense=True)

    @staticmethod
    def from_edges(values) -> "AttentionWeights":
        return AttentionWeights(np.asarray(values, dtype=float), dense=False)

    def edge_values(self, centers, sources) -> np.ndarray:
        """Weights as an (E, H) array for the given edge enumeration."""
        if self.dense:
            out = self.values[centers, sources]
        else:
            if self.values.shape[0] != centers.shape[0]:
                raise ValueError(
                    f"got {self.values.shape[0]} per-edge weights for "
                    f"{centers.shape[0]} edges"
                )
            out = self.values
        return out[:, None] if out.ndim == 1 else out


@dataclass
class OpCounters:
    """Logical work counters; see the module docstring for exact semantics."""

    tp_count: int = 0
    add_count: int = 0


class ConvResult(NamedTuple):
    output: IrrepTensor
    counters: OpCounters


# ---------------------------------------------------------------------------
# shared plumbing


def _edges_of(graph, cfg: ConvConfig, n: int):
    """Edges in CSR order: centers ascending, sources ascending within a
    center; with include_self each self edge sits at its sorted place."""
    if graph.n_nodes != n:
        raise ValueError(f"graph has {graph.n_nodes} nodes, features have {n}")
    centers, sources = graph.edge_arrays()
    if cfg.include_self:
        idx = np.arange(n, dtype=np.int64)
        below = np.bincount(centers[sources < centers], minlength=n)
        at = np.searchsorted(centers, idx) + below
        centers = np.insert(centers, at, idx)
        sources = np.insert(sources, at, idx)
    return centers, sources


def _alpha_heads(alpha, centers, sources, n: int, channels: int) -> np.ndarray:
    """Per-edge per-head weights (E, H) of None (uniform) or AttentionWeights.

    Head k weights the channels [k C/H, (k+1) C/H). A raw array is rejected:
    its shape cannot tell dense from per-edge weights when E == N == H.
    """
    if alpha is None:
        return np.ones((centers.shape[0], 1))
    if not isinstance(alpha, AttentionWeights):
        raise TypeError(
            f"alpha must be None or AttentionWeights, got {type(alpha).__name__}; "
            "wrap arrays with AttentionWeights.from_dense or AttentionWeights.from_edges"
        )
    if alpha.dense and alpha.values.shape[:2] != (n, n):
        raise ValueError(f"dense weights of shape {alpha.values.shape} do not fit "
                         f"{n} nodes: need (N, N) or (N, N, H)")
    vals = alpha.edge_values(centers, sources)
    _check_heads(vals.shape[1], channels)
    return vals


def _check_heads(heads: int, channels: int):
    if channels % heads:
        raise ValueError(f"{heads} heads do not divide {channels} channels")


def _check_inputs(positions, h: IrrepTensor, cfg: ConvConfig) -> np.ndarray:
    positions = np.asarray(positions, dtype=float)
    if positions.shape != (h.n_nodes, 3):
        raise ValueError("positions must be (N, 3) and match h")
    if not np.isfinite(positions).all():
        raise ValueError("positions must be finite")
    for l in h.layout.degrees:
        h.layout.index_of_degree(l)  # rejects duplicate degrees
    for _, c in h.layout.entries:
        if c != cfg.channels:
            raise ValueError(
                f"feature channels {c} do not match cfg.channels {cfg.channels}"
            )
    if not np.isfinite(h.values).all():
        raise ValueError("features must be finite")
    return positions


def _check_node_degrees(h: IrrepTensor, cfg: ConvConfig):
    """Reject degrees the node route's exact coefficients cannot reach.

    Stage 1 couples feature degree a with harmonic degree v into every
    intermediate degree up to a + v, and the 3j/6j cache stops at J_max.
    """
    j_max = default_cache.j_max
    a_max = max(h.layout.degrees, default=0)
    v_max = max(cfg.degrees, default=0)
    if a_max + v_max > j_max:
        raise CapacityError(
            f"l_max={cfg.l_max} is beyond the node route: feature degree {a_max} "
            f"and harmonic degree {v_max} couple up to degree {a_max + v_max} > "
            f"J_max={j_max}; with features up to degree l_max it supports "
            f"l_max <= {j_max // 2}"
        )


def _out_zeros(n: int, cfg: ConvConfig):
    return [np.zeros((n, cfg.channels, 2 * l + 1)) for l in range(cfg.l_max + 1)]


def _pack_out(blocks) -> IrrepTensor:
    entries = [(l, b.shape[1]) for l, b in enumerate(blocks)]
    return IrrepTensor.from_blocks(entries, blocks)


def _degenerate(dist, pair):
    """Reject the first distance below _EPS in unit-Y mode; ``pair`` maps its
    flat index in ``dist`` to the edge (i, j)."""
    bad = np.flatnonzero(dist < _EPS)
    if bad.size:
        i, j = pair(bad[0])
        raise DegenerateEdgeError(
            f"edge ({i}, {j}) has |r_ij| = {dist.flat[bad[0]]:.3e} "
            f"< eps = {_EPS:.1e} in unit-Y mode"
        )


# ---------------------------------------------------------------------------
# edge route

_EDGE_CHUNK_FLOATS = 4_000_000  # working-buffer budget per edge chunk


def _edge_paths(h_degrees, cfg: ConvConfig):
    paths = []
    for a in h_degrees:
        for v in cfg.degrees:
            louts = tuple(range(abs(a - v), min(a + v, cfg.l_max) + 1))
            if louts:
                paths.append((a, v, louts))
    return paths


def edge_conv(graph, positions, h: IrrepTensor, cfg: ConvConfig, alpha=None) -> ConvResult:
    """Baseline convolution: one tensor product per edge and coupling path.

    Edge harmonics are evaluated inside this call on purpose: they are
    per-edge work and belong to this route's cost model.
    """
    positions = _check_inputs(positions, h, cfg)
    n = h.n_nodes
    centers, sources = _edges_of(graph, cfg, n)
    aw = _alpha_heads(alpha, centers, sources, n, cfg.channels)
    if aw.shape[1] > 1:
        aw = np.repeat(aw, cfg.channels // aw.shape[1], axis=1)
    paths = _edge_paths(h.layout.degrees, cfg)
    tables = {(a, v): np.concatenate([real_cg_table(a, v, l).reshape(-1, 2 * l + 1)
                                      for l in louts], axis=1)
              for a, v, louts in paths}
    out = _out_zeros(n, cfg)
    counters = OpCounters()
    e = centers.shape[0]
    n_triples = sum(len(louts) for _, _, louts in paths)
    counters.tp_count = e * n_triples
    counters.add_count = e * n_triples
    if e == 0 or not paths:
        return ConvResult(_pack_out(out), counters)

    vmax = max(v for _, v, _ in paths)
    widest = max((2 * a + 1) * (2 * v + 1) * cfg.channels for a, v, _ in paths)
    chunk = max(1, _EDGE_CHUNK_FLOATS // widest)
    for s in range(0, e, chunk):
        sl = slice(s, min(s + chunk, e))
        cc, ss = centers[sl], sources[sl]
        rij = positions[cc] - positions[ss]
        tab = solid_sh(vmax, rij, mode="normalized")
        if cfg.mode == "unit-Y":
            dist = np.linalg.norm(rij, axis=1)
            _degenerate(dist, lambda b: (cc[b], ss[b]))
        # centers ascend within edge_arrays order, so runs of equal center
        # are contiguous and reduceat can pre-sum each run
        seg_starts = np.flatnonzero(np.r_[True, cc[1:] != cc[:-1]])
        seg_rows = cc[seg_starts]
        awc = aw[sl]
        gathered = {}
        for a, v, louts in paths:
            if a not in gathered:
                gathered[a] = h.degree_block(a)[ss] * awc[:, :, None]
            ga = gathered[a]
            shv = tab.blocks[v]
            if cfg.mode == "unit-Y" and v:
                shv = shv / dist[:, None] ** v
            z = ga[:, :, :, None] * shv[:, None, None, :]
            ec, c = z.shape[0], z.shape[1]
            res = z.reshape(ec * c, -1) @ tables[a, v]
            seg = np.add.reduceat(res.reshape(ec, c, -1), seg_starts, axis=0)
            col = 0
            for l in louts:
                out[l][seg_rows] += seg[:, :, col:col + 2 * l + 1]
                col += 2 * l + 1
    return ConvResult(_pack_out(out), counters)


# ---------------------------------------------------------------------------
# binomial local expansion


def binomial_expand_sh(l: int, r_i, r_j) -> np.ndarray:
    """Recover solid_sh(l, r_i - r_j) from node-local harmonics.

    Evaluates sum_u (-1)^(l-u) binom(l, u) / kappa(u, l-u -> l) *
    [sh_u(r_i) x sh_{l-u}(r_j)]^(l) in the normalized basis, with the exact
    constants of ``calibrate_pair_constants``, and returns the block in raw
    presentation so it compares against the polynomial goldens directly.
    """
    kappa = calibrate_pair_constants(l)
    ri = np.asarray(r_i, dtype=float).reshape(3)
    rj = np.asarray(r_j, dtype=float).reshape(3)
    tab_i = solid_sh(l, ri, mode="normalized")
    tab_j = solid_sh(l, rj, mode="normalized")
    acc = np.zeros(2 * l + 1)
    for u in range(l + 1):
        v = l - u
        zi = tab_i.block(u)
        zj = tab_j.block(v)
        z = (zi[:, None] * zj[None, :]).reshape(-1)
        coef = (-1.0) ** (l - u) * math.comb(l, u) / kappa.kappa(u, v, l)
        acc += coef * (z @ real_cg_table(u, v, l).reshape(-1, 2 * l + 1))
    return acc / presentation_scale(l)


# ---------------------------------------------------------------------------
# node route


def _harmonic_first(a: int, v: int, ds) -> np.ndarray:
    """Coupling tables of (a, v) -> d for every d in ``ds``, harmonic index
    first: row m2 of the ((2v+1), sum_d (2d+1) * (2a+1)) result maps
    feature component m1 to output component m of degree d at column
    (d, m, m1)."""
    w = np.concatenate([real_cg_table(a, v, d) for d in ds], axis=2)
    return np.ascontiguousarray(w.transpose(1, 2, 0)).reshape(2 * v + 1, -1)


def _head_major(block: np.ndarray, heads: int) -> np.ndarray:
    """(N, C, 2l+1) feature block as an (H, N, 2l+1, C/H) view."""
    n, c, width = block.shape
    return block.reshape(n, heads, c // heads, width).transpose(1, 0, 3, 2)


def _own_harmonic_product(ha: np.ndarray, sh: np.ndarray, table: np.ndarray) -> np.ndarray:
    """[h_a x sh_v]^(d) for all d of ``table`` (see ``_harmonic_first``).

    ``ha`` is a head-major feature block (H, N, 2a+1, C/H). One GEMM
    contracts each node's harmonic into a per-node (D, 2a+1) operator, and
    one batched matmul applies it to every channel of the node. Returns
    (H, N, D, C/H), D = sum_d (2d+1).
    """
    _, n, wa, _ = ha.shape
    return (sh @ table).reshape(n, table.shape[1] // wa, wa) @ ha


@dataclass
class _DegreePlan:
    """Stages 2 and 3 for one intermediate degree d.

    ``rows`` are the aggregated j-side blocks, as (a, v, first column of d in
    the stage-1 (a, v) product), grouped by the exponent e of their stage-2
    weights alpha_ij / |r_ij|^e; ``runs`` holds (e, first row, end row) per
    group. ``g`` carries the 6j weights from rows to the (l_out, u) columns,
    sorted so that each l_out owns a contiguous column range. ``outs`` holds
    per l_out (l_out, first column, end column, first and end component of
    the node harmonics sh_u over the columns' u, table); the table maps
    those harmonics to the per-node operator with rows (u, m1) and columns
    m3 (``_recoupling_table``).
    """

    d: int
    rows: tuple
    runs: tuple
    g: np.ndarray
    outs: tuple


@dataclass
class _NodePlan:
    products: tuple     # stage 1: (a, v, table of _harmonic_first over the used d)
    degrees: tuple      # _DegreePlan per intermediate degree d, ascending
    n_p: int            # computed j-side (a, v, d) products per node
    n_applied: int      # nonzero recoupling applications per node
    n_rows: int         # aggregated blocks per edge (per node for moments)
    sh_degree: int      # highest node-harmonic degree the stages read


_PLAN_CACHE: dict = {}


def _recoupling_table(d: int, us: tuple, l_out: int) -> np.ndarray:
    """Rows (u, m2) for u in us[0]..us[-1]; columns (u in us, m1, m3)."""
    lo = us[0] * us[0]
    t = np.zeros(((us[-1] + 1) ** 2 - lo, len(us), 2 * d + 1, 2 * l_out + 1))
    for iu, u in enumerate(us):
        r0 = u * u - lo
        t[r0:r0 + 2 * u + 1, iu] = real_cg_table(d, u, l_out).transpose(1, 0, 2)
    return t.reshape(t.shape[0], -1)


def _node_plan(h_degrees: tuple, cfg: ConvConfig) -> _NodePlan:
    key = (tuple(h_degrees), cfg.l_max, cfg.degrees, cfg.mode)
    plan = _PLAN_CACHE.get(key)
    if plan is not None:
        return plan
    kappa = calibrate_pair_constants(max(cfg.degrees, default=0))
    weights: dict = {}  # d -> {(a, v, e): {(l_out, u): g}}
    n_applied = 0
    for a in h_degrees:
        for l in cfg.degrees:
            for u in range(l + 1):
                v = l - u
                # stage-2 weights alpha_ij / |r_ij|^e: unit-Y divides the degree-l
                # harmonic by |r_ij|^l
                e = l if cfg.mode == "unit-Y" else 0
                base = (-1.0) ** (l - u) * math.comb(l, u) / kappa.kappa(u, v, l)
                for d in range(abs(a - v), a + v + 1):
                    for l_out in range(abs(d - u), min(d + u, cfg.l_max) + 1):
                        if not triangle_ok(a, l, l_out):
                            continue
                        sixj = default_cache.wigner6j((a, v, d, u, l_out, l))
                        if sixj == 0.0:
                            continue
                        sign = -1.0 if (a + l + l_out) % 2 else 1.0
                        g = base * sign * math.sqrt((2 * d + 1) * (2 * l + 1)) * sixj
                        weights.setdefault(d, {}).setdefault((a, v, e), {})[(l_out, u)] = g
                        n_applied += 1
    used: dict = {}
    for d, rows in weights.items():
        for a, v, _ in rows:
            used.setdefault((a, v), set()).add(d)
    products, offsets = [], {}
    n_p = sh_degree = 0
    for (a, v), ds in sorted(used.items()):
        ds = tuple(sorted(ds))
        col = 0
        for d in ds:
            offsets[(a, v, d)] = col
            col += 2 * d + 1
        products.append((a, v, _harmonic_first(a, v, ds)))
        n_p += 2 * min(a, v) + 1
        sh_degree = max(sh_degree, v)
    degrees = []
    for d in sorted(weights):
        rows = sorted(weights[d], key=lambda k: (k[2], k[0], k[1]))
        cols = sorted({c for k in rows for c in weights[d][k]})
        col_of = {c: i for i, c in enumerate(cols)}
        g = np.zeros((len(rows), len(cols)))
        runs = []
        for r, k in enumerate(rows):
            for c, val in weights[d][k].items():
                g[r, col_of[c]] = val
            if runs and runs[-1][0] == k[2]:
                runs[-1][2] = r + 1
            else:
                runs.append([k[2], r, r + 1])
        outs = []
        for l_out in sorted({lo for lo, _ in cols}):
            us = tuple(u for lo, u in cols if lo == l_out)
            c0 = col_of[(l_out, us[0])]
            outs.append((l_out, c0, c0 + len(us), us[0] ** 2, (us[-1] + 1) ** 2,
                         _recoupling_table(d, us, l_out)))
            sh_degree = max(sh_degree, us[-1])
        blocks = tuple((a, v, offsets[(a, v, d)]) for a, v, _ in rows)
        degrees.append(_DegreePlan(d, blocks, tuple(map(tuple, runs)), g, tuple(outs)))
    plan = _NodePlan(
        products=tuple(products),
        degrees=tuple(degrees),
        n_p=n_p,
        n_applied=n_applied,
        n_rows=sum(len(dp.rows) for dp in degrees),
        sh_degree=sh_degree,
    )
    _PLAN_CACHE[key] = plan
    return plan


def _node_stages(h: IrrepTensor, sh_tab, plan: _NodePlan, aggregate, heads: int,
                 cfg: ConvConfig):
    """Stages 1-3 of the node route, one intermediate degree d at a time.

    Blocks are head-major with channels innermost: (H, N, ..., C/H), where
    head k holds the channels [k C/H, (k+1) C/H). Stage 1 couples every
    feature block with the node's own harmonic (``_own_harmonic_product``).
    For each d, stage 2 stacks the j-side blocks P of one weight exponent e
    as (H, N, K, 2d+1, C/H), and ``aggregate(e, blocks)`` returns S in the
    same layout. Stage 3 takes the 6j-weighted sums x = g^T S for every node
    and head in one batched matmul per d, then applies each node's
    recoupling operator with sh_u(r_i) by one batched matmul per l_out.
    S and x of one d are released before the next d.
    """
    n, c = h.n_nodes, cfg.channels
    per_head = c // heads
    p = {(a, v): _own_harmonic_product(_head_major(h.degree_block(a), heads),
                                       sh_tab.blocks[v], table)
         for a, v, table in plan.products}
    sh = np.concatenate(sh_tab.blocks[:plan.sh_degree + 1], axis=1)
    out = _out_zeros(n, cfg)
    for dp in plan.degrees:
        width = 2 * dp.d + 1
        rows = dp.g.shape[0]
        s = np.empty((heads, n, rows, width, per_head)) if len(dp.runs) > 1 else None
        for e, r0, r1 in dp.runs:
            part = aggregate(e, np.stack(
                [p[a, v][:, :, o:o + width] for a, v, o in dp.rows[r0:r1]], axis=2))
            if s is None:
                s = part
            else:
                s[:, :, r0:r1] = part
        x = np.matmul(dp.g.T, s.reshape(heads * n, rows, width * per_head))
        for l_out, c0, c1, s0, s1, table in dp.outs:
            k = (c1 - c0) * width
            op = (sh[:, s0:s1] @ table).reshape(n, k, 2 * l_out + 1)
            xl = x[:, c0:c1].reshape(heads, n, k, per_head).transpose(0, 1, 3, 2)
            out[l_out] += (xl @ op).transpose(1, 0, 2, 3).reshape(n, c, 2 * l_out + 1)
    return out


def _sparse_aggregator(centers, sources, vals, dist, n: int):
    """Stage 2 on a graph: S_i = sum_j alpha_ij / |r_ij|^e P_j, per head.

    ``vals`` is the (E, H) per-head weight array in CSR order (centers
    ascending, sources ascending within a center). The weighted adjacency
    of every head is built directly in CSR form, once per exponent e, as
    one block-diagonal matrix over the (head, node) rows of the head-major
    blocks. Edge work is scalar multiply-add only.
    """
    heads, e_count = vals.shape[1], centers.shape[0]
    indptr = np.searchsorted(centers, np.arange(n + 1))
    k = np.arange(heads)[:, None]
    rows = np.append((indptr[:-1] + k * e_count).reshape(-1), heads * e_count)
    cols = (sources + k * n).reshape(-1)
    mats: dict = {}

    def aggregate(e, blocks):
        if e not in mats:
            w = vals if e == 0 else vals / dist[:, None] ** e
            mats[e] = sp.csr_matrix((w.T.reshape(-1), cols, rows),
                                    shape=(heads * n, heads * n))
        return (mats[e] @ blocks.reshape(heads * n, -1)).reshape(blocks.shape)

    return aggregate


def _dense_stage2(positions, w, plan: _NodePlan, cfg: ConvConfig):
    """Stage 2 over every ordered pair i != j (and i == j under
    include_self): S_h = (w_h / |r_ij|^e) @ P_h, per head.

    ``w`` holds head-major weights (H, N, N), zero off the pairs. Each
    exponent's weight matrix is built once and applied to all heads by one
    batched matmul. In unit-Y mode every pair is checked for a degenerate
    distance, whatever its weight. Adds are counted per pair.
    """
    heads, n, _ = w.shape
    dist = None
    if cfg.mode == "unit-Y" and plan.degrees:
        dist = np.linalg.norm(positions[:, None] - positions[None], axis=2)
        # unit-Y has no self edge: it is not checked, and w / inf^e stays 0
        np.fill_diagonal(dist, np.inf)
        _degenerate(dist, lambda b: divmod(b, n))
    mats: dict = {}

    def aggregate(e, blocks):
        if e not in mats:
            mats[e] = w if e == 0 else w / dist ** e
        return np.matmul(mats[e], blocks.reshape(heads, n, -1)).reshape(blocks.shape)

    return aggregate, heads, n * n if cfg.include_self else n * (n - 1)


def _complete(centers, sources, n: int, include_self: bool) -> bool:
    """Whether the CSR-ordered edges hold every ordered pair i != j exactly
    once, plus every (i, i) under include_self. Read from the edges alone: a
    NeighborGraph accepts any lists, duplicates included, whatever its kind."""
    if centers.shape[0] != (n * n if include_self else n * (n - 1)):
        return False
    keys = np.arange(n * n, dtype=np.int64)
    if not include_self:
        keys = keys[keys % (n + 1) != 0]
    return np.array_equal(centers, keys // n) and np.array_equal(sources, keys % n)


def _graph_stage2(graph, cfg: ConvConfig, alpha):
    """Stage 2 over the edges of ``graph`` with per-head weights ``alpha``
    (None or ``AttentionWeights``); adds are counted per edge. A complete
    graph takes the dense stage 2, with its edge weights scattered into w."""

    def stage2(positions, plan: _NodePlan):
        n = positions.shape[0]
        centers, sources = _edges_of(graph, cfg, n)
        vals = _alpha_heads(alpha, centers, sources, n, cfg.channels)
        if _complete(centers, sources, n, cfg.include_self):
            w = np.zeros((vals.shape[1], n, n))
            w[:, centers, sources] = vals.T
            return _dense_stage2(positions, w, plan, cfg)
        dist = None
        if cfg.mode == "unit-Y" and plan.degrees:
            dist = np.linalg.norm(positions[centers] - positions[sources], axis=1)
            _degenerate(dist, lambda b: (centers[b], sources[b]))
        agg = _sparse_aggregator(centers, sources, vals, dist, n)
        return agg, vals.shape[1], centers.shape[0]

    return stage2


def _node_route(positions, h: IrrepTensor, cfg: ConvConfig, evaluate) -> ConvResult:
    """The one node-route entry: input checks, plan, counters and packing.

    ``evaluate(positions, h, cfg, plan)`` returns the output blocks and the
    adds per aggregated row: the three stages (``_staged``) or the global
    moments (``_global_moments``).
    """
    positions = _check_inputs(positions, h, cfg)
    _check_node_degrees(h, cfg)
    plan = _node_plan(h.layout.degrees, cfg)
    out, adds = evaluate(positions, h, cfg, plan)
    counters = OpCounters(h.n_nodes * (plan.n_p + plan.n_applied), adds * plan.n_rows)
    return ConvResult(_pack_out(out), counters)


def _staged(stage2):
    """The ``_node_route`` evaluation by ``_node_stages`` at the given
    positions. ``stage2(positions, plan)`` returns the stage-2 ``aggregate``
    function, the head count and the adds per aggregated row."""

    def evaluate(positions, h: IrrepTensor, cfg: ConvConfig, plan: _NodePlan):
        sh_table = solid_sh(plan.sh_degree, positions, mode="normalized")
        aggregate, heads, adds = stage2(positions, plan)
        return _node_stages(h, sh_table, plan, aggregate, heads, cfg), adds

    return evaluate


def node_conv(graph, positions, h: IrrepTensor, cfg: ConvConfig, alpha=None) -> ConvResult:
    """Factorized convolution: tensor products per node, scalar sums per edge.

    ``alpha`` is None (uniform) or ``AttentionWeights``. The node harmonics
    are computed inside the call, as edge_conv computes its edge harmonics,
    and the pair constants kappa are exact (``calibrate_pair_constants``).
    Output matches edge_conv on identical inputs to 1e-10.
    """
    return _node_route(positions, h, cfg, _staged(_graph_stage2(graph, cfg, alpha)))


# ---------------------------------------------------------------------------
# dense attention and global moments


def attention_node_conv(positions, h: IrrepTensor, alpha, cfg: ConvConfig) -> ConvResult:
    """Dense-attention node convolution.

    ``alpha`` holds dense (N, N) or (N, N, H) weights, as a raw array or as
    ``AttentionWeights.from_dense``; per-edge ``AttentionWeights`` are
    rejected. The output equals edge_conv/node_conv on the dense graph with
    the same weights, in either normalization mode.

    Stage 2 aggregates by one batched GEMM per head and weight exponent over
    a head-major copy of the weights, with the diagonal zeroed unless
    cfg.include_self; no edge list is built. In unit-Y mode every pair is
    still checked for a degenerate distance, whatever its weight.
    """
    n = h.n_nodes
    if not isinstance(alpha, AttentionWeights):
        alpha = AttentionWeights.from_dense(alpha)
    elif not alpha.dense:
        raise ValueError("attention_node_conv needs dense weights, got per-edge "
                         "AttentionWeights; pass the graph to node_conv instead")
    if alpha.values.shape[:2] != (n, n):
        raise ValueError("attention_node_conv needs dense (N, N) or (N, N, H) weights")

    def stage2(positions, plan: _NodePlan):
        _check_heads(alpha.heads, cfg.channels)
        v = alpha.values
        # a C-contiguous head-major copy: GEMMs on a strided view of the
        # (N, N, H) values run far slower
        w = np.array(np.moveaxis(v, 2, 0) if v.ndim == 3 else v[None], order="C")
        if not cfg.include_self:
            idx = np.arange(n)
            w[:, idx, idx] = 0.0
        return _dense_stage2(positions, w, plan, cfg)

    return _node_route(positions, h, cfg, _staged(stage2))


_Y00 = 0.5 / math.sqrt(math.pi)  # the normalized degree-0 harmonic, a constant


def _global_moments(positions, h: IrrepTensor, cfg: ConvConfig, plan: _NodePlan):
    """The ``_node_route`` evaluation of ``moments_conv`` (see there).

    M^(a, v) holds the moments of every d of one stage-1 product as (D, C).
    Per d, x = g^T M is folded into the recoupling table of each l_out, and
    the tables accumulate into Q[l_out], with rows (u, m2) of sh(r_i).
    """
    n, c = h.n_nodes, cfg.channels
    if (n if cfg.include_self else n - 1) <= 0:
        return _out_zeros(n, cfg), n  # no pair to sum over
    sh_tab = solid_sh(plan.sh_degree, positions - positions.mean(axis=0), mode="normalized")
    m = {}
    for a, v, table in plan.products:
        wa, wv = 2 * a + 1, 2 * v + 1
        z = sh_tab.blocks[v].T @ h.degree_block(a).reshape(n, c * wa)
        m[a, v] = np.tensordot(table.reshape(wv, -1, wa), z.reshape(wv, c, wa),
                               axes=([0, 2], [0, 2]))
    sh = np.concatenate(sh_tab.blocks[:plan.sh_degree + 1], axis=1)
    q = [np.zeros((sh.shape[1], c, 2 * l + 1)) for l in range(cfg.l_max + 1)]
    for dp in plan.degrees:
        width = 2 * dp.d + 1
        rows = np.stack([m[a, v][o:o + width] for a, v, o in dp.rows])
        x = dp.g.T @ rows.reshape(len(dp.rows), width * c)
        for l_out, c0, c1, s0, s1, table in dp.outs:
            k = (c1 - c0) * width
            q[l_out][s0:s1] += x[c0:c1].reshape(k, c).T @ table.reshape(s1 - s0, k, -1)
    out = [(sh @ ql.reshape(sh.shape[1], -1)).reshape(n, c, -1) for ql in q]
    if not cfg.include_self and 0 in cfg.degrees:
        # the j = i term is the edge term at r_ij = 0, where only the degree-0
        # harmonic is nonzero, and the coupling (a, 0 -> a) is the identity
        for a in h.layout.degrees:
            if a <= cfg.l_max:
                out[a] -= _Y00 * h.degree_block(a)
    # the sum over j is global, so adds are counted per node
    return out, n


def moments_conv(positions, h: IrrepTensor, cfg: ConvConfig) -> ConvResult:
    """Dense-interaction convolution through global moments.

    Equals node_conv on the fully dense graph with uniform weights. The sum
    over j is the same for every centre, so it is formed once: the global
    moments M^(a, v, d) = sum_j [h_j x sh_v(r_j)]^(d) take one GEMM per
    stage-1 product, and the output one (N x (L+1)^2) GEMM per output
    degree. Time and memory are O(N); no per-node product or operator is
    built. Unless cfg.include_self, the j = i term is subtracted in closed
    form: at r_ij = 0 only the degree-0 harmonic is nonzero, so the term is
    Y_00 h_i at l_out = a, and nothing when 0 is not a harmonic degree.

    Harmonics are taken about the centroid of ``positions``. The sum
    depends on r_i - r_j only, so this is exact, and the result keeps its
    1e-10 agreement with edge_conv wherever the cloud sits. ``OpCounters``
    stay the node formula's logical counts, N x (j-side products + applied
    recouplings) and adds per node, not the work done. Only raw-solid mode
    factorizes this way (unit-Y weights are pairwise, so they do not pull
    out of the j sum).
    """
    if cfg.mode != "raw-solid":
        raise ValueError("moments_conv requires raw-solid mode")
    return _node_route(positions, h, cfg, _global_moments)
