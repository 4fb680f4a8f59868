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

Both routes produce identical outputs (the equivalence suite pins this at
1e-10); their cost profiles differ: tensor products per edge versus per node.

Normalization modes: "raw-solid" uses the solid harmonics as-is; "unit-Y"
divides the degree-l edge harmonic by |r_ij|^l, which on the node route is
absorbed into per-degree aggregation weights alpha_ij / |r_ij|^l. The mode
"alg1-literal" is accepted by attention_node_conv only; see its docstring.
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
from functools import lru_cache
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .angular import CapacityError, default_cache, triangle_ok
from .harmonics import presentation_scale, solid_sh
from .irreps import (
    IrrepTensor,
    KappaTable,
    calibrate_pair_constants,
    dense_w,
)

__all__ = [
    "ConvConfig",
    "AttentionWeights",
    "OpCounters",
    "ConvResult",
    "DegenerateEdgeError",
    "StaleCalibrationError",
    "edge_conv",
    "binomial_expand_sh",
    "node_conv",
    "attention_node_conv",
    "global_moments",
    "moments_conv",
    "adjacency_indicator",
]

MODES = ("raw-solid", "unit-Y", "alg1-literal")


class DegenerateEdgeError(ValueError):
    """A zero-length edge was hit in a mode that divides by distance."""


class StaleCalibrationError(RuntimeError):
    """The supplied calibration table does not cover the configured degrees."""


@dataclass(frozen=True)
class ConvConfig:
    """Convolution configuration.

    ``harmonic_degrees`` restricts which edge-harmonic degrees contribute
    (default: all of 0..l_max). ``include_self`` adds the j = i term, which
    only makes sense with uniform or dense attention weights; the zero-length
    self edge is harmless in raw-solid mode because harmonics of degree >= 1
    vanish at the origin.
    """

    l_max: int
    channels: int
    mode: str = "raw-solid"
    include_self: bool = False
    eps: float = 1e-8
    harmonic_degrees: tuple | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
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


def adjacency_indicator(graph) -> AttentionWeights:
    """Dense 0/1 weights marking the graph's edges (handy for equivalences)."""
    n = graph.n_nodes
    a = np.zeros((n, n))
    centers, sources = graph.edge_arrays()
    a[centers, sources] = 1.0
    return AttentionWeights.from_dense(a)


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
    centers, sources = graph.edge_arrays()
    if cfg.include_self:
        idx = np.arange(n, dtype=np.int64)
        order = np.argsort(np.concatenate([centers, idx]), kind="stable")
        centers = np.concatenate([centers, idx])[order]
        sources = np.concatenate([sources, idx])[order]
    return centers, sources


def _alpha_channels(alpha, centers, sources, channels: int, n: int) -> np.ndarray:
    """Normalize any accepted alpha form to per-edge per-channel weights.

    Returns (E, 1) when all channels share a weight, else (E, C). Raw arrays
    shaped (N, N) or (N, N, H) are taken as dense; anything else per-edge.
    """
    e = centers.shape[0]
    if alpha is None:
        return np.ones((e, 1))
    if not isinstance(alpha, AttentionWeights):
        arr = np.asarray(alpha, dtype=float)
        dense = arr.ndim >= 2 and arr.shape[:2] == (n, n)
        alpha = AttentionWeights(arr, dense=dense)
    vals = alpha.edge_values(centers, sources)
    h = vals.shape[1]
    if h == 1:
        return vals
    if channels % h:
        raise ValueError(f"{h} heads do not divide {channels} channels")
    return np.repeat(vals, channels // h, axis=1)


def _check_h(h: IrrepTensor, cfg: ConvConfig):
    for l in h.layout.degrees:
        h.layout.index_of_degree(l)  # rejects duplicate degrees
    for _, c in h.layout.entries:
        if c != cfg.channels:
            raise ValueError(
                f"feature channels {c} do not match cfg.channels {cfg.channels}"
            )


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


@lru_cache(maxsize=None)
def _w_stack(l1: int, l2: int, louts: tuple) -> np.ndarray:
    """Column-stacked coupling matrices: ((2l1+1)(2l2+1), sum_l (2l+1))."""
    return np.concatenate([dense_w(l1, l2, l) for l in louts], axis=1)


def _degenerate(centers, sources, dist, eps, what):
    bad = np.flatnonzero(dist < eps)
    if bad.size:
        b = bad[0]
        raise DegenerateEdgeError(
            f"edge ({centers[b]}, {sources[b]}) has |r_ij| = {dist[b]:.3e} "
            f"< eps = {eps:.1e} {what}"
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
    if cfg.mode == "alg1-literal":
        raise ValueError("alg1-literal is an attention_node_conv mode")
    positions = np.asarray(positions, dtype=float)
    n = h.n_nodes
    if positions.shape != (n, 3):
        raise ValueError("positions must be (N, 3) and match h")
    _check_h(h, cfg)
    centers, sources = _edges_of(graph, cfg, n)
    aw = _alpha_channels(alpha, centers, sources, cfg.channels, n)
    paths = _edge_paths(h.layout.degrees, cfg)
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
            _degenerate(cc, ss, dist, cfg.eps, "in unit-Y mode")
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
            res = z.reshape(ec * c, -1) @ _w_stack(a, v, louts)
            seg = np.add.reduceat(res.reshape(ec, c, -1), seg_starts, axis=0)
            col = 0
            for l in louts:
                out[l][seg_rows] += seg[:, :, col:col + 2 * l + 1]
                col += 2 * l + 1
    return ConvResult(_pack_out(out), counters)


# ---------------------------------------------------------------------------
# binomial local expansion


def binomial_expand_sh(l: int, r_i, r_j, kappa: KappaTable) -> np.ndarray:
    """Recover solid_sh(l, r_i - r_j) from node-local harmonics.

    Evaluates sum_u (-1)^(l-u) binom(l, u) / kappa(u, l-u -> l) *
    [sh_u(r_i) x sh_{l-u}(r_j)]^(l) in the normalized basis and returns the
    block in raw presentation so it compares against the polynomial goldens
    directly.
    """
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
        acc += coef * (z @ dense_w(u, v, l))
    return acc / presentation_scale(l)


# ---------------------------------------------------------------------------
# node route


@dataclass
class _NodePlan:
    p_paths: list       # [(a, v, d_all tuple, d_used tuple)], deterministic order
    groups: dict        # (d, u, l_out) -> [(a, l, g)], recoupling weights
    used_by_l: dict     # harmonic degree l -> sorted tuple of (a, v, d) keys
    n_p: int            # computed j-side (a, v, d) products per node
    n_applied: int      # nonzero recoupling applications per node
    n_agg: int          # distinct aggregated blocks per edge (raw-solid)
    u_degrees: tuple


_PLAN_CACHE: dict = {}


def _node_plan(h_degrees: tuple, cfg: ConvConfig, kappa: KappaTable) -> _NodePlan:
    key = (tuple(h_degrees), cfg.l_max, cfg.degrees)
    plan = _PLAN_CACHE.get(key)
    if plan is not None:
        return plan
    groups: dict = {}
    used: dict = {}
    used_by_l: dict = {l: set() for l in cfg.degrees}
    n_applied = 0
    for a in h_degrees:
        for l in cfg.degrees:
            for u in range(l + 1):
                v = l - u
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
                        groups.setdefault((d, u, l_out), []).append((a, l, g))
                        used.setdefault((a, v), set()).add(d)
                        used_by_l[l].add((a, v, d))
                        n_applied += 1
    v_degrees = sorted({l - u for l in cfg.degrees for u in range(l + 1)})
    p_paths = []
    n_p = 0
    for a in h_degrees:
        for v in v_degrees:
            d_all = tuple(range(abs(a - v), a + v + 1))
            d_used = tuple(sorted(used.get((a, v), ())))
            if d_used:
                p_paths.append((a, v, d_all, d_used))
                n_p += len(d_all)
    plan = _NodePlan(
        p_paths=p_paths,
        groups=groups,
        used_by_l={l: tuple(sorted(s)) for l, s in used_by_l.items()},
        n_p=n_p,
        n_applied=n_applied,
        n_agg=sum(len(du) for _, _, _, du in p_paths),
        u_degrees=tuple(sorted({u for (_, u, _) in groups})),
    )
    _PLAN_CACHE[key] = plan
    return plan


def _resolve_kappa(cfg: ConvConfig, kappa):
    need = max(cfg.degrees, default=0)
    if kappa is None:
        return calibrate_pair_constants(max(need, cfg.l_max))
    if kappa.l_max < need:
        raise StaleCalibrationError(
            f"calibration covers l <= {kappa.l_max} but the config needs {need}"
        )
    return kappa


def _p_blocks(h: IrrepTensor, sh_tab, plan: _NodePlan):
    """Stage 1: per-node j-side products, all admissible intermediate d."""
    p = {}
    n = h.n_nodes
    for a, v, d_all, d_used in plan.p_paths:
        ha = h.degree_block(a)
        shv = sh_tab.blocks[v]
        c = ha.shape[1]
        z = (ha[:, :, :, None] * shv[:, None, None, :]).reshape(n * c, -1)
        res = (z @ _w_stack(a, v, d_all)).reshape(n, c, -1)
        col = 0
        for d in d_all:
            width = 2 * d + 1
            if d in d_used:
                p[(a, v, d)] = res[:, :, col:col + width]
            col += width
    return p


def _aggregate(p_blocks: dict, keys, centers, sources, weights, n: int) -> dict:
    """Stage 2: S_i = sum_j alpha_ij P_j via sparse matmul on packed blocks.

    ``weights`` is (E, 1) for shared weights (one matmul) or (E, C) for
    per-channel weights (one matmul per channel). Edge work is scalar
    multiply-add only.
    """
    keys = [k for k in keys if k in p_blocks]
    if not keys:
        return {}
    widths = [p_blocks[k].shape[2] for k in keys]
    c = p_blocks[keys[0]].shape[1]
    if weights.shape[1] == 1:
        flat = np.concatenate([p_blocks[k].reshape(n, -1) for k in keys], axis=1)
        mat = sp.csr_matrix((weights[:, 0], (centers, sources)), shape=(n, n))
        s_flat = mat @ flat
        out = {}
        col = 0
        for k, w in zip(keys, widths):
            out[k] = s_flat[:, col:col + w * c].reshape(n, c, w)
            col += w * c
        return out
    out = {k: np.empty_like(p_blocks[k]) for k in keys}
    for ch in range(c):
        mat = sp.csr_matrix((weights[:, ch], (centers, sources)), shape=(n, n))
        flat = np.concatenate([p_blocks[k][:, ch, :] for k in keys], axis=1)
        s_flat = mat @ flat
        col = 0
        for k, w in zip(keys, widths):
            out[k][:, ch, :] = s_flat[:, col:col + w]
            col += w
    return out


def _recouple(s_lookup, sh_tab, plan: _NodePlan, out):
    """Stage 3: weighted recoupling sums, then one product with sh(r_i) per
    (d, u, l_out) group."""
    n = out[0].shape[0]
    for (d, u, l_out), members in sorted(plan.groups.items()):
        x = None
        for a, l, g in members:
            s = s_lookup(a, l - u, d, l)
            if s is None:
                continue
            x = g * s if x is None else x + g * s
        if x is None:
            continue
        shu = sh_tab.blocks[u]
        c = x.shape[1]
        z = (x[:, :, :, None] * shu[:, None, None, :]).reshape(n * c, -1)
        out[l_out] += (z @ dense_w(d, u, l_out)).reshape(n, c, -1)


def node_conv(graph, positions, h: IrrepTensor, cfg: ConvConfig, alpha=None,
              kappa=None, sh_table=None) -> ConvResult:
    """Factorized convolution: tensor products per node, scalar sums per edge.

    ``sh_table`` may carry precomputed normalized harmonics of the node
    positions (they are a shared input, legitimately outside any timed
    region); ``kappa`` a calibration table from ``calibrate_pair_constants``
    covering the configured degrees. Output matches edge_conv on identical
    inputs to 1e-10.
    """
    if cfg.mode == "alg1-literal":
        raise ValueError("alg1-literal is an attention_node_conv mode")
    positions = np.asarray(positions, dtype=float)
    n = h.n_nodes
    if positions.shape != (n, 3):
        raise ValueError("positions must be (N, 3) and match h")
    _check_h(h, cfg)
    _check_node_degrees(h, cfg)
    kappa = _resolve_kappa(cfg, kappa)
    plan = _node_plan(h.layout.degrees, cfg, kappa)
    vmax = max((v for _, v, _, _ in plan.p_paths), default=0)
    umax = max(plan.u_degrees, default=0)
    if (sh_table is None or sh_table.l_max < max(vmax, umax)
            or sh_table.mode != "normalized"):
        sh_table = solid_sh(max(vmax, umax), positions, mode="normalized")
    centers, sources = _edges_of(graph, cfg, n)
    aw = _alpha_channels(alpha, centers, sources, cfg.channels, n)
    counters = OpCounters()
    counters.tp_count = n * (plan.n_p + plan.n_applied)
    out = _out_zeros(n, cfg)
    e = centers.shape[0]
    if plan.p_paths:
        p = _p_blocks(h, sh_table, plan)
        if cfg.mode == "raw-solid":
            counters.add_count = e * plan.n_agg
            s = _aggregate(p, sorted(p), centers, sources, aw, n)
            _recouple(lambda a, v, d, l: s.get((a, v, d)), sh_table, plan, out)
        else:
            rij = positions[centers] - positions[sources]
            dist = np.linalg.norm(rij, axis=1)
            _degenerate(centers, sources, dist, cfg.eps, "in unit-Y mode")
            s = {}
            for l in cfg.degrees:
                keys = plan.used_by_l[l]
                if not keys:
                    continue
                wl = aw if l == 0 else aw / dist[:, None] ** l
                sl = _aggregate(p, keys, centers, sources, wl, n)
                counters.add_count += e * len(sl)
                for (a, v, d), blk in sl.items():
                    s[(a, v, d, l)] = blk
            _recouple(lambda a, v, d, l: s.get((a, v, d, l)), sh_table, plan, out)
    return ConvResult(_pack_out(out), counters)


# ---------------------------------------------------------------------------
# dense attention variant and global moments


def attention_node_conv(positions, h: IrrepTensor, alpha, cfg: ConvConfig,
                        kappa=None) -> ConvResult:
    """Dense-attention node convolution (three normalization modes).

    ``alpha`` is dense (N, N) or (N, N, H). Modes "raw-solid" and "unit-Y"
    sum all configured harmonic degrees and equal the corresponding
    edge_conv/node_conv on the dense graph with the same weights. Mode
    "alg1-literal" runs the single top harmonic degree L = l_max with the
    per-term attention normalization alpha / |r_ij|^k, k being the j-side
    degree of each binomial term; that mixes radial scales across terms, so
    it matches neither plain-solid nor unit-Y convolutions and is pinned by
    a golden regression test instead.
    """
    from .graph import dense as dense_graph

    positions = np.asarray(positions, dtype=float)
    n = h.n_nodes
    vals = alpha.values if isinstance(alpha, AttentionWeights) else np.asarray(alpha, dtype=float)
    if vals.ndim not in (2, 3) or vals.shape[0] != n or vals.shape[1] != n:
        raise ValueError("attention_node_conv needs dense (N, N) or (N, N, H) weights")
    aw = AttentionWeights.from_dense(vals)
    if cfg.mode != "alg1-literal":
        return node_conv(dense_graph(n), positions, h, cfg, alpha=aw, kappa=kappa)

    base = ConvConfig(
        l_max=cfg.l_max,
        channels=cfg.channels,
        mode="raw-solid",
        include_self=cfg.include_self,
        eps=cfg.eps,
        harmonic_degrees=(cfg.l_max,),
    )
    _check_node_degrees(h, base)
    kappa = _resolve_kappa(base, kappa)
    plan = _node_plan(h.layout.degrees, base, kappa)
    centers, sources = _edges_of(dense_graph(n), base, n)
    awc = _alpha_channels(aw, centers, sources, cfg.channels, n)
    rij = positions[centers] - positions[sources]
    dist = np.linalg.norm(rij, axis=1)
    counters = OpCounters()
    counters.tp_count = n * (plan.n_p + plan.n_applied)
    vmax = max((v for _, v, _, _ in plan.p_paths), default=0)
    umax = max(plan.u_degrees, default=0)
    sh_table = solid_sh(max(vmax, umax), positions, mode="normalized")
    p = _p_blocks(h, sh_table, plan)
    out = _out_zeros(n, base)
    s = {}
    e = centers.shape[0]
    for k in sorted({v for (_, v, _) in p}):
        keys = tuple(sorted(key for key in p if key[1] == k))
        if k == 0:
            wk = awc
        else:
            _degenerate(centers, sources, dist, cfg.eps, f"with exponent {k}")
            wk = awc / dist[:, None] ** k
        sk = _aggregate(p, keys, centers, sources, wk, n)
        counters.add_count += e * len(sk)
        s.update(sk)
    _recouple(lambda a, v, d, l: s.get((a, v, d)), sh_table, plan, out)
    return ConvResult(_pack_out(out), counters)


def global_moments(positions, h: IrrepTensor, degrees) -> dict:
    """Global moment blocks M^(q) = sum_j [h_j x sh_q(r_j)]^(d), all d.

    Returns {q: {(a, d): (channels, 2d+1) array}}; the node axis is summed
    away, so one set of moments serves every center of a dense interaction.
    """
    positions = np.asarray(positions, dtype=float)
    degrees = tuple(sorted({int(q) for q in degrees}))
    tab = solid_sh(max(degrees, default=0), positions, mode="normalized")
    out: dict = {}
    n = h.n_nodes
    for q in degrees:
        shq = tab.blocks[q]
        per_q: dict = {}
        for a in h.layout.degrees:
            ha = h.degree_block(a)
            c = ha.shape[1]
            d_all = tuple(range(abs(a - q), a + q + 1))
            z = (ha[:, :, :, None] * shq[:, None, None, :]).reshape(n * c, -1)
            res = (z @ _w_stack(a, q, d_all)).reshape(n, c, -1)
            col = 0
            for d in d_all:
                per_q[(a, d)] = res[:, :, col:col + 2 * d + 1].sum(axis=0)
                col += 2 * d + 1
        out[q] = per_q
    return out


def moments_conv(positions, h: IrrepTensor, cfg: ConvConfig, kappa=None) -> ConvResult:
    """Dense-interaction convolution through global moments.

    Equals node_conv on the fully dense graph with uniform weights; the
    center's own contribution is subtracted per node unless
    cfg.include_self. Only raw-solid mode factorizes this way (unit-Y
    weights are pairwise, so they do not pull out of the j sum).
    """
    if cfg.mode != "raw-solid":
        raise ValueError("moments_conv requires raw-solid mode")
    positions = np.asarray(positions, dtype=float)
    n = h.n_nodes
    if positions.shape != (n, 3):
        raise ValueError("positions must be (N, 3) and match h")
    _check_h(h, cfg)
    _check_node_degrees(h, cfg)
    kappa = _resolve_kappa(cfg, kappa)
    plan = _node_plan(h.layout.degrees, cfg, kappa)
    vmax = max((v for _, v, _, _ in plan.p_paths), default=0)
    umax = max(plan.u_degrees, default=0)
    tab = solid_sh(max(vmax, umax), positions, mode="normalized")
    p = _p_blocks(h, tab, plan)
    counters = OpCounters()
    counters.tp_count = n * (plan.n_p + plan.n_applied)
    counters.add_count = n * plan.n_agg  # per-node adds: moments are global
    s = {}
    for key, blk in p.items():
        m = blk.sum(axis=0, keepdims=True)
        s[key] = (m + np.zeros_like(blk)) if cfg.include_self else (m - blk)
    out = _out_zeros(n, cfg)
    _recouple(lambda a, v, d, l: s.get((a, v, d)), tab, plan, out)
    return ConvResult(_pack_out(out), counters)
