"""The benchmark's workloads: inputs, one round of layer calls, and checks.

A round is a fixed list of layer calls made one after another by a single
caller (a closed loop). Each call is one operation: it goes from positions
and features to the packed output, graph construction included, and its
output is checked before the next round starts. Every output is compared
with the direct sum of the definition (``reference.direct_sum``) on
sampled centres, plus the centre where its node/edge partner disagrees most;
a call fails when any checked centre deviates by more than 1e-10 relative.
"""

from dataclasses import dataclass, field, replace

import numpy as np

import reference
from sixjconv import conv, graph, irreps
from sixjconv.harmonics import Rotation

TOL = 1e-10
SAMPLED_CENTRES = 4
RAW, UNIT = "raw-solid", "unit-Y"
NODE_KINDS = ("node", "attention")


@dataclass(frozen=True)
class Call:
    kind: str             # "node", "edge", "attention" or "moments"
    mode: str = RAW
    weights: str = "none"  # "edge", "edge-heads", "dense-heads" or "none"

    @property
    def route(self) -> str:
        return "node" if self.kind in NODE_KINDS else self.kind

    @property
    def label(self) -> str:
        return f"{self.kind} {self.mode} weights={self.weights}"


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    k: int | None          # None: the dense graph
    l_max: int
    calls: tuple
    why: str
    fixed_key: int | None = None  # inputs from this key instead of the seed
    channels: int = 8
    heads: int = 4


NODE_RAW, EDGE_RAW = Call("node", RAW, "edge"), Call("edge", RAW, "edge")
NODE_UNIT, EDGE_UNIT = Call("node", UNIT, "edge-heads"), Call("edge", UNIT, "edge-heads")
ATTENTION, EDGE_DENSE = Call("attention", RAW, "dense-heads"), Call("edge", RAW, "dense-heads")
MOMENTS = Call("moments")

# Fast calls repeat within a round so that every route gets several samples
# per round; the round as a whole is the unit the run repeats.
WORKLOADS = {
    w.name: w for w in (
        Workload(
            "knn-l3", 2000, 32, 3,
            (NODE_RAW, EDGE_RAW) + (MOMENTS,) * 8,
            why="headline configuration: kNN search and stage-2 edge aggregation carry "
                "the node route, the tensor-product stages do little",
        ),
        Workload(
            "knn-l6", 500, 8, 6,
            (NODE_RAW, EDGE_RAW, NODE_UNIT, EDGE_UNIT, MOMENTS),
            why="high degree: tensor-product stages 1 and 3 and coefficient set-up "
                "dominate, the graph is small; unit-Y takes the per-channel path",
            fixed_key=6,
        ),
        Workload(
            "dense-heads", 500, None, 2,
            (ATTENTION,) * 4 + (MOMENTS,) * 16 + (EDGE_DENSE,),
            why="dense graph, no kNN: N^2 aggregation nonzeros with one sparse product "
                "per channel, and the global-moments route that skips aggregation",
        ),
    )
}


@dataclass
class Inputs:
    """Everything a round needs, made before any timing starts."""

    workload: Workload
    cloud: object
    h: object
    graph: object        # the workload graph, for the checks
    indptr: np.ndarray   # CSR view of graph.edge_arrays() for the checks
    sources: np.ndarray
    weights: dict        # name -> AttentionWeights
    edge_alpha: dict     # name -> (E, channels) weights in edge order

    @property
    def n_edges(self) -> int:
        return self.sources.shape[0]

    def neighbours(self, call: Call, centre: int):
        """Sources of ``centre`` and their (len, channels) weights."""
        n, c = self.workload.n, self.workload.channels
        if call.kind == "moments":
            src = np.delete(np.arange(n), centre)
            return src, np.ones((src.shape[0], c))
        lo, hi = self.indptr[centre], self.indptr[centre + 1]
        src = self.sources[lo:hi]
        if call.weights == "none":
            return src, np.ones((src.shape[0], c))
        return src, self.edge_alpha[call.weights][lo:hi]

    def relocated(self) -> "Inputs":
        """The same inputs in freshly allocated arrays.

        Remaking the same inputs in one process moved the dense-heads call
        times by up to 30%: where long-lived arrays land in memory matters.
        A new placement for every round spreads that over the rounds of one
        run, where the median absorbs it, instead of between runs.
        """
        cloud = graph.PointCloud(self.cloud.positions, self.cloud.seed, self.cloud.box_side)
        h = irreps.IrrepTensor(self.h.layout, self.h.values.copy())
        weights = {k: conv.AttentionWeights(w.values.copy(), w.dense)
                   for k, w in self.weights.items()}
        return replace(self, cloud=cloud, h=h, weights=weights)

    def config(self, call: Call) -> conv.ConvConfig:
        return conv.ConvConfig(l_max=self.workload.l_max,
                               channels=self.workload.channels, mode=call.mode)


def _heads_to_channels(vals, channels):
    return np.repeat(vals, channels // vals.shape[1], axis=1)


def make_inputs(wl: Workload, seed: int, n: int | None = None) -> Inputs:
    """Inputs of ``wl`` from ``seed`` (or the workload's fixed key); ``n``
    overrides the node count, for the small set-up cloud."""
    key = wl.fixed_key if wl.fixed_key is not None else seed
    n = wl.n if n is None else n
    wl = replace(wl, n=n)
    cloud = graph.random_cloud(n, seed=key)
    h = irreps.random_tensor([(l, wl.channels) for l in range(wl.l_max + 1)], n, seed=key + 1)
    g = graph.dense(n) if wl.k is None else graph.knn(cloud, wl.k)
    centers, sources = g.edge_arrays()
    indptr = np.searchsorted(centers, np.arange(n + 1))
    rng = np.random.default_rng(np.random.Philox(key=key + 2))
    e = centers.shape[0]
    weights, edge_alpha = {}, {}
    names = {c.weights for c in wl.calls} - {"none"}
    if "edge" in names:
        w = rng.uniform(0.5, 1.5, e)
        weights["edge"] = conv.AttentionWeights.from_edges(w)
        edge_alpha["edge"] = _heads_to_channels(w[:, None], wl.channels)
    if "edge-heads" in names:
        w = rng.uniform(0.5, 1.5, (e, wl.heads))
        weights["edge-heads"] = conv.AttentionWeights.from_edges(w)
        edge_alpha["edge-heads"] = _heads_to_channels(w, wl.channels)
    if "dense-heads" in names:
        w = rng.uniform(0.5, 1.5, (n, n, wl.heads))
        weights["dense-heads"] = conv.AttentionWeights.from_dense(w)
        edge_alpha["dense-heads"] = _heads_to_channels(w[centers, sources], wl.channels)
    return Inputs(wl, cloud, h, g, indptr, sources, weights, edge_alpha)


def execute(call: Call, inp: Inputs, positions=None, h=None, prebuilt=False):
    """One layer call. The graph is built inside the call unless
    ``prebuilt``, which reuses the workload graph (for the rotated check)."""
    wl = inp.workload
    positions = inp.cloud.positions if positions is None else positions
    h = inp.h if h is None else h
    cfg = inp.config(call)
    alpha = inp.weights.get(call.weights)
    if call.kind == "moments":
        return conv.moments_conv(positions, h, cfg)
    if call.kind == "attention":
        return conv.attention_node_conv(positions, h, alpha, cfg)
    if prebuilt:
        g = inp.graph
    elif wl.k is None:
        g = graph.dense(wl.n)
    else:
        g = graph.knn(inp.cloud, wl.k)
    route = conv.node_conv if call.kind == "node" else conv.edge_conv
    return route(g, positions, h, cfg, alpha=alpha)


@dataclass
class Outcome:
    call: Call
    seconds: float
    result: object
    failed: bool = False
    notes: dict = field(default_factory=dict)


def run_round(inp: Inputs, clock) -> list:
    out = []
    for call in inp.workload.calls:
        t0 = clock()
        res = execute(call, inp)
        out.append(Outcome(call, clock() - t0, res))
    return out


def partners(calls) -> list:
    """(node-route index, edge-route index) pairs with the same inputs."""
    pairs = []
    for i, a in enumerate(calls):
        if a.kind not in NODE_KINDS:
            continue
        for j, b in enumerate(calls):
            if b.kind == "edge" and (b.mode, b.weights) == (a.mode, a.weights):
                pairs.append((i, j))
    return pairs


def check_round(inp: Inputs, outcomes: list, rng) -> None:
    """Set ``failed`` and the measured errors on every outcome of a round."""
    wl = inp.workload
    calls = [o.call for o in outcomes]
    centres = [set() for _ in outcomes]
    pairs = partners(calls)
    for i, j in pairs:
        err = reference.node_rel_err(outcomes[i].result.output.values,
                                     outcomes[j].result.output.values)
        worst = int(np.argmax(err))
        for idx in (i, j):
            outcomes[idx].notes["agreement"] = float(err[worst])
            centres[idx].add(worst)
    sampled = rng.choice(wl.n, size=min(SAMPLED_CENTRES, wl.n), replace=False)
    refs = {}
    for idx, o in enumerate(outcomes):
        c = o.call
        ref_key = ("moments",) if c.kind == "moments" else (c.mode, c.weights)
        worst_dev, worst_centre = 0.0, None
        for centre in sorted(centres[idx] | {int(s) for s in sampled}):
            if (ref_key, centre) not in refs:
                src, alpha = inp.neighbours(c, centre)
                refs[(ref_key, centre)] = reference.direct_sum(
                    inp.cloud.positions, inp.h, wl.l_max, c.mode, centre, src, alpha)
            want = refs[(ref_key, centre)]
            dev = float(reference.node_rel_err(o.result.output.values[centre], want))
            if worst_centre is None or dev > worst_dev:
                worst_dev, worst_centre = dev, centre
        o.notes["direct"] = worst_dev
        o.notes["centre"] = worst_centre
        o.failed = worst_dev > TOL
        if c.kind == "edge":
            want_tp = inp.n_edges * len(reference.coupling_paths(wl.l_max))
            o.notes["tp_count"] = o.result.counters.tp_count
            if o.result.counters.tp_count != want_tp:
                o.notes["tp_expected"] = want_tp
                o.failed = True
    for i, j in pairs:
        # a disagreement neither direct-sum check pins on one route fails both
        if outcomes[i].notes["agreement"] > TOL and not (outcomes[i].failed or outcomes[j].failed):
            outcomes[i].failed = outcomes[j].failed = True


def equivariance(inp: Inputs, warm: list, rng) -> list:
    """Rotate positions and features once; each call's output must turn with
    them. Returns (label, error, gated) per distinct call; a call whose
    warm-up output already failed is reported but not gated."""
    rot = Rotation.random(rng)
    pos = rot.apply(inp.cloud.positions)
    h = inp.h.rotate(rot)
    out = []
    seen = set()
    for o in warm:
        if o.call in seen:
            continue
        seen.add(o.call)
        turned = execute(o.call, inp, positions=pos, h=h, prebuilt=True)
        want = o.result.output.rotate(rot)
        err = float(reference.node_rel_err(turned.output.values, want.values).max())
        out.append((o.call.label, err, not o.failed))
    return out


COUNTER_SUBSET = 64


def counter_properties(inp: Inputs, warm: list) -> list:
    """The node route's tp_count is the same per node whatever the graph:
    the workload graph, a kNN graph with another k on the full cloud, and
    the dense graph on the first 64 nodes. Returns (label, ok)."""
    wl = inp.workload
    node = next(o for o in warm if o.call.kind in NODE_KINDS)
    per_node = node.result.counters.tp_count / wl.n
    cfg = inp.config(node.call)
    k_alt = 8 if wl.k is None else wl.k // 2
    alt = conv.node_conv(graph.knn(inp.cloud, k_alt), inp.cloud.positions, inp.h, cfg)
    m = min(COUNTER_SUBSET, wl.n)
    sub = irreps.IrrepTensor(inp.h.layout, inp.h.values[:m])
    dense = conv.attention_node_conv(
        inp.cloud.positions[:m], sub, conv.AttentionWeights.from_dense(np.ones((m, m))), cfg)
    return [
        (f"node tp_count per node, k={k_alt} vs workload graph",
         alt.counters.tp_count / wl.n == per_node),
        (f"node tp_count per node, dense graph on {m} nodes vs workload graph",
         dense.counters.tp_count / m == per_node),
    ]
