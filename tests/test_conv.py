"""Both convolution routes against scalar references, goldens, and each other.

The module-level reference implementations are deliberately naive: plain
Python loops over edges, coupling paths, channels, and magnetic indices,
using only scalar coupling coefficients. The frozen goldens below were
produced by those references (the vectorized routes agreed to 1e-15 at
freeze time); they pin today's numbers against silent drift in either
implementation.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from oracles import adjacency_indicator, real_cg
from sixjconv.angular import CapacityError, real_cg_table, triangle_ok, wigner6j
from sixjconv.conv import (
    AttentionWeights,
    ConvConfig,
    DegenerateEdgeError,
    attention_node_conv,
    binomial_expand_sh,
    edge_conv,
    moments_conv,
    node_conv,
)
from sixjconv.graph import PointCloud, dense, knn, radius, random_cloud
from sixjconv.harmonics import Rotation, solid_sh
from sixjconv.irreps import calibrate_pair_constants, random_tensor


def _rng(key):
    return np.random.default_rng(np.random.Philox(key=key))


def _feat(n, lmax, ch, seed):
    return random_tensor([(l, ch) for l in range(lmax + 1)], n, seed=seed)


def _rel(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-300)


# -- scalar reference implementations ----------------------------------------


def _edge_conv_reference(g, pos, h, cfg, alpha=None):
    """Double-loop edge convolution with scalar real couplings."""
    lmax, ch = cfg.l_max, cfg.channels
    degrees = h.layout.degrees
    n = h.n_nodes
    blocks = {l: np.zeros((n, ch, 2 * l + 1)) for l in range(lmax + 1)}
    for i in range(n):
        own = list(g.neighbors[i])
        if cfg.include_self:
            own.append(i)
        for j in sorted(own):
            rij = pos[i] - pos[j]
            tab = solid_sh(lmax, rij, mode="normalized")
            d = np.linalg.norm(rij)
            for a in degrees:
                ha = h.degree_block(a)[j]
                for v in cfg.degrees:
                    sh = tab.block(v)
                    if cfg.mode == "unit-Y" and v > 0:
                        sh = sh / d ** v
                    for lo in range(abs(a - v), min(a + v, lmax) + 1):
                        for c in range(ch):
                            w = 1.0 if alpha is None else alpha[i, j, c]
                            for m3 in range(-lo, lo + 1):
                                acc = 0.0
                                for m1 in range(-a, a + 1):
                                    for m2 in range(-v, v + 1):
                                        cg = real_cg(a, m1, v, m2, lo, m3)
                                        if cg != 0.0:
                                            acc += cg * ha[c, m1 + a] * sh[m2 + v]
                                blocks[lo][i, c, m3 + lo] += w * acc
    return np.concatenate([blocks[l].reshape(n, -1) for l in range(lmax + 1)], axis=1)


def _alg1_reference(pos, h, alpha, L, ch, kappa):
    """Edge-wise form of the paper's literal Algorithm 1, which no library
    route computes: dense weights, the single top harmonic degree L, and
    each binomial term normalized by its own distance power.

    Builds the per-edge mixed-scale harmonic directly and couples features
    with it; no recoupling coefficients are involved.
    """
    n = h.n_nodes
    degrees = h.layout.degrees
    blocks = {l: np.zeros((n, ch, 2 * l + 1)) for l in range(L + 1)}
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            d = np.linalg.norm(pos[i] - pos[j])
            ti = solid_sh(L, pos[i], mode="normalized")
            tj = solid_sh(L, pos[j], mode="normalized")
            he = np.zeros(2 * L + 1)
            for k in range(L + 1):
                u = L - k
                z = (ti.block(u)[:, None] * tj.block(k)[None, :]).reshape(-1)
                coef = (-1.0) ** k * math.comb(L, k) / kappa.kappa(u, k, L) / d ** k
                he += coef * (z @ real_cg_table(u, k, L).reshape(-1, 2 * L + 1))
            for a in degrees:
                ha = h.degree_block(a)[j]
                for lo in range(abs(a - L), min(a + L, L) + 1):
                    z = (ha[:, :, None] * he[None, None, :]).reshape(ch, -1)
                    w = real_cg_table(a, L, lo).reshape(-1, 2 * lo + 1)
                    blocks[lo][i] += alpha[i, j] * (z @ w)
    return np.concatenate([blocks[l].reshape(n, -1) for l in range(L + 1)], axis=1)


# node 0 of the 16-node knn(4) system below, raw-solid, lmax=2, 3 channels
EDGE16_ROW0 = np.array([
    -0.7471914173224316, -1.3581347100238417, 0.2056214551352551,
    -0.11270689863090341, -0.3464524253689652, 1.6650460949659367,
    0.4303885749334897, -3.238060705196884, -0.16688018531152043,
    -0.5323516173346096, 0.1650258680224764, 0.7173071994601385,
    0.2288433504612835, -2.8325443624977114, -2.0051002549790975,
    0.9123046312039976, 0.4849485251506012, 0.2772142879136551,
    -0.20463183183693673, -4.081975182480615, 0.9079606422459958,
    -0.8608190902008247, 0.2568115770866375, -0.17802015930953935,
    0.9214549888445791, 2.1183965603184576, -0.1794155738377586,
])
EDGE16_ABS_SUM = 497.39029551174553

# node 0 of the 8-node dense system below, literal Algorithm 1, L=2, 2 channels
ALG1_ROW0 = np.array([
    0.23653682260441655, -1.947874346397319, -0.2414649516983065,
    -1.9766885184234217, -2.449237663822373, -0.5097573543372447,
    0.45773703220986306, -0.2594509113428251, 0.5042741005612712,
    -2.0900367133705258, -0.27997305486329105, 1.630990078365647,
    -3.009393514667419, -2.296397310162707, 0.8339276996842577,
    -4.6696818054514235, 1.104828875837469, 4.7454672913483975,
])
ALG1_ABS_SUM = 276.24647327779849


# -- configuration and weight containers --------------------------------------


def test_conv_config_validation():
    cfg = ConvConfig(l_max=2, channels=3)
    assert cfg.degrees == (0, 1, 2)
    assert cfg.mode == "raw-solid"
    with pytest.raises(ValueError, match="mode"):
        ConvConfig(l_max=2, channels=3, mode="spherical")
    # the literal Algorithm 1 is no mode; it lives on in _alg1_reference
    with pytest.raises(ValueError, match=r"mode must be one of \('raw-solid', 'unit-Y'\)"):
        ConvConfig(l_max=2, channels=3, mode="alg1-literal", include_self=True)
    with pytest.raises(CapacityError):
        ConvConfig(l_max=13, channels=1)
    with pytest.raises(ValueError):
        ConvConfig(l_max=2, channels=0)
    # duplicate or unsorted degree lists are normalized, not rejected
    assert ConvConfig(l_max=2, channels=3, harmonic_degrees=(1, 1, 0)).degrees == (0, 1)
    with pytest.raises(ValueError, match="nonnegative"):
        ConvConfig(l_max=2, channels=3, harmonic_degrees=(-1, 1))
    top = ConvConfig(l_max=2, channels=2, harmonic_degrees=(2,))
    assert top.degrees == (2,)


def test_node_route_rejects_l_max_beyond_its_coefficients():
    # the edge route couples only up to l_max and accepts l_max = 7; the
    # node route couples features of degree 7 with harmonics of degree 7
    # into degree 14 > J_max = 12 and must say so before any work
    n = 6
    cloud = random_cloud(n, seed=3)
    g = knn(cloud, 3)
    h = _feat(n, 7, 1, seed=4)
    cfg = ConvConfig(l_max=7, channels=1)
    edge_conv(g, cloud.positions, h, cfg)
    ones = np.ones((n, n))
    calls = (
        lambda: node_conv(g, cloud.positions, h, cfg),
        lambda: attention_node_conv(cloud.positions, h, ones, cfg),
        lambda: moments_conv(cloud.positions, h, cfg),
    )
    for call in calls:
        with pytest.raises(CapacityError, match=r"l_max=7 .*l_max <= 6"):
            call()
    # low harmonic degrees keep every coupling within J_max
    low = ConvConfig(l_max=7, channels=1, harmonic_degrees=(0, 1))
    e = edge_conv(g, cloud.positions, h, low).output.values
    o = node_conv(g, cloud.positions, h, low).output.values
    assert _rel(o, e) < 1e-10


def test_attention_weights_containers():
    with pytest.raises(ValueError, match="finite"):
        AttentionWeights.from_edges(np.array([1.0, np.nan]))
    with pytest.raises(ValueError, match="dense"):
        AttentionWeights.from_dense(np.ones((3, 4)))
    with pytest.raises(ValueError, match="edge weights"):
        AttentionWeights(np.ones((2, 2, 2)), dense=False)
    dense_w_ = AttentionWeights.from_dense(np.ones((3, 3, 2)))
    assert dense_w_.heads == 2
    edges = AttentionWeights.from_edges(np.arange(4.0))
    assert edges.heads == 1
    c = np.array([0, 0, 1, 2])
    s = np.array([1, 2, 0, 1])
    assert dense_w_.edge_values(c, s).shape == (4, 2)
    assert edges.edge_values(c, s)[:, 0] == pytest.approx(np.arange(4.0))
    with pytest.raises(ValueError, match="per-edge weights"):
        AttentionWeights.from_edges(np.ones(3)).edge_values(c, s)


# -- edge route against the scalar reference ----------------------------------


@pytest.fixture(scope="module")
def system16():
    cloud = random_cloud(16, seed=7)
    g = knn(cloud, 4)
    h = _feat(16, 2, 3, seed=7)
    return cloud, g, h


def test_edge_conv_matches_scalar_reference_and_golden(system16):
    cloud, g, h = system16
    cfg = ConvConfig(l_max=2, channels=3)
    got = edge_conv(g, cloud.positions, h, cfg).output.values
    ref = _edge_conv_reference(g, cloud.positions, h, cfg)
    assert _rel(got, ref) < 1e-12
    assert got[0] == pytest.approx(EDGE16_ROW0, rel=1e-12)
    assert np.abs(got).sum() == pytest.approx(EDGE16_ABS_SUM, rel=1e-12)


def test_edge_conv_unit_y_matches_scalar_reference(system16):
    cloud, g, h = system16
    cfg = ConvConfig(l_max=2, channels=3, mode="unit-Y")
    got = edge_conv(g, cloud.positions, h, cfg).output.values
    ref = _edge_conv_reference(g, cloud.positions, h, cfg)
    assert _rel(got, ref) < 1e-12


def test_edge_conv_weighted_matches_scalar_reference(system16):
    cloud, g, h = system16
    cfg = ConvConfig(l_max=2, channels=3)
    alpha_dense = _rng(70).standard_normal((16, 16, 3))
    got = edge_conv(g, cloud.positions, h, cfg,
                    alpha=AttentionWeights.from_dense(alpha_dense)).output.values
    ref = _edge_conv_reference(g, cloud.positions, h, cfg, alpha=alpha_dense)
    assert _rel(got, ref) < 1e-12


def test_edge_conv_restricted_harmonic_degrees(system16):
    cloud, g, h = system16
    cfg = ConvConfig(l_max=2, channels=3, harmonic_degrees=(0, 2))
    got = edge_conv(g, cloud.positions, h, cfg).output.values
    ref = _edge_conv_reference(g, cloud.positions, h, cfg)
    assert _rel(got, ref) < 1e-12


# -- the two routes agree ------------------------------------------------------


@pytest.mark.parametrize("mode", ["raw-solid", "unit-Y"])
def test_node_route_equals_edge_route(mode, system16):
    cloud, g, h = system16
    cfg = ConvConfig(l_max=2, channels=3, mode=mode)
    e = edge_conv(g, cloud.positions, h, cfg).output.values
    n = node_conv(g, cloud.positions, h, cfg).output.values
    assert _rel(n, e) < 1e-11


def test_routes_agree_with_per_edge_weights(system16):
    cloud, g, h = system16
    cfg = ConvConfig(l_max=2, channels=3)
    w = AttentionWeights.from_edges(_rng(71).standard_normal(g.n_edges))
    e = edge_conv(g, cloud.positions, h, cfg, alpha=w).output.values
    n = node_conv(g, cloud.positions, h, cfg, alpha=w).output.values
    assert _rel(n, e) < 1e-11


def test_raw_alpha_array_rejected_and_explicit_edge_weights_agree():
    """On two nodes with one neighbour each, per-edge weights for two heads
    form a (2, 2) array, the shape of dense (N, N) weights too; only
    AttentionWeights says which one is meant."""
    cloud = random_cloud(2, seed=12)
    g = knn(cloud, 1)
    h = _feat(2, 2, 2, seed=12)
    cfg = ConvConfig(l_max=2, channels=2)
    raw = _rng(77).uniform(0.5, 1.5, (g.n_edges, 2))
    for route in (edge_conv, node_conv):
        with pytest.raises(TypeError, match="AttentionWeights"):
            route(g, cloud.positions, h, cfg, alpha=raw)
    w = AttentionWeights.from_edges(raw)
    e = edge_conv(g, cloud.positions, h, cfg, alpha=w).output.values
    n = node_conv(g, cloud.positions, h, cfg, alpha=w).output.values
    assert _rel(n, e) < 1e-11
    centers, sources = g.edge_arrays()
    per_channel = np.zeros((2, 2, 2))
    per_channel[centers, sources] = raw
    ref = _edge_conv_reference(g, cloud.positions, h, cfg, alpha=per_channel)
    assert _rel(e, ref) < 1e-12
    assert _rel(n, ref) < 1e-11


def test_routes_agree_with_per_head_weights(system16):
    cloud, g, h = system16
    cfg = ConvConfig(l_max=2, channels=3)  # 3 heads, one channel each
    w = AttentionWeights.from_dense(_rng(72).standard_normal((16, 16, 3)))
    e = edge_conv(g, cloud.positions, h, cfg, alpha=w).output.values
    n = node_conv(g, cloud.positions, h, cfg, alpha=w).output.values
    assert _rel(n, e) < 1e-11


def test_heads_must_divide_channels(system16):
    cloud, g, h = system16
    cfg = ConvConfig(l_max=2, channels=3)
    w = AttentionWeights.from_dense(_rng(73).standard_normal((16, 16, 2)))
    with pytest.raises(ValueError, match="head"):
        edge_conv(g, cloud.positions, h, cfg, alpha=w)


def test_adjacency_indicator_is_uniform_weighting(system16):
    cloud, g, h = system16
    cfg = ConvConfig(l_max=2, channels=3)
    ind = adjacency_indicator(g)
    base = edge_conv(g, cloud.positions, h, cfg).output.values
    got = edge_conv(g, cloud.positions, h, cfg, alpha=ind).output.values
    assert np.array_equal(got, base)


def test_include_self_routes_agree(system16):
    cloud, g, h = system16
    cfg = ConvConfig(l_max=2, channels=3, include_self=True)
    e = edge_conv(g, cloud.positions, h, cfg)
    n = node_conv(g, cloud.positions, h, cfg)
    assert _rel(n.output.values, e.output.values) < 1e-11
    ref = _edge_conv_reference(g, cloud.positions, h, cfg)
    assert _rel(e.output.values, ref) < 1e-12


# -- degenerate inputs ---------------------------------------------------------


def test_empty_neighborhoods_give_zero_rows():
    cloud = random_cloud(6, seed=8)
    g = radius(cloud, 1e-9, max_neighbors=5)
    assert g.n_edges == 0
    h = _feat(6, 2, 2, seed=8)
    cfg = ConvConfig(l_max=2, channels=2)
    for fn in (edge_conv, node_conv):
        res = fn(g, cloud.positions, h, cfg)
        assert np.all(res.output.values == 0.0)
        assert res.output.values.shape == h.values.shape


def test_single_node_graph_gives_zero():
    cloud = random_cloud(1, seed=9)
    g = dense(1)
    h = _feat(1, 1, 2, seed=9)
    cfg = ConvConfig(l_max=1, channels=2)
    assert np.all(edge_conv(g, cloud.positions, h, cfg).output.values == 0.0)
    assert np.all(node_conv(g, cloud.positions, h, cfg).output.values == 0.0)


def test_degenerate_edge_raises_in_unit_y_mode():
    pts = np.array([[0.0, 0, 0], [0.0, 0, 0], [1.0, 0, 0]])
    cloud = PointCloud(pts, seed=None, box_side=None)
    g = knn(cloud, 2)
    h = _feat(3, 1, 2, seed=10)
    cfg = ConvConfig(l_max=1, channels=2, mode="unit-Y")
    with pytest.raises(DegenerateEdgeError, match=r"edge \("):
        edge_conv(g, cloud.positions, h, cfg)
    with pytest.raises(DegenerateEdgeError, match=r"edge \("):
        node_conv(g, cloud.positions, h, cfg)
    # raw-solid tolerates the coincident pair: the harmonic itself is finite
    raw = ConvConfig(l_max=1, channels=2)
    assert np.isfinite(edge_conv(g, cloud.positions, h, raw).output.values).all()


def test_feature_layout_rejected_on_mismatch(system16):
    cloud, g, _ = system16
    cfg = ConvConfig(l_max=2, channels=3)
    wrong_ch = _feat(16, 2, 2, seed=11)
    with pytest.raises(ValueError, match="channels"):
        edge_conv(g, cloud.positions, wrong_ch, cfg)
    dup = random_tensor([(1, 3), (1, 3)], 16, seed=12)
    with pytest.raises(KeyError, match="ambiguous"):
        edge_conv(g, cloud.positions, dup, cfg)
    cfg_short = ConvConfig(l_max=1, channels=3)
    h_pos = random_tensor([(0, 3), (1, 3)], 15, seed=13)
    with pytest.raises(ValueError, match=r"\(N, 3\)"):
        node_conv(g, cloud.positions, h_pos, cfg_short)


# -- operation counters --------------------------------------------------------


def _n_path_triples(h_degrees, cfg):
    n = 0
    for a in h_degrees:
        for v in cfg.degrees:
            for lo in range(abs(a - v), min(a + v, cfg.l_max) + 1):
                n += 1
    return n


def test_edge_counters_are_exact(system16):
    cloud, g, h = system16
    cfg = ConvConfig(l_max=2, channels=3)
    res = edge_conv(g, cloud.positions, h, cfg)
    want = g.n_edges * _n_path_triples(h.layout.degrees, cfg)
    assert res.counters.tp_count == want
    assert res.counters.add_count == want


def test_node_counters_do_not_depend_on_k():
    cloud = random_cloud(24, seed=14)
    h = _feat(24, 2, 2, seed=14)
    cfg = ConvConfig(l_max=2, channels=2)
    counts = set()
    adds = {}
    for g in (knn(cloud, 2), knn(cloud, 5), dense(24)):
        res = node_conv(g, cloud.positions, h, cfg)
        counts.add(res.counters.tp_count)
        adds[g.n_edges] = res.counters.add_count
    assert len(counts) == 1
    # scalar aggregation work scales with the edge count instead
    ratios = {e: a / e for e, a in adds.items()}
    assert len(set(ratios.values())) == 1


def test_node_tp_count_is_linear_in_n():
    cfg = ConvConfig(l_max=2, channels=2)
    tps = []
    for n in (8, 16, 24):
        cloud = random_cloud(n, seed=15)
        h = _feat(n, 2, 2, seed=15)
        tps.append(node_conv(knn(cloud, 3), cloud.positions, h, cfg).counters.tp_count)
    assert tps[1] == 2 * tps[0]
    assert tps[2] == 3 * tps[0]


# -- attention wrappers ---------------------------------------------------------


@pytest.fixture(scope="module")
def system8():
    cloud = random_cloud(8, seed=3)
    h = _feat(8, 2, 2, seed=5)
    alpha = _rng(11).standard_normal((8, 8))
    return cloud, h, alpha


def test_attention_raw_solid_equals_dense_node_conv(system8):
    cloud, h, alpha = system8
    cfg = ConvConfig(l_max=2, channels=2)
    got = attention_node_conv(cloud.positions, h, alpha, cfg).output.values
    want = node_conv(dense(8), cloud.positions, h, cfg,
                     alpha=AttentionWeights.from_dense(alpha)).output.values
    assert np.array_equal(got, want)


def test_attention_unit_y_equals_dense_edge_conv(system8):
    cloud, h, alpha = system8
    cfg = ConvConfig(l_max=2, channels=2, mode="unit-Y")
    got = attention_node_conv(cloud.positions, h, alpha, cfg).output.values
    want = edge_conv(dense(8), cloud.positions, h, cfg,
                     alpha=AttentionWeights.from_dense(alpha)).output.values
    assert _rel(got, want) < 1e-11


def test_alg1_literal_matches_mixed_scale_reference_and_golden(system8):
    """The literal Algorithm 1 stays on record: its edge-wise reference
    reproduces the frozen goldens."""
    cloud, h, alpha = system8
    ref = _alg1_reference(cloud.positions, h, alpha, 2, 2, calibrate_pair_constants(2))
    assert ref[0] == pytest.approx(ALG1_ROW0, rel=1e-12)
    assert np.abs(ref).sum() == pytest.approx(ALG1_ABS_SUM, rel=1e-12)


def test_attention_rejects_non_square_alpha(system8):
    cloud, h, _ = system8
    cfg = ConvConfig(l_max=2, channels=2)
    with pytest.raises(ValueError):
        attention_node_conv(cloud.positions, h, np.ones((8, 7)), cfg)


# -- global-moments route --------------------------------------------------------


def test_moments_route_equals_dense_node_conv():
    cloud = random_cloud(12, seed=16)
    h = _feat(12, 2, 2, seed=16)
    cfg = ConvConfig(l_max=2, channels=2)
    want = node_conv(dense(12), cloud.positions, h, cfg).output.values
    got = moments_conv(cloud.positions, h, cfg).output.values
    assert _rel(got, want) < 1e-11


def test_moments_route_with_include_self():
    cloud = random_cloud(10, seed=17)
    h = _feat(10, 1, 2, seed=17)
    cfg = ConvConfig(l_max=1, channels=2, include_self=True)
    want = node_conv(dense(10), cloud.positions, h, cfg).output.values
    got = moments_conv(cloud.positions, h, cfg).output.values
    assert _rel(got, want) < 1e-11


def test_moments_route_requires_raw_solid():
    cloud = random_cloud(6, seed=18)
    h = _feat(6, 1, 2, seed=18)
    cfg = ConvConfig(l_max=1, channels=2, mode="unit-Y")
    with pytest.raises(ValueError, match="raw-solid"):
        moments_conv(cloud.positions, h, cfg)


def test_moments_single_node():
    cloud = random_cloud(1, seed=19)
    h = _feat(1, 1, 2, seed=19)
    out = moments_conv(cloud.positions, h, ConvConfig(l_max=1, channels=2))
    assert np.all(out.output.values == 0.0)
    kept = moments_conv(cloud.positions, h,
                        ConvConfig(l_max=1, channels=2, include_self=True))
    want = node_conv(dense(1), cloud.positions, h,
                     ConvConfig(l_max=1, channels=2, include_self=True))
    assert _rel(kept.output.values, want.output.values) < 1e-12


@pytest.mark.parametrize("l_max", [3, 4, 6])
def test_moments_route_is_translation_robust(l_max):
    """The moments are taken about the centroid: expanded about the origin,
    a shift of 100 put L=4 off by 2.8e-9 and a shift of 1e3 put L=6 off by
    6.5 relative."""
    n = 64
    pos = random_cloud(n, seed=90).positions
    h = _feat(n, l_max, 2, seed=91)
    g = dense(n)
    for include_self in (False, True):
        cfg = ConvConfig(l_max=l_max, channels=2, include_self=include_self)
        for shift in (0.0, 10.0, 100.0, 1e3):
            moved = pos + shift * np.array([1.0, -0.6, 0.3])
            want = edge_conv(g, moved, h, cfg).output.values
            got = moments_conv(moved, h, cfg).output.values
            assert _rel(got, want) < 1e-10, (include_self, shift)


def test_moments_memory_peak():
    """One set of global moments serves every centre: the output blocks, the
    packed output and the node harmonics bound the peak. Per-node moments
    read about 69x the features."""
    import tracemalloc

    n = 2000
    cloud = random_cloud(n, seed=92)
    h = _feat(n, 6, 8, seed=93)
    cfg = ConvConfig(l_max=6, channels=8)
    moments_conv(cloud.positions, h, cfg)  # coefficient tables and plan
    tracemalloc.start()
    try:
        moments_conv(cloud.positions, h, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * h.values.nbytes


# -- symmetry properties ----------------------------------------------------------


@pytest.mark.parametrize("route", [edge_conv, node_conv])
def test_rotation_equivariance(route, system16):
    cloud, g, h = system16
    cfg = ConvConfig(l_max=2, channels=3)
    rot = Rotation.random(_rng(74))
    base = route(g, cloud.positions, h, cfg).output
    turned = route(g, rot.apply(cloud.positions), h.rotate(rot), cfg).output
    assert _rel(turned.values, base.rotate(rot).values) < 1e-11


def test_translation_invariance(system16):
    cloud, g, h = system16
    cfg = ConvConfig(l_max=2, channels=3)
    base = edge_conv(g, cloud.positions, h, cfg).output.values
    moved = edge_conv(g, cloud.positions + np.array([3.0, -1.0, 0.5]), h, cfg)
    assert _rel(moved.output.values, base) < 1e-11


def test_permutation_equivariance(system16):
    from sixjconv.irreps import IrrepTensor
    cloud, _, h = system16
    cfg = ConvConfig(l_max=2, channels=3)
    perm = _rng(75).permutation(16)
    pos_p = cloud.positions[perm]
    h_p = IrrepTensor(h.layout, h.values[perm])
    g = dense(16)  # dense graph is permutation stable by construction
    base = node_conv(g, cloud.positions, h, cfg).output.values
    swapped = node_conv(g, pos_p, h_p, cfg).output.values
    assert _rel(swapped, base[perm]) < 1e-11


# -- binomial expansion -------------------------------------------------------------


def test_binomial_expansion_recovers_edge_harmonic():
    rng = _rng(76)
    for l in range(5):
        for _ in range(10):
            ri, rj = rng.standard_normal(3), rng.standard_normal(3)
            got = binomial_expand_sh(l, ri, rj)
            want = solid_sh(l, ri - rj).block(l)
            assert got == pytest.approx(want, abs=1e-10 * max(1, np.abs(want).max()))


def test_binomial_expansion_at_origin_source():
    # r_j = 0 kills every term with a j-side harmonic of positive degree
    ri = np.array([0.4, -1.2, 2.2])
    for l in range(4):
        got = binomial_expand_sh(l, ri, np.zeros(3))
        assert got == pytest.approx(solid_sh(l, ri).block(l), rel=1e-12)


# -- node-route kernels against the outer-product formulation ------------------
#
# The oracle below is the node route written the direct way: every product of
# a feature block with a node harmonic materialises the C-fold outer product
# and multiplies it by the dense coupling matrix, stage 2 builds one COO
# sparse matrix per channel, and the 6j-weighted sums run member by member.
# The library contracts each node's harmonic once for all channels and
# recouples with GEMMs, so only the summation order differs.


def _oracle_groups(h_degrees, cfg, kappa):
    """(d, u, l_out) -> [(a, l, g)]: 6j recoupling weights of the node route."""
    groups = {}
    for a in h_degrees:
        for l in cfg.degrees:
            for u in range(l + 1):
                v = l - u
                base = (-1.0) ** v * math.comb(l, u) / kappa.kappa(u, v, l)
                for d in range(abs(a - v), a + v + 1):
                    for lo in range(abs(d - u), min(d + u, cfg.l_max) + 1):
                        if not triangle_ok(a, l, lo):
                            continue
                        sixj = wigner6j((a, v, d, u, lo, l))
                        if sixj == 0.0:
                            continue
                        sign = -1.0 if (a + l + lo) % 2 else 1.0
                        g = base * sign * math.sqrt((2 * d + 1) * (2 * l + 1)) * sixj
                        groups.setdefault((d, u, lo), []).append((a, l, g))
    return groups


def _outer_product(x, sh, l1, l2, l3):
    """[x x sh]^(l3) for x (N, C, 2l1+1), sh (N, 2l2+1), via (N C, ...) rows."""
    n, c, _ = x.shape
    z = (x[:, :, :, None] * sh[:, None, None, :]).reshape(n * c, -1)
    return (z @ real_cg_table(l1, l2, l3).reshape(-1, 2 * l3 + 1)).reshape(n, c, -1)


def _oracle_node(h, pos, cfg, aggregate):
    """Stages 1-3 with outer products; ``aggregate(e, block)`` is stage 2."""
    n = h.n_nodes
    kappa = calibrate_pair_constants(max(cfg.l_max, max(cfg.degrees)))
    tab = solid_sh(max(cfg.degrees), pos, mode="normalized")
    out = [np.zeros((n, cfg.channels, 2 * l + 1)) for l in range(cfg.l_max + 1)]
    s = {}
    for (d, u, lo), members in sorted(_oracle_groups(h.layout.degrees, cfg, kappa).items()):
        x = 0.0
        for a, l, g in members:
            v = l - u
            e = l if cfg.mode == "unit-Y" else 0
            if (a, v, d, e) not in s:
                p = _outer_product(h.degree_block(a), tab.blocks[v], a, v, d)
                s[a, v, d, e] = aggregate(e, p)
            x = x + g * s[a, v, d, e]
        out[lo] += _outer_product(x, tab.blocks[u], d, u, lo)
    return np.concatenate([b.reshape(n, -1) for b in out], axis=1)


def _oracle_edges(g, cfg, n):
    centers, sources = g.edge_arrays()
    if cfg.include_self:
        centers = np.concatenate([centers, np.arange(n)])
        sources = np.concatenate([sources, np.arange(n)])
    return centers, sources


def _oracle_graph_node_conv(g, pos, h, cfg, per_channel=None):
    """``per_channel`` maps (centers, sources) to (E, C) weights."""
    n, c = h.n_nodes, cfg.channels
    centers, sources = _oracle_edges(g, cfg, n)
    w = np.ones((centers.shape[0], c)) if per_channel is None else per_channel(centers, sources)
    dist = np.linalg.norm(pos[centers] - pos[sources], axis=1)

    def aggregate(e, p):
        s = np.empty_like(p)
        for ch in range(c):
            we = w[:, ch] if e == 0 else w[:, ch] / dist ** e
            mat = sp.csr_matrix((we, (centers, sources)), shape=(n, n))
            s[:, ch] = mat @ p[:, ch]
        return s

    return _oracle_node(h, pos, cfg, aggregate)


def _oracle_moments_conv(pos, h, cfg):
    def aggregate(e, p):
        m = p.sum(axis=0, keepdims=True)
        return m + 0.0 * p if cfg.include_self else m - p

    return _oracle_node(h, pos, cfg, aggregate)


# summation order only: well inside the 1e-10 route-agreement contract
KERNEL_RTOL = 1e-11


def _kernel_cases(l_max):
    """(label, graph, positions, features, cfg, AttentionWeights or None)."""
    cloud = random_cloud(14, seed=40)
    pos = cloud.positions - cloud.positions.mean(axis=0)
    g = knn(cloud, 4)
    full = [(l, 2) for l in range(l_max + 1)]
    heads = AttentionWeights.from_edges(_rng(41).uniform(0.5, 1.5, (g.n_edges, 4)))
    shared = AttentionWeights.from_edges(_rng(42).uniform(0.5, 1.5, g.n_edges))
    lone = radius(cloud, 0.9, max_neighbors=3)
    assert min(len(nb) for nb in lone.neighbors) == 0
    single = random_cloud(1, seed=43)
    subset = (0, l_max) if l_max else (0,)
    for mode in ("raw-solid", "unit-Y"):
        cfg = dict(l_max=l_max, mode=mode)
        yield "full", g, pos, random_tensor(full, 14, seed=44), ConvConfig(channels=2, **cfg), None
        yield ("gapped", g, pos, random_tensor([(0, 2), (2, 2), (5, 2)], 14, seed=45),
               ConvConfig(channels=2, **cfg), shared)
        yield ("subset", g, pos, random_tensor(full, 14, seed=46),
               ConvConfig(channels=2, harmonic_degrees=subset, **cfg), shared)
        yield ("one channel", g, pos, random_tensor([(l, 1) for l in range(l_max + 1)], 14, seed=47),
               ConvConfig(channels=1, **cfg), shared)
        yield ("four heads", g, pos, random_tensor([(l, 8) for l in range(l_max + 1)], 14, seed=48),
               ConvConfig(channels=8, **cfg), heads)
        yield "isolated", lone, pos, random_tensor(full, 14, seed=49), ConvConfig(channels=2, **cfg), None
    raw = dict(l_max=l_max, channels=2, include_self=True)
    yield "self", g, pos, random_tensor(full, 14, seed=50), ConvConfig(**raw), None
    yield ("one node", dense(1), single.positions, random_tensor(full, 1, seed=51),
           ConvConfig(**raw), None)
    # no degree-0 harmonic: the j = i term vanishes, and moments subtract nothing
    yield ("no degree 0", g, pos, random_tensor(full, 14, seed=58),
           ConvConfig(l_max=l_max, channels=2, harmonic_degrees=tuple(range(1, l_max + 1)) or (1,)),
           None)


@pytest.mark.parametrize("l_max", range(7))
def test_node_stages_match_outer_product_oracle(l_max):
    for label, g, pos, h, cfg, alpha in _kernel_cases(l_max):
        res = node_conv(g, pos, h, cfg, alpha=alpha)

        def per_channel(centers, sources, alpha=alpha, cfg=cfg):
            vals = alpha.values
            vals = vals[:, None] if vals.ndim == 1 else vals
            return np.repeat(vals, cfg.channels // vals.shape[1], axis=1)

        want = _oracle_graph_node_conv(g, pos, h, cfg, None if alpha is None else per_channel)
        assert _rel(res.output.values, want) < KERNEL_RTOL, (label, cfg.mode)
        if cfg.mode == "raw-solid":
            got = moments_conv(pos, h, cfg).output.values
            assert _rel(got, _oracle_moments_conv(pos, h, cfg)) < KERNEL_RTOL, label


@pytest.mark.parametrize("l_max", range(7))
def test_stage1_products_match_outer_products(l_max):
    from sixjconv.conv import _harmonic_first, _head_major, _own_harmonic_product

    cloud = random_cloud(9, seed=52)
    tab = solid_sh(l_max, cloud.positions, mode="normalized")
    h = random_tensor([(l, 4) for l in (0, 2, 5)], 9, seed=53)
    for a in h.layout.degrees:
        for v in range(l_max + 1):
            ds = tuple(range(abs(a - v), a + v + 1))
            for heads in (1, 2):
                got = _own_harmonic_product(_head_major(h.degree_block(a), heads),
                                            tab.blocks[v], _harmonic_first(a, v, ds))
                col = 0
                for d in ds:
                    blk = got[:, :, col:col + 2 * d + 1].transpose(1, 0, 3, 2).reshape(9, 4, -1)
                    want = _outer_product(h.degree_block(a), tab.blocks[v], a, v, d)
                    assert np.abs(blk - want).max() <= 1e-13 * max(1.0, np.abs(want).max())
                    col += 2 * d + 1


def test_stage2_csr_is_the_per_channel_coo_product():
    from sixjconv.conv import _edges_of, _sparse_aggregator

    n, heads, per_head = 30, 2, 3
    cloud = random_cloud(n, seed=54)
    g = knn(cloud, 5)
    cfg = ConvConfig(l_max=2, channels=heads * per_head, include_self=True)
    centers, sources = _edges_of(g, cfg, n)
    order = np.lexsort((sources, centers))
    assert np.array_equal(order, np.arange(centers.shape[0]))  # CSR order
    vals = _rng(55).uniform(0.5, 1.5, (centers.shape[0], heads))
    dist = 1.0 + _rng(56).random(centers.shape[0])
    agg = _sparse_aggregator(centers, sources, vals, dist, n)
    blocks = _rng(57).standard_normal((heads, n, 4, 5, per_head))
    for e in (0, 3):
        got = agg(e, blocks)
        for k in range(heads):
            w = vals[:, k] if e == 0 else vals[:, k] / dist ** e
            # the former aggregation: COO -> CSR per channel
            mat = sp.csr_matrix((w, (centers, sources)), shape=(n, n))
            for c in range(per_head):
                want = mat @ blocks[k, :, :, :, c].reshape(n, -1)
                assert np.array_equal(got[k, :, :, :, c].reshape(n, -1), want)


def test_caller_kappa_table_does_not_depend_on_call_order(system16):
    from sixjconv import conv

    cloud, g, h = system16
    cfg = ConvConfig(l_max=2, channels=3)

    def run():
        return node_conv(g, cloud.positions, h, cfg).output.values

    conv._PLAN_CACHE.clear()
    first = run()
    conv._PLAN_CACHE.clear()
    assert np.array_equal(run(), first)


def test_unit_y_node_conv_memory_peak():
    """Stages 2 and 3 run one intermediate degree at a time: the unit-Y call
    at N=500, k=8, L=6 (4 heads) peaked at 262 MiB with every S block kept."""
    import tracemalloc

    n = 500
    cloud = random_cloud(n, seed=6)
    g = knn(cloud, 8)
    h = _feat(n, 6, 8, seed=7)
    w = AttentionWeights.from_edges(_rng(8).uniform(0.5, 1.5, (g.n_edges, 4)))
    cfg = ConvConfig(l_max=6, channels=8, mode="unit-Y")
    node_conv(g, cloud.positions, h, cfg, alpha=w)  # coefficient tables and plan
    tracemalloc.start()
    try:
        node_conv(g, cloud.positions, h, cfg, alpha=w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 200 * 2**20


@pytest.mark.parametrize("mode", ["raw-solid", "unit-Y"])
def test_attention_rejects_per_edge_weights(mode):
    # a (4, 4) per-edge array of a 4-node graph has the shape of dense
    # weights; it must not be read as dense because its shape fits
    n = 4
    cloud = random_cloud(n, seed=60)
    h = _feat(n, 1, 2, seed=61)
    vals = _rng(62).uniform(0.5, 1.5, (n, n))
    cfg = ConvConfig(l_max=1, channels=2, mode=mode)
    with pytest.raises(ValueError, match="per-edge"):
        attention_node_conv(cloud.positions, h, AttentionWeights.from_edges(vals), cfg)
    dense_aw = AttentionWeights.from_dense(vals)
    got = attention_node_conv(cloud.positions, h, dense_aw, cfg).output.values
    want = attention_node_conv(cloud.positions, h, vals, cfg).output.values
    assert np.array_equal(got, want)


@pytest.mark.parametrize("entry", ["edge_conv", "node_conv", "attention_node_conv",
                                   "moments_conv"])
def test_non_finite_inputs_rejected(entry):
    n = 12
    cloud = random_cloud(n, seed=63)
    g = knn(cloud, 3)
    call = {
        "edge_conv": lambda pos, h, cfg: edge_conv(g, pos, h, cfg),
        "node_conv": lambda pos, h, cfg: node_conv(g, pos, h, cfg),
        "attention_node_conv": lambda pos, h, cfg: attention_node_conv(pos, h, np.ones((n, n)), cfg),
        "moments_conv": moments_conv,
    }[entry]
    h = _feat(n, 2, 2, seed=64)
    modes = ("raw-solid",) if entry == "moments_conv" else ("raw-solid", "unit-Y")
    for mode in modes:
        cfg = ConvConfig(l_max=2, channels=2, mode=mode)
        assert np.isfinite(call(cloud.positions, h, cfg).output.values).all()
        for bad in (np.nan, np.inf):
            pos = cloud.positions.copy()
            pos[5, 1] = bad
            with pytest.raises(ValueError, match="positions must be finite"):
                call(pos, h, cfg)
            feat = _feat(n, 2, 2, seed=64)
            feat.values[7, 3] = bad
            with pytest.raises(ValueError, match="features must be finite"):
                call(cloud.positions, feat, cfg)


def test_unit_y_rejects_include_self_when_built():
    # unit-Y divides by |r_ij|, and the self edge has length 0 at any l_max
    with pytest.raises(ValueError, match=r"mode='unit-Y'.*include_self=True"):
        ConvConfig(l_max=0, channels=1, mode="unit-Y", include_self=True)
    assert ConvConfig(l_max=0, channels=1, mode="raw-solid", include_self=True).include_self


def _sparse_route_on_dense(pos, h, alpha, cfg):
    """The graph route on ``dense(n)``: stage 2 as one sparse product over
    the explicit edge list (self edges under include_self)."""
    from sixjconv.conv import _edges_of, _node_route, _sparse_aggregator, _staged

    n = h.n_nodes
    centers, sources = _edges_of(dense(n), cfg, n)
    vals = AttentionWeights.from_dense(alpha).edge_values(centers, sources)
    dist = np.linalg.norm(pos[centers] - pos[sources], axis=1)

    def stage2(positions, plan):
        agg = _sparse_aggregator(centers, sources, vals, dist, n)
        return agg, vals.shape[1], centers.shape[0]

    return _node_route(pos, h, cfg, _staged(stage2))


@pytest.mark.parametrize("mode, n, heads, include_self", [
    (mode, n, heads, False)
    for mode in ("raw-solid", "unit-Y")
    for n, heads in ((9, None), (9, 4), (1, 4))
] + [("raw-solid", 9, 4, True), ("raw-solid", 1, None, True)])
def test_dense_stage2_matches_graph_route_on_dense(mode, n, heads, include_self):
    cloud = random_cloud(n, seed=70)
    h = _feat(n, 2, 4, seed=71)
    # a nonzero diagonal, which counts only under include_self
    alpha = _rng(72).uniform(0.5, 1.5, (n, n) if heads is None else (n, n, heads))
    cfg = ConvConfig(l_max=2, channels=4, mode=mode, include_self=include_self)
    got = attention_node_conv(cloud.positions, h, alpha, cfg)
    want = _sparse_route_on_dense(cloud.positions, h, alpha, cfg)
    assert _rel(got.output.values, want.output.values) < 1e-12
    assert got.counters == want.counters
    # node_conv on the complete graph, with the same weights given per edge
    g = dense(n)
    if not include_self:
        per_edge = AttentionWeights.from_dense(alpha).edge_values(*g.edge_arrays())
        on = node_conv(g, cloud.positions, h, cfg, alpha=AttentionWeights.from_edges(per_edge))
        assert _rel(on.output.values, want.output.values) < 1e-12
        assert on.counters == want.counters
    oe = edge_conv(g, cloud.positions, h, cfg, alpha=AttentionWeights.from_dense(alpha))
    assert _rel(got.output.values, oe.output.values) < 1e-10


@pytest.mark.parametrize("mode", ["unit-Y"])
def test_dense_stage2_rejects_a_coincident_pair_whatever_its_weight(mode):
    import re

    n = 6
    pos = random_cloud(n, seed=73).positions.copy()
    pos[4] = pos[1]
    h = _feat(n, 1, 2, seed=74)
    cfg = ConvConfig(l_max=1, channels=2, mode=mode)
    msg = re.escape("edge (1, 4) has |r_ij| = 0.000e+00 < eps = 1.0e-08 in unit-Y mode")
    for weight in (1.0, 0.0):
        alpha = np.ones((n, n, 2))
        alpha[1, 4] = alpha[4, 1] = weight
        with pytest.raises(DegenerateEdgeError, match=msg):
            attention_node_conv(pos, h, alpha, cfg)
        with pytest.raises(DegenerateEdgeError, match=msg):
            node_conv(dense(n), pos, h, cfg, alpha=AttentionWeights.from_dense(alpha))


def test_node_conv_on_a_near_complete_graph_keeps_its_edges():
    """N(N-1) edges, one pair listed twice and one missing: the edge count
    and the graph's kind alone would take it for the complete graph."""
    from sixjconv.graph import NeighborGraph

    n = 7
    cloud = random_cloud(n, seed=75)
    lists = [[j for j in range(n) if j != i] for i in range(n)]
    lists[2].remove(5)
    lists[3].append(0)
    g = NeighborGraph(lists, kind="dense")
    assert g.n_edges == n * (n - 1)
    h = _feat(n, 2, 2, seed=76)
    w = AttentionWeights.from_edges(_rng(77).uniform(0.5, 1.5, (g.n_edges, 2)))
    for mode in ("raw-solid", "unit-Y"):
        cfg = ConvConfig(l_max=2, channels=2, mode=mode)
        for alpha in (None, w):
            want = edge_conv(g, cloud.positions, h, cfg, alpha=alpha)
            got = node_conv(g, cloud.positions, h, cfg, alpha=alpha)
            assert _rel(got.output.values, want.output.values) < 1e-10


def test_unit_y_attention_memory_peak():
    """Dense weights aggregate by one batched GEMM per head and exponent, with
    no N^2 edge list: unit-Y attention at N=500, L=2 (4 heads, 8 channels)
    peaks near 31 MiB, and 64 MiB through an edge list and a sparse product."""
    import tracemalloc

    n = 500
    cloud = random_cloud(n, seed=78)
    h = _feat(n, 2, 8, seed=79)
    w = AttentionWeights.from_dense(_rng(80).uniform(0.5, 1.5, (n, n, 4)))
    cfg = ConvConfig(l_max=2, channels=8, mode="unit-Y")
    attention_node_conv(cloud.positions, h, w, cfg)  # coefficient tables and plan
    tracemalloc.start()
    try:
        attention_node_conv(cloud.positions, h, w, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20


# -- inputs that do not fit the features ----------------------------------------


ROUTES = pytest.mark.parametrize("route", [edge_conv, node_conv], ids=["edge", "node"])


@ROUTES
@pytest.mark.parametrize("graph_n, feat_n", [(12, 10), (10, 12)])
def test_graph_must_have_the_features_node_count(route, graph_n, feat_n):
    """A larger graph made the node route read out of bounds; a smaller one
    left zero rows on both routes."""
    g = knn(random_cloud(graph_n, seed=81), 4)
    pos = random_cloud(feat_n, seed=82).positions
    h = _feat(feat_n, 2, 2, seed=83)
    with pytest.raises(ValueError, match=f"graph has {graph_n} nodes, features have {feat_n}"):
        route(g, pos, h, ConvConfig(l_max=2, channels=2))


@ROUTES
@pytest.mark.parametrize("side", [20, 5])
def test_dense_weights_must_be_n_by_n(route, side):
    cloud = random_cloud(12, seed=84)
    h = _feat(12, 2, 2, seed=85)
    alpha = AttentionWeights.from_dense(np.ones((side, side)))
    with pytest.raises(ValueError, match=rf"shape \({side}, {side}\) do not fit 12 nodes"):
        route(knn(cloud, 4), cloud.positions, h, ConvConfig(l_max=2, channels=2), alpha=alpha)


@ROUTES
@pytest.mark.parametrize("bad", [7, -1])
def test_neighbor_indices_must_name_nodes(route, bad):
    """An index beyond N made the node route read out of bounds; -1 wrapped
    to the last node on both routes."""
    from sixjconv.graph import NeighborGraph

    pos = random_cloud(4, seed=86).positions
    h = _feat(4, 2, 2, seed=87)
    with pytest.raises(ValueError, match=rf"neighbor index {bad} is outside \[0, 4\)"):
        g = NeighborGraph([[1], [0], [bad], [2]], kind="handmade")
        route(g, pos, h, ConvConfig(l_max=2, channels=2))


def test_alg1_literal_depends_on_the_coordinate_origin():
    """Each binomial term of the literal Algorithm 1 carries its own power of
    |r_ij|, so its output (``_alg1_reference``) moves with the origin;
    raw-solid and unit-Y do not."""
    n, L = 24, 3
    pos = random_cloud(n, seed=3).positions
    h = _feat(n, L, 2, seed=4)
    alpha = _rng(1).uniform(0.5, 1.5, (n, n))
    shift = np.array([1.0, 0.0, 0.0])
    for mode in ("raw-solid", "unit-Y"):
        cfg = ConvConfig(l_max=L, channels=2, mode=mode)
        base = attention_node_conv(pos, h, alpha, cfg).output.values
        shifted = attention_node_conv(pos + shift, h, alpha, cfg).output.values
        assert _rel(shifted, base) < 1e-10
    kappa = calibrate_pair_constants(L)
    base = _alg1_reference(pos, h, alpha, L, 2, kappa)
    assert _rel(_alg1_reference(pos + shift, h, alpha, L, 2, kappa), base) > 0.1
