"""Point clouds and neighbor graphs: determinism, tie-breaks, persistence."""

import itertools

import numpy as np
import pytest

from sixjconv.graph import (
    NeighborGraph,
    PointCloud,
    dense,
    knn,
    load_cloud,
    radius,
    random_cloud,
    save_cloud,
)


def test_random_cloud_is_deterministic_per_seed():
    a = random_cloud(12, seed=5)
    b = random_cloud(12, seed=5)
    c = random_cloud(12, seed=6)
    assert np.array_equal(a.positions, b.positions)
    assert not np.array_equal(a.positions, c.positions)
    assert a.positions.shape == (12, 3)
    assert a.seed == 5
    assert a.n_nodes == 12


def test_random_cloud_density_sets_box_side():
    # box volume n/density, so halving the density grows the side by 2^(1/3)
    a = random_cloud(16, seed=1, density=1.0)
    b = random_cloud(16, seed=1, density=0.5)
    assert b.box_side == pytest.approx(a.box_side * 2 ** (1 / 3))
    assert np.all(a.positions >= 0) and np.all(a.positions <= a.box_side)


def test_random_cloud_validation():
    with pytest.raises(ValueError, match="n must be"):
        random_cloud(0, seed=1)
    with pytest.raises(ValueError, match="density"):
        random_cloud(4, seed=1, density=-1.0)


def test_point_cloud_validation():
    with pytest.raises(ValueError, match="positions"):
        PointCloud(np.zeros((0, 3)), seed=None, box_side=None)
    with pytest.raises(ValueError, match="finite"):
        PointCloud(np.array([[0.0, 0.0, np.inf]]), seed=None, box_side=None)


def test_knn_tie_breaks_by_lower_index():
    pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
    cloud = PointCloud(pts, seed=None, box_side=None)
    g = knn(cloud, 1)
    assert np.array_equal(g.neighbors[1], [0])  # equidistant to 0 and 2
    assert np.array_equal(g.neighbors[0], [1])
    assert np.array_equal(g.neighbors[2], [1])


def test_knn_sorts_by_distance_then_index():
    pts = np.array([[0.0, 0, 0], [3.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
    cloud = PointCloud(pts, seed=None, box_side=None)
    g = knn(cloud, 3)
    assert np.array_equal(g.neighbors[0], [2, 3, 1])


def test_knn_caps_k_and_excludes_self():
    cloud = random_cloud(6, seed=2)
    g = knn(cloud, 50)
    for i, nb in enumerate(g.neighbors):
        assert len(nb) == 5
        assert i not in nb
    with pytest.raises(ValueError, match="k must be"):
        knn(cloud, 0)


def test_dense_graph():
    g = dense(5)
    assert g.n_nodes == 5
    assert g.n_edges == 20
    for i, nb in enumerate(g.neighbors):
        assert i not in nb
        assert len(nb) == 4
    g1 = dense(1)
    assert g1.n_edges == 0


def test_radius_graph_basic():
    pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [5.0, 0, 0]])
    cloud = PointCloud(pts, seed=None, box_side=None)
    g = radius(cloud, 1.5, max_neighbors=8)
    assert np.array_equal(g.neighbors[0], [1])
    assert np.array_equal(g.neighbors[1], [0])
    assert len(g.neighbors[2]) == 0


def test_radius_respects_max_neighbors():
    cloud = random_cloud(10, seed=3)
    g = radius(cloud, np.inf, max_neighbors=4)
    assert all(len(nb) == 4 for nb in g.neighbors)


def test_radius_infinite_cutoff_matches_dense():
    """Regression: the center's own inf distance must not pass `<= inf`."""
    cloud = random_cloud(17, seed=4)
    g = radius(cloud, np.inf, max_neighbors=17)
    d = dense(17)
    assert g.n_edges == d.n_edges == 17 * 16
    for i in range(17):
        assert i not in g.neighbors[i]
        assert np.array_equal(np.sort(g.neighbors[i]), np.sort(d.neighbors[i]))


def test_edge_arrays_are_center_sorted():
    cloud = random_cloud(9, seed=5)
    g = knn(cloud, 3)
    centers, sources = g.edge_arrays()
    assert centers.shape == sources.shape == (9 * 3,)
    assert np.all(np.diff(centers) >= 0)
    # neighbors store distance order; the edge enumeration re-sorts by index
    for i in range(9):
        assert np.array_equal(sources[centers == i], np.sort(g.neighbors[i]))


def test_neighbor_graph_counts():
    g = NeighborGraph(
        neighbors=(np.array([1]), np.array([0, 2]), np.array([], dtype=int)),
        kind="handmade")
    assert g.n_nodes == 3
    assert g.n_edges == 3
    assert g.kind == "handmade"


def test_save_load_round_trip(tmp_path):
    cloud = random_cloud(7, seed=11, density=0.7)
    path = tmp_path / "cloud.txt"
    save_cloud(cloud, path)
    back = load_cloud(path)
    assert np.array_equal(back.positions, cloud.positions)  # 17 digits, bit exact
    assert back.seed == cloud.seed
    assert back.box_side == pytest.approx(cloud.box_side)


def test_load_ignores_plain_comments(tmp_path):
    path = tmp_path / "cloud.txt"
    path.write_text("# a note\n0.0 1.0 2.0\n# another\n3.0 4.0 5.0\n")
    back = load_cloud(path)
    assert np.array_equal(back.positions, [[0, 1, 2], [3, 4, 5]])
    assert back.seed is None


def test_load_reports_malformed_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0.0 1.0 2.0\n3.0 4.0\n")
    with pytest.raises(ValueError, match=r"bad\.txt:2: expected three columns"):
        load_cloud(path)


def test_load_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("# nothing here\n")
    with pytest.raises(ValueError, match="no positions"):
        load_cloud(path)


# -- brute-force oracle --------------------------------------------------------


def _ordered_candidates(cloud: PointCloud):
    # For each node: other nodes ordered by (squared distance, index).
    pos = cloud.positions
    diff = pos[:, None, :] - pos[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    np.fill_diagonal(d2, np.inf)
    idx = np.arange(cloud.n_nodes)
    order = np.lexsort((np.broadcast_to(idx, d2.shape), d2), axis=1)
    return d2, order


def _knn_oracle(cloud, k):
    _, order = _ordered_candidates(cloud)
    kk = min(k, cloud.n_nodes - 1)
    return [order[i, :kk] for i in range(cloud.n_nodes)]


def _radius_oracle(cloud, r_cut, max_neighbors):
    d2, order = _ordered_candidates(cloud)
    cut = float(r_cut) ** 2 if np.isfinite(r_cut) else np.inf
    rows = []
    for i in range(cloud.n_nodes):
        row = order[i]
        row = row[(d2[i, row] <= cut) & (row != i)]
        rows.append(row[:max_neighbors])
    return rows


def _edge_arrays_oracle(rows):
    centers = [np.full(len(r), i, dtype=np.int64) for i, r in enumerate(rows)]
    sources = [np.sort(np.asarray(r, dtype=np.int64)) for r in rows]
    return np.concatenate(centers), np.concatenate(sources)


def _assert_matches(g, rows):
    assert g.n_nodes == len(rows)
    for got, want in zip(g.neighbors, rows):
        assert np.array_equal(got, want)
    centers, sources = g.edge_arrays()
    want_c, want_s = _edge_arrays_oracle(rows)
    assert np.array_equal(centers, want_c) and np.array_equal(sources, want_s)
    assert centers.dtype == sources.dtype == np.int64


def _lattice(side):
    axis = np.arange(float(side))
    pts = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1)
    return PointCloud(pts.reshape(-1, 3))


@pytest.mark.parametrize("n,k", [(2000, 32), (500, 8), (256, 4), (256, 64)])
def test_knn_equals_brute_force_on_random_clouds(n, k):
    for seed in range(3):
        cloud = random_cloud(n, seed=seed)
        _assert_matches(knn(cloud, k), _knn_oracle(cloud, k))


def test_knn_and_radius_equal_brute_force_on_a_shifted_cloud():
    base = random_cloud(300, seed=9)
    cloud = PointCloud(base.positions + 1e3)
    _assert_matches(knn(cloud, 16), _knn_oracle(cloud, 16))
    _assert_matches(radius(cloud, 1.1, 12), _radius_oracle(cloud, 1.1, 12))


@pytest.mark.parametrize("k", [1, 6, 7, 18, 19, 26, 27, 100])
def test_knn_equals_brute_force_on_lattice_ties(k):
    # shells of 6, 12, 8, 6, ... exact ties; k = 6, 18, 26 close a shell,
    # the others cut through one
    cloud = _lattice(6)
    _assert_matches(knn(cloud, k), _knn_oracle(cloud, k))


def test_knn_orders_rounding_level_ties_as_the_scan_does():
    # around each centre, the six coordinate permutations of one offset are
    # equidistant in exact arithmetic; their computed squared distances
    # differ in the last bit depending on the summation order, so only the
    # scan's own arithmetic reproduces its order
    rng = np.random.default_rng(5)
    blocks = []
    for c in range(40):
        centre = np.array([100.0 * c, 0.0, 0.0]) + rng.random(3)
        offset = rng.random(3) + 0.1
        perms = [centre + offset[list(p)] for p in itertools.permutations(range(3))]
        blocks.append(np.array([centre] + perms))
    cloud = PointCloud(np.concatenate(blocks))
    for k in (1, 2, 3, 5):
        _assert_matches(knn(cloud, k), _knn_oracle(cloud, k))


@pytest.mark.parametrize("r_cut,cap", [(1.0, 3), (1.0, 8), (2.0, 10), (2.0, 40),
                                       (0.0, 4), (np.inf, 5)])
def test_radius_equals_brute_force_on_lattice_ties(r_cut, cap):
    # r_cut = 1 and 2 put the cutoff exactly on a shell
    cloud = _lattice(5)
    _assert_matches(radius(cloud, r_cut, cap), _radius_oracle(cloud, r_cut, cap))


@pytest.mark.parametrize("k", [1, 3, 4, 5, 9, 79])
def test_knn_and_radius_exclude_self_by_index_among_duplicates(k):
    # every position four times over, in shuffled order
    rng = np.random.default_rng(3)
    pts = np.repeat(rng.random((20, 3)) * 3.0, 4, axis=0)[rng.permutation(80)]
    cloud = PointCloud(pts)
    _assert_matches(knn(cloud, k), _knn_oracle(cloud, k))
    for r_cut in (0.0, 0.6):
        _assert_matches(radius(cloud, r_cut, k), _radius_oracle(cloud, r_cut, k))
    stacked = PointCloud(np.zeros((12, 3)))
    _assert_matches(knn(stacked, k), _knn_oracle(stacked, k))


def test_knn_single_node_and_k_at_least_n_minus_one():
    one = PointCloud(np.array([[0.5, 0.5, 0.5]]))
    g = knn(one, 3)
    assert g.n_nodes == 1 and g.n_edges == 0
    _assert_matches(radius(one, np.inf, 3), [np.zeros(0, dtype=np.int64)])
    cloud = random_cloud(40, seed=12)
    for k in (39, 40, 200):
        _assert_matches(knn(cloud, k), _knn_oracle(cloud, k))
    _assert_matches(radius(cloud, np.inf, 39), _radius_oracle(cloud, np.inf, 39))


def test_radius_equals_brute_force_on_random_clouds():
    cloud = random_cloud(400, seed=13)
    for r_cut in (0.5, 1.0, 1.7):
        for cap in (1, 6, 50):
            _assert_matches(radius(cloud, r_cut, cap), _radius_oracle(cloud, r_cut, cap))


def test_radius_rejects_invalid_arguments():
    cloud = random_cloud(10, seed=3)
    with pytest.raises(ValueError, match="r_cut"):
        radius(cloud, -1.5, 8)
    with pytest.raises(ValueError, match="r_cut"):
        radius(cloud, np.nan, 8)
    with pytest.raises(ValueError, match="max_neighbors"):
        radius(cloud, 1.5, -1)
    with pytest.raises(ValueError, match="max_neighbors"):
        radius(cloud, 1.5, 0)


def test_dense_equals_per_row_delete():
    for n in (0, 1, 2, 7):
        rows = [np.delete(np.arange(n), i) for i in range(n)]
        g = dense(n)
        assert g.n_nodes == n and g.n_edges == n * max(n - 1, 0)
        for got, want in zip(g.neighbors, rows):
            assert np.array_equal(got, want)
        if n:
            _assert_matches(g, rows)


def test_search_scales_without_the_quadratic_scan():
    import tracemalloc

    cloud = random_cloud(20000, seed=21)
    tracemalloc.start()
    try:
        g = knn(cloud, 32)
        # a cap far above any ball's occupancy must not size the work
        gr = radius(cloud, 1.0, 10**9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the N x N x 3 scan would need about 13 GB here
    assert peak < 200e6
    assert g.n_edges == 20000 * 32
    pos = cloud.positions
    idx = np.arange(cloud.n_nodes)
    for i in np.random.default_rng(4).choice(cloud.n_nodes, 50, replace=False):
        diff = pos[i] - pos
        d2 = np.einsum("ij,ij->i", diff, diff)
        d2[i] = np.inf
        order = np.lexsort((idx, d2))
        assert np.array_equal(g.neighbors[i], order[:32])
        assert np.array_equal(gr.neighbors[i], order[d2[order] <= 1.0])
