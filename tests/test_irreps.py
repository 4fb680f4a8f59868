"""Irrep tensors and couplings: layouts, CG products, calibration, recoupling."""

import numpy as np
import pytest

from oracles import PathSpec, cg_tp, project, real_cg, tensor_power_project, wigner6j_tp
from sixjconv.angular import real_cg_table, triangle_ok
from sixjconv.harmonics import Rotation, solid_sh, wigner_d
from sixjconv.irreps import (
    IrrepTensor,
    IrrepsLayout,
    KappaTable,
    calibrate_pair_constants,
    random_tensor,
)


def _rng(key):
    return np.random.default_rng(np.random.Philox(key=key))


# -- layouts and tensors -----------------------------------------------------


def test_layout_geometry():
    lay = IrrepsLayout([(0, 3), (1, 3), (2, 3)])
    assert lay.dim == 3 * (1 + 3 + 5)
    assert lay.offsets() == [0, 3, 12]
    assert lay.degrees == (0, 1, 2)
    assert lay.index_of_degree(2) == 2


def test_layout_duplicate_degree_lookup_fails():
    lay = IrrepsLayout([(1, 2), (1, 2)])
    with pytest.raises(KeyError, match="ambiguous"):
        lay.index_of_degree(1)
    with pytest.raises(KeyError, match="no degree"):
        lay.index_of_degree(3)


def test_tensor_blocks_are_views():
    t = random_tensor([(0, 2), (1, 2)], n=4, seed=1)
    blk = t.block(1)
    assert blk.shape == (4, 2, 3)
    blk[0, 0, 0] = 99.0
    assert t.values[0, t.layout.offsets()[1]] == 99.0
    assert t.degree_block(1) is not None
    assert np.shares_memory(t.degree_block(1), t.values)


def test_from_blocks_round_trip():
    t = random_tensor([(0, 2), (2, 2)], n=3, seed=2)
    u = IrrepTensor.from_blocks(t.layout.entries, [t.block(0), t.block(1)])
    assert np.array_equal(u.values, t.values)
    assert u.layout.entries == t.layout.entries


def test_random_tensor_philox_determinism():
    a = random_tensor([(0, 1), (1, 1)], n=5, seed=3)
    b = random_tensor([(0, 1), (1, 1)], n=5, seed=3)
    c = random_tensor([(0, 1), (1, 1)], n=5, seed=4)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_tensor_rotate_matches_wigner_d():
    rng = _rng(6)
    t = random_tensor([(0, 2), (1, 2), (2, 2)], n=3, seed=6)
    rot = Rotation.random(rng)
    r = t.rotate(rot)
    for i, (l, _) in enumerate(t.layout.entries):
        d = wigner_d(l, rot).matrix
        assert r.block(i) == pytest.approx(t.block(i) @ d.T, abs=1e-12)


# -- coupling tables ---------------------------------------------------------


def test_pathspec_rejects_triangle_violation():
    with pytest.raises(ValueError, match="triangle"):
        PathSpec(1, 1, 5)


def test_cg_tp_matches_scalar_reference():
    """Brute-force the product with scalar coefficients, channel by channel."""
    a = random_tensor([(1, 2), (2, 2)], n=2, seed=7)
    b = random_tensor([(1, 2)], n=2, seed=8)
    paths = [PathSpec(1, 1, 2, weight=0.7), PathSpec(2, 1, 1)]
    got = cg_tp(a, b, paths)
    assert got.layout.entries == ((2, 2), (1, 2))
    for pi, path in enumerate(paths):
        ba, bb = a.degree_block(path.l1), b.degree_block(path.l2)
        want = np.zeros((2, 2, 2 * path.l_out + 1))
        for n in range(2):
            for c in range(2):
                for m3 in range(-path.l_out, path.l_out + 1):
                    acc = 0.0
                    for m1 in range(-path.l1, path.l1 + 1):
                        for m2 in range(-path.l2, path.l2 + 1):
                            acc += (real_cg(path.l1, m1, path.l2, m2,
                                            path.l_out, m3)
                                    * ba[n, c, m1 + path.l1]
                                    * bb[n, c, m2 + path.l2])
                    want[n, c, m3 + path.l_out] = path.weight * acc
        assert got.block(pi) == pytest.approx(want, abs=1e-13)


def test_cg_tp_broadcasts_single_channel():
    a = random_tensor([(1, 3)], n=2, seed=9)
    b = random_tensor([(1, 1)], n=2, seed=10)
    got = cg_tp(a, b, [PathSpec(1, 1, 2)])
    assert got.block(0).shape == (2, 3, 5)
    wide = IrrepTensor.from_blocks(
        [(1, 3)], [np.broadcast_to(b.block(0), (2, 3, 3)).copy()])
    assert got.block(0) == pytest.approx(cg_tp(a, wide, [PathSpec(1, 1, 2)]).block(0))


def test_cg_tp_rejects_mismatches():
    a = random_tensor([(1, 3)], n=2, seed=11)
    b = random_tensor([(1, 2)], n=2, seed=12)
    with pytest.raises(ValueError, match="channel mismatch"):
        cg_tp(a, b, [PathSpec(1, 1, 2)])
    c = random_tensor([(1, 3)], n=3, seed=13)
    with pytest.raises(ValueError, match="node counts"):
        cg_tp(a, c, [PathSpec(1, 1, 2)])


def test_project_restricts_to_degree():
    t = random_tensor([(0, 2), (1, 2), (2, 2)], n=3, seed=14)
    p = project(t, 1)
    assert p.layout.entries == ((1, 2),)
    assert np.array_equal(p.block(0), t.block(1))
    assert project(t, 5).layout.entries == ()


# -- tensor powers and pair calibration --------------------------------------


def test_tensor_power_requires_top_projection():
    with pytest.raises(ValueError, match="top projection"):
        tensor_power_project((1.0, 0, 0), 3, 2)
    with pytest.raises(ValueError, match="L must be"):
        tensor_power_project((1.0, 0, 0), 0, 0)


def test_tensor_power_degree1_is_identity():
    v = np.array([0.3, -1.2, 2.0])
    assert tensor_power_project(v, 1, 1) == pytest.approx(
        solid_sh(1, v).block(1), rel=1e-14)


def test_tensor_power_degree2_proportional_to_raw():
    got = tensor_power_project(np.array([1.0, 2.0, 3.0]), 2, 2)
    raw = np.array([2.0, 6.0, 13.0, 3.0, -3.0])
    ratios = got / raw
    assert np.all(np.abs(ratios - ratios[2]) <= 1e-10 * abs(ratios[2]))


def test_tensor_power_constant_is_direction_independent():
    rng = _rng(15)
    for L in range(1, 7):
        ratios = []
        for _ in range(100):
            v = rng.standard_normal(3)
            got = tensor_power_project(v, L, L)
            raw = solid_sh(L, v).block(L)
            m = np.argmax(np.abs(raw))
            ratios.append(got[m] / raw[m])
        ratios = np.array(ratios)
        assert np.all(np.abs(ratios - ratios[0]) <= 1e-10 * abs(ratios[0]))


def test_tensor_power_batch_matches_single():
    pts = _rng(16).standard_normal((6, 3))
    batch = tensor_power_project(pts, 3, 3)
    for i in range(6):
        assert batch[i] == pytest.approx(tensor_power_project(pts[i], 3, 3))


def _all_binary_trees(lo, hi):
    """Full binary coupling trees over leaves lo..hi-1, as nested tuples."""
    if hi - lo == 1:
        return [lo]
    trees = []
    for cut in range(lo + 1, hi):
        for left in _all_binary_trees(lo, cut):
            for right in _all_binary_trees(cut, hi):
                trees.append((left, right))
    return trees


def _couple_tree(tree, sh1):
    # returns (degree, block) with every internal node at the top coupling
    if isinstance(tree, int):
        return 1, sh1[tree]
    (la, va), (lb, vb) = _couple_tree(tree[0], sh1), _couple_tree(tree[1], sh1)
    lo = la + lb
    w = real_cg_table(la, lb, lo).reshape(-1, 2 * lo + 1)
    return lo, (va[:, None] * vb[None, :]).reshape(-1) @ w


def test_top_projection_is_coupling_order_invariant():
    """All binary trees over k <= 4 distinct vectors give one top block."""
    rng = _rng(17)
    for k in (2, 3, 4):
        vecs = rng.standard_normal((k, 3))
        sh1 = [solid_sh(1, vecs[i], mode="normalized").block(1) for i in range(k)]
        results = []
        for tree in _all_binary_trees(0, k):
            l, blk = _couple_tree(tree, sh1)
            assert l == k
            results.append(blk)
        scale = np.abs(results[0]).max()
        for blk in results[1:]:
            assert np.abs(blk - results[0]).max() <= 1e-10 * scale


def test_kappa_table_properties():
    kt = calibrate_pair_constants(4)
    assert isinstance(kt, KappaTable)
    assert kt.l_max == 4
    seen = 0
    for (u, l), val in kt.items():
        v = l - u
        assert triangle_ok(u, v, l)
        assert val != 0.0
        assert kt.kappa(u, v, l) == val
        assert kt.kappa(v, u, l) == pytest.approx(val, rel=1e-12)
        seen += 1
    assert seen > 0
    with pytest.raises(KeyError, match="beyond the table's l_max"):
        kt.kappa(2, 3, 5)
    with pytest.raises(KeyError, match="maximal couplings"):
        kt.kappa(2, 2, 3)


def test_kappa_is_the_same_point_coupling_constant():
    """[sh_u(r) x sh_v(r)]^(l) = kappa(u,v->l) sh_l(r) for every key up to J_max."""
    kt = calibrate_pair_constants(12)
    rng = _rng(18)
    for _ in range(5):
        r = rng.standard_normal(3)
        tab = solid_sh(12, r, mode="normalized")
        for (u, l), val in kt.items():
            zu, zv = tab.block(u), tab.block(l - u)
            w = real_cg_table(u, l - u, l).reshape(-1, 2 * l + 1)
            got = (zu[:, None] * zv[None, :]).reshape(-1) @ w
            want = val * tab.block(l)
            assert got == pytest.approx(want, abs=1e-12 * max(1.0, np.abs(want).max()))


def test_calibration_is_deterministic():
    a, b = calibrate_pair_constants(3), calibrate_pair_constants(3)
    assert dict(a.items()) == dict(b.items())


# -- recoupled products ------------------------------------------------------


def _pure(l, n, ch, seed):
    return random_tensor([(l, ch)], n, seed=seed)


def test_wigner6j_tp_matches_direct_association():
    """[A x [B x C]^(j)]^(l) computed directly vs recoupled from (A x B)."""
    a_l, b_l, c_l, j, l_out = 1, 1, 1, 2, 1
    n, ch = 3, 2
    a, b, c = _pure(a_l, n, ch, 20), _pure(b_l, n, ch, 21), _pure(c_l, n, ch, 22)
    bc = cg_tp(b, c, [PathSpec(b_l, c_l, j)])
    direct = cg_tp(a, bc, [PathSpec(a_l, j, l_out)])
    ab = cg_tp(a, b, [PathSpec(a_l, b_l, d) for d in range(abs(a_l - b_l), a_l + b_l + 1)])
    recoupled = wigner6j_tp(ab, c, l_out, j, (a_l, b_l))
    assert recoupled.block(0) == pytest.approx(direct.block(0), abs=1e-12)


def test_wigner6j_tp_both_association_orders_sampled():
    rng = _rng(23)
    done = 0
    while done < 12:
        a_l, b_l, c_l = (int(x) for x in rng.integers(0, 3, size=3))
        j = int(rng.integers(abs(b_l - c_l), b_l + c_l + 1))
        lo_opts = [l for l in range(abs(a_l - j), a_l + j + 1)]
        l_out = int(lo_opts[rng.integers(0, len(lo_opts))])
        a, b, c = _pure(a_l, 2, 2, 30 + done), _pure(b_l, 2, 2, 60 + done), _pure(c_l, 2, 2, 90 + done)
        bc = cg_tp(b, c, [PathSpec(b_l, c_l, j)])
        direct = cg_tp(a, bc, [PathSpec(a_l, j, l_out)])
        ab = cg_tp(a, b, [PathSpec(a_l, b_l, d)
                          for d in range(abs(a_l - b_l), a_l + b_l + 1)])
        recoupled = wigner6j_tp(ab, c, l_out, j, (a_l, b_l))
        scale = max(np.abs(direct.block(0)).max(), 1e-30)
        assert np.abs(recoupled.block(0) - direct.block(0)).max() <= 1e-10 * scale
        done += 1


def test_wigner6j_tp_scalar_c_degenerates_to_projection():
    a, b = _pure(1, 2, 2, 24), _pure(2, 2, 2, 25)
    c = _pure(0, 2, 2, 26)
    ab = cg_tp(a, b, [PathSpec(1, 2, d) for d in (1, 2, 3)])
    got = wigner6j_tp(ab, c, 2, 2, (1, 2))
    want = project(ab, 2).block(0) * c.block(0)
    ratio = got.block(0) / want
    assert np.allclose(ratio, ratio.flat[0], rtol=1e-10)


def test_wigner6j_tp_triangle_incompatible_gives_zero():
    a, b, c = _pure(1, 2, 1, 27), _pure(1, 2, 1, 28), _pure(1, 2, 1, 29)
    ab = cg_tp(a, b, [PathSpec(1, 1, d) for d in (0, 1, 2)])
    out = wigner6j_tp(ab, c, 2, 0, (1, 1))  # j=0 forces l_out = a = 1
    assert np.all(out.block(0) == 0.0)
    assert out.layout.entries == ((2, 1),)


def test_wigner6j_tp_validates_operands():
    a, b = _pure(1, 2, 1, 31), _pure(1, 2, 1, 32)
    c2 = random_tensor([(0, 1), (1, 1)], 2, seed=33)
    ab = cg_tp(a, b, [PathSpec(1, 1, d) for d in (0, 1, 2)])
    with pytest.raises(ValueError, match="pure-degree"):
        wigner6j_tp(ab, c2, 1, 1, (1, 1))
    partial = cg_tp(a, b, [PathSpec(1, 1, 2)])
    with pytest.raises(ValueError, match="do not cover"):
        wigner6j_tp(partial, _pure(1, 2, 1, 34), 1, 1, (1, 1))
    with pytest.raises(ValueError, match="node counts"):
        wigner6j_tp(ab, _pure(1, 3, 1, 35), 1, 1, (1, 1))


def test_wigner6j_tp_is_rotation_equivariant():
    rng = _rng(36)
    a, b, c = _pure(1, 3, 2, 37), _pure(2, 3, 2, 38), _pure(1, 3, 2, 39)
    ab = cg_tp(a, b, [PathSpec(1, 2, d) for d in (1, 2, 3)])
    rot = Rotation.random(rng)
    base = wigner6j_tp(ab, c, 2, 2, (1, 2))
    ab_r = cg_tp(a.rotate(rot), b.rotate(rot),
                 [PathSpec(1, 2, d) for d in (1, 2, 3)])
    turned = wigner6j_tp(ab_r, c.rotate(rot), 2, 2, (1, 2))
    assert turned.block(0) == pytest.approx(base.rotate(rot).block(0), abs=1e-9)
