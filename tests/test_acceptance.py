"""Acceptance gate: one test per shipped guarantee, at its stated tolerance.

Each test appends a one-line summary (tolerance met, measured numbers) to
the terminal report; the per-test PASS/FAIL line of ``pytest -v`` is the
pass/fail record. The scaling-trend test shells out to the installed CLI
so the timings go through the same entry point users run.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import acceptance_lines
from oracles import PathSpec, cg_tp, wigner6j_tp
from sixjconv.angular import sixj_oracle, triangle_ok, wigner3j, wigner6j
from sixjconv.bench_cli import _parse_csv
from sixjconv.conv import ConvConfig, edge_conv, moments_conv, node_conv
from sixjconv.graph import dense, knn, random_cloud
from sixjconv.harmonics import Rotation, solid_sh


def _rng(key):
    return np.random.default_rng(np.random.Philox(key=key))


def _feat(n, lmax, ch, seed):
    from sixjconv.irreps import random_tensor
    return random_tensor([(l, ch) for l in range(lmax + 1)], n, seed=seed)


def _rel(a, b, floor=1e-300):
    return float(np.abs(a - b).max() / max(np.abs(b).max(), floor))


def test_01_route_equivalence_sweep():
    """edge_conv and node_conv agree to 1e-10 over seeds x N x k x L_max."""
    t0 = time.perf_counter()
    worst = 0.0
    runs = 0
    for seed in range(20):
        for n in (16, 32, 64):
            cloud = random_cloud(n, seed=seed)
            for lmax in (1, 2, 3):
                h = _feat(n, lmax, 4, seed=1000 + seed)
                cfg = ConvConfig(l_max=lmax, channels=4)
                for k in (4, 8, "dense"):
                    g = dense(n) if k == "dense" else knn(cloud, k)
                    e = edge_conv(g, cloud.positions, h, cfg).output.values
                    nd = node_conv(g, cloud.positions, h, cfg).output.values
                    worst = max(worst, _rel(nd, e))
                    runs += 1
    assert runs == 20 * 3 * 3 * 3
    assert worst < 1e-10
    acceptance_lines.append(
        f"equivalence sweep: {runs} configs, max rel err {worst:.3e} "
        f"(tol 1e-10, {time.perf_counter() - t0:.1f}s)")


def test_02_equivariance_and_translation():
    """Both routes: 50 rotations within 1e-9; translation invariance 1e-9."""
    t0 = time.perf_counter()
    n, lmax, ch = 32, 2, 4
    cloud = random_cloud(n, seed=2)
    g = knn(cloud, 8)
    h = _feat(n, lmax, ch, seed=1002)
    cfg = ConvConfig(l_max=lmax, channels=ch)
    rng = _rng(2026)
    worst_rot = 0.0
    for route in (edge_conv, node_conv):
        base = route(g, cloud.positions, h, cfg).output
        scale = np.abs(base.values).max()
        for _ in range(50):
            rot = Rotation.random(rng)
            turned = route(g, rot.apply(cloud.positions),
                           h.rotate(rot), cfg).output.values
            err = np.abs(turned - base.rotate(rot).values).max() / scale
            worst_rot = max(worst_rot, err)
        shift = rng.standard_normal(3) * 5.0
        moved = route(g, cloud.positions + shift, h, cfg).output.values
        err_t = np.abs(moved - base.values).max() / scale
        assert err_t < 1e-9
    assert worst_rot < 1e-9
    acceptance_lines.append(
        f"equivariance: 50 rotations x 2 routes, worst rel err {worst_rot:.3e} "
        f"(tol 1e-9, {time.perf_counter() - t0:.1f}s)")


def test_03_binomial_local_expansion():
    """Expansion equals solid_sh(l, r_i - r_j) to 1e-10 for l <= 6."""
    from sixjconv.conv import binomial_expand_sh
    t0 = time.perf_counter()
    rng = _rng(3)
    worst = 0.0
    for _ in range(100):
        ri, rj = rng.standard_normal(3), rng.standard_normal(3)
        for l in range(7):
            got = binomial_expand_sh(l, ri, rj)
            want = solid_sh(l, ri - rj).block(l)
            worst = max(worst, _rel(got, want, floor=1e-30))
    assert worst < 1e-10
    acceptance_lines.append(
        f"binomial expansion: l<=6, 100 pairs, max rel err {worst:.3e} "
        f"(tol 1e-10, {time.perf_counter() - t0:.1f}s)")


def test_04_recoupling_identity():
    """Direct vs 6j-recoupled association for all a,b,c <= 3, admissible (j,l)."""
    from sixjconv.irreps import random_tensor
    t0 = time.perf_counter()
    worst = 0.0
    cases = 0
    for a in range(4):
        for b in range(4):
            for c in range(4):
                ta = random_tensor([(a, 2)], 2, seed=10 * a + 1)
                tb = random_tensor([(b, 2)], 2, seed=10 * b + 2)
                tc = random_tensor([(c, 2)], 2, seed=10 * c + 3)
                ab = cg_tp(ta, tb, [PathSpec(a, b, d)
                                    for d in range(abs(a - b), a + b + 1)])
                for j in range(abs(b - c), b + c + 1):
                    bc = cg_tp(tb, tc, [PathSpec(b, c, j)])
                    for l in range(abs(a - j), a + j + 1):
                        direct = cg_tp(ta, bc, [PathSpec(a, j, l)]).block(0)
                        recoup = wigner6j_tp(ab, tc, l, j, (a, b)).block(0)
                        scale = max(np.abs(direct).max(), 1e-12)
                        worst = max(worst, float(np.abs(recoup - direct).max() / scale))
                        cases += 1
    assert worst < 1e-10
    acceptance_lines.append(
        f"recoupling identity: {cases} (a,b,c,j,l) cases, max rel err {worst:.3e} "
        f"(tol 1e-10, {time.perf_counter() - t0:.1f}s)")


def test_05_angular_oracles_and_orthogonality():
    """6j vs four-3j contraction for j <= 4; 3j/6j orthogonality for j <= 6."""
    t0 = time.perf_counter()
    worst6 = 0.0
    keys = 0
    for j1 in range(5):
        for j2 in range(5):
            for j3 in range(abs(j1 - j2), min(j1 + j2, 4) + 1):
                for j4 in range(5):
                    for j5 in range(abs(j4 - j3), min(j4 + j3, 4) + 1):
                        for j6 in range(abs(j1 - j5), min(j1 + j5, 4) + 1):
                            if not triangle_ok(j4, j2, j6):
                                continue
                            key = (j1, j2, j3, j4, j5, j6)
                            worst6 = max(worst6, abs(wigner6j(key) - sixj_oracle(key)))
                            keys += 1
    assert worst6 < 1e-12

    # 3j orthogonality: per (j1, j2), the flattened (m1, m2) x (j3, m3)
    # matrix has gram diag(1/(2 j3 + 1)); off-diagonals vanish.
    worst3o = 0.0
    for j1 in range(7):
        for j2 in range(7):
            j3s = list(range(abs(j1 - j2), j1 + j2 + 1))
            cols = [(j3, m3) for j3 in j3s for m3 in range(-j3, j3 + 1)]
            mat = np.zeros(((2 * j1 + 1) * (2 * j2 + 1), len(cols)))
            for r1, m1 in enumerate(range(-j1, j1 + 1)):
                for r2, m2 in enumerate(range(-j2, j2 + 1)):
                    row = r1 * (2 * j2 + 1) + r2
                    for ci, (j3, m3) in enumerate(cols):
                        if m1 + m2 + m3 == 0:
                            mat[row, ci] = wigner3j((j1, j2, j3, m1, m2, m3))
            gram = mat.T @ mat
            want = np.diag([1.0 / (2 * j3 + 1) for j3, _ in cols])
            worst3o = max(worst3o, float(np.abs(gram - want).max()))
    assert worst3o < 1e-12

    # 6j orthogonality: sum_x (2x+1) {a b x; c d p}{a b x; c d q}
    #                   = delta_pq / (2p+1)
    worst6o = 0.0
    for a in range(7):
        for b in range(7):
            for c in range(7):
                for d in range(7):
                    xs = list(range(max(abs(a - b), abs(c - d)),
                                    min(a + b, c + d) + 1))
                    ps = [p for p in range(max(abs(a - d), abs(b - c)),
                                           min(a + d, b + c) + 1)]
                    if not xs or not ps:
                        continue
                    v = np.array([[wigner6j((a, b, x, c, d, p)) for p in ps]
                                  for x in xs])
                    wx = np.array([2 * x + 1 for x in xs], dtype=float)
                    gram = v.T @ (wx[:, None] * v)
                    want = np.diag([1.0 / (2 * p + 1) for p in ps])
                    worst6o = max(worst6o, float(np.abs(gram - want).max()))
    assert worst6o < 1e-12
    acceptance_lines.append(
        f"angular oracles: {keys} 6j keys vs contraction (err {worst6:.2e}), "
        f"3j orthogonality err {worst3o:.2e}, 6j orthogonality err {worst6o:.2e} "
        f"(tol 1e-12, {time.perf_counter() - t0:.1f}s)")


def test_06_complexity_counters():
    """Node tp_count: exact k-independence at N=256; affine in N at fixed k."""
    t0 = time.perf_counter()
    cfg = ConvConfig(l_max=2, channels=4)
    cloud = random_cloud(256, seed=6)
    h = _feat(256, 2, 4, seed=1006)
    tps = []
    for k in (4, 16, 64):
        g = knn(cloud, k)
        tps.append(node_conv(g, cloud.positions, h, cfg).counters.tp_count)
    assert tps[0] == tps[1] == tps[2]

    per_n = []
    ns = (64, 128, 192, 256)
    for n in ns:
        cloud_n = random_cloud(n, seed=6)
        h_n = _feat(n, 2, 4, seed=1006)
        g = knn(cloud_n, 16)
        per_n.append(node_conv(g, cloud_n.positions, h_n, cfg).counters.tp_count)
    second_diff = np.diff(per_n, n=2)
    assert np.all(second_diff == 0)  # exact integers, exactly affine
    acceptance_lines.append(
        f"complexity counters: tp_count {tps[0]} at every k in (4,16,64); "
        f"N sweep {per_n} affine (zero second difference, "
        f"{time.perf_counter() - t0:.1f}s)")


def _bench(tmp_path, name, *args):
    out = tmp_path / name
    cmd = [sys.executable, "-m", "sixjconv.bench_cli", "bench",
           "--lmax", "3", "--channels", "8", "--repeats", "3",
           "--warmups", "1", "--threads", "1", "--seed", "0",
           "--out", str(out), *args]
    res = subprocess.run(cmd, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return {int(r["n"]): r["median_s"] for r in _parse_csv(out)}


def _slope(times):
    ns = np.array(sorted(times), dtype=float)
    ts = np.array([times[int(n)] for n in ns])
    return float(np.polyfit(np.log(ns), np.log(ts), 1)[0])


def test_07_scaling_trends(tmp_path):
    """Node route ~N, dense edge route ~N^2, and node is faster at N=1000.

    Trends only; absolute numbers are hardware-specific. Timings run
    single-threaded through the CLI subprocess so thread pinning applies.
    """
    t0 = time.perf_counter()
    sweep = "250,500,1000,2000"
    node = _bench(tmp_path, "node.csv", "--mode", "node", "--n", sweep, "--k", "32")
    edge_dense = _bench(tmp_path, "edge_dense.csv",
                        "--mode", "edge", "--n", sweep, "--k", "dense")
    edge_k32 = _bench(tmp_path, "edge_k32.csv",
                      "--mode", "edge", "--n", "1000", "--k", "32")
    node_slope = _slope(node)
    edge_slope = _slope(edge_dense)
    assert 0.7 <= node_slope <= 1.3
    assert 1.7 <= edge_slope <= 2.3
    factor_same_graph = edge_k32[1000] / node[1000]
    factor_vs_dense = edge_dense[1000] / node[1000]
    assert factor_same_graph >= 2.0
    acceptance_lines.append(
        f"scaling: node slope {node_slope:.2f} (want 1.0+-0.3), dense edge slope "
        f"{edge_slope:.2f} (want 2.0+-0.3); node vs edge at N=1000, k=32: "
        f"{factor_same_graph:.1f}x faster (>=2 required; vs dense edge: "
        f"{factor_vs_dense:.0f}x), {time.perf_counter() - t0:.0f}s")


def test_08_global_moments_equivalence():
    """moments_conv equals node_conv on the dense graph to 1e-10 at N=32."""
    t0 = time.perf_counter()
    n, lmax, ch = 32, 2, 4
    cloud = random_cloud(n, seed=8)
    h = _feat(n, lmax, ch, seed=1008)
    cfg = ConvConfig(l_max=lmax, channels=ch)
    want = node_conv(dense(n), cloud.positions, h, cfg).output.values
    got = moments_conv(cloud.positions, h, cfg).output.values
    err = _rel(got, want)
    assert err < 1e-10
    acceptance_lines.append(
        f"global moments: dense-route rel err {err:.3e} "
        f"(tol 1e-10, {time.perf_counter() - t0:.1f}s)")
