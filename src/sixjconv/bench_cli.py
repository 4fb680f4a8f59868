"""Command-line verification, benchmarking, and report tooling.

Subcommands:

* ``verify``: fast self-checks grouped into named suites; one PASS/FAIL
  line per suite and the first counterexample when something breaks.
* ``bench``: times edge_conv / node_conv over point-cloud sweeps and emits
  CSV rows ``mode,n,k,lmax,channels,repeats,median_s,tp_count,add_count,seed``.
  A configuration that runs out of memory becomes an ERROR row (median_s =
  "ERROR") and the sweep continues. ``--mode both`` first cross-checks both
  routes on each configuration and refuses to emit timings on a mismatch.
* ``report``: reads bench CSV, fits log-log runtime slopes per
  (mode, k, lmax, channels) group and prints edge/node speedup ratios.

Exit codes: 0 success, 1 verification/equivalence failure, 2 usage or
parse errors.

Threads: BLAS pools are pinned through environment variables, which only
works before numpy is first imported. The package loads its submodules
lazily, so the console entry point reaches this module with numpy still
unloaded; the ``--threads`` value (default 1) is applied at import time by
scanning argv.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import statistics
import sys
import tempfile
import time

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _pin_threads_from_argv() -> None:
    # must run before numpy's first import; harmless no-op afterwards
    if "numpy" in sys.modules:
        return
    n = "1"
    argv = sys.argv[1:]
    for i, a in enumerate(argv):
        if a == "--threads" and i + 1 < len(argv):
            n = argv[i + 1]
        elif a.startswith("--threads="):
            n = a.split("=", 1)[1]
    if n.isdigit() and int(n) >= 1:
        for var in _THREAD_VARS:
            os.environ[var] = n


_pin_threads_from_argv()

import numpy as np  # noqa: E402  (after thread pinning on purpose)

from . import angular, conv, graph, harmonics, irreps  # noqa: E402

CSV_FIELDS = (
    "mode", "n", "k", "lmax", "channels", "repeats",
    "median_s", "tp_count", "add_count", "seed",
)
EQUIV_TOL = 1e-10


# ---------------------------------------------------------------------------
# verify suites


def _rel_err(got, want) -> float:
    scale = np.max(np.abs(want)) + 1e-300
    return float(np.max(np.abs(np.asarray(got) - np.asarray(want))) / scale)


def _suite_angular(rng) -> str:
    # 3j orthogonality over all degrees <= 2
    for j1 in range(3):
        for j2 in range(3):
            js = range(abs(j1 - j2), j1 + j2 + 1)
            for j3 in js:
                for j3p in js:
                    for m3 in range(-min(j3, j3p), min(j3, j3p) + 1):
                        acc = 0.0
                        for m1 in range(-j1, j1 + 1):
                            m2 = -m1 - m3
                            if abs(m2) > j2:
                                continue
                            acc += (
                                (2 * j3 + 1)
                                * angular.wigner3j((j1, j2, j3, m1, m2, m3))
                                * angular.wigner3j((j1, j2, j3p, m1, m2, m3))
                            )
                        want = 1.0 if j3 == j3p else 0.0
                        if abs(acc - want) > 1e-12:
                            return (
                                f"3j orthogonality off by {abs(acc - want):.2e} "
                                f"at (j1,j2,j3,j3',m3)=({j1},{j2},{j3},{j3p},{m3})"
                            )
    # single-sum 6j against the independent four-3j contraction
    for _ in range(20):
        j1, j2, j4, j5 = (int(rng.integers(0, 4)) for _ in range(4))
        j3s = [j for j in range(abs(j1 - j2), j1 + j2 + 1)]
        j6s = [j for j in range(abs(j1 - j5), j1 + j5 + 1)]
        j3 = int(rng.choice(j3s))
        j6 = int(rng.choice(j6s))
        key = (j1, j2, j3, j4, j5, j6)
        a = angular.wigner6j(key)
        b = angular.sixj_oracle(key)
        if abs(a - b) > 1e-12:
            return f"6j {key}: closed form {a!r} vs contraction oracle {b!r}"
    # degree-1 coupling table is the antisymmetric (cross-product) map
    w = angular.real_cg_table(1, 1, 1)
    if _rel_err(w, -np.swapaxes(w, 0, 1)) > 1e-12:
        return "real coupling table (1,1,1) is not antisymmetric"
    return ""


def _suite_harmonics(rng) -> str:
    pts = rng.standard_normal((12, 3))
    t1 = harmonics.solid_sh(4, pts, mode="raw")
    t2 = harmonics.solid_sh(4, 2.0 * pts, mode="raw")
    for l in range(5):
        err = _rel_err(t2.blocks[l], 2.0 ** l * t1.blocks[l])
        if err > 1e-13:
            return f"homogeneity broken at l={l}: rel err {err:.2e}"
    rot = harmonics.Rotation.random(rng)
    for l in range(4):
        d = harmonics.wigner_d(l, rot).matrix
        err = _rel_err(d @ d.T, np.eye(2 * l + 1))
        if err > 1e-12:
            return f"D({l}) not orthogonal: rel err {err:.2e}"
        tn = harmonics.solid_sh(l, pts, mode="normalized")
        tr = harmonics.solid_sh(l, rot.apply(pts), mode="normalized")
        err = _rel_err(tn.blocks[l] @ d.T, tr.blocks[l])
        if err > 1e-12:
            return f"sh(R r) != D sh(r) at l={l}: rel err {err:.2e}"
    return ""


def _suite_recoupling(rng) -> str:
    """Re-association of a triple product through 6j coefficients."""

    def couple(x, y, l1, l2, l3):
        w = angular.real_cg_table(l1, l2, l3).reshape(-1, 2 * l3 + 1)
        return (x[:, None] * y[None, :]).reshape(-1) @ w

    for _ in range(12):
        a, b, c = (int(rng.integers(0, 3)) for _ in range(3))
        xa = rng.standard_normal(2 * a + 1)
        xb = rng.standard_normal(2 * b + 1)
        xc = rng.standard_normal(2 * c + 1)
        for j in range(abs(b - c), b + c + 1):
            bc = couple(xb, xc, b, c, j)
            for l in range(abs(a - j), a + j + 1):
                lhs = couple(xa, bc, a, j, l)
                rhs = np.zeros(2 * l + 1)
                for d in range(abs(a - b), a + b + 1):
                    sixj = angular.wigner6j((a, b, d, c, l, j))
                    if sixj == 0.0:
                        continue
                    ab = couple(xa, xb, a, b, d)
                    term = couple(ab, xc, d, c, l)
                    sign = -1.0 if (a + b + c + l) % 2 else 1.0
                    rhs += sign * math.sqrt((2 * d + 1) * (2 * j + 1)) * sixj * term
                scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)), 1e-30)
                if np.max(np.abs(lhs - rhs)) / scale > 1e-10:
                    return (
                        f"recoupling identity off by "
                        f"{np.max(np.abs(lhs - rhs)) / scale:.2e} at "
                        f"(a,b,c)=({a},{b},{c}), j={j}, l={l}"
                    )
    return ""


def _suite_binomial(rng) -> str:
    for l in range(5):
        for _ in range(3):
            ri = rng.standard_normal(3)
            rj = rng.standard_normal(3)
            got = conv.binomial_expand_sh(l, ri, rj)
            want = harmonics.solid_sh(l, ri - rj, mode="raw").block(l)
            err = _rel_err(got, want)
            if err > 1e-10:
                return (
                    f"binomial expansion off by {err:.2e} at l={l}, "
                    f"r_i={ri.round(3).tolist()}, r_j={rj.round(3).tolist()}"
                )
    return ""


def _suite_equivalence(rng, n=10, k=3, lmax=2) -> str:
    ch = 2
    cloud = graph.random_cloud(n, seed=2024)
    g = graph.knn(cloud, k)
    h = irreps.random_tensor([(l, ch) for l in range(lmax + 1)], n, seed=7)
    alpha = conv.AttentionWeights.from_edges(rng.standard_normal(g.n_edges))
    for mode in ("raw-solid", "unit-Y"):
        cfg = conv.ConvConfig(l_max=lmax, channels=ch, mode=mode)
        for aw, label in ((None, "uniform"), (alpha, "weighted")):
            oe = conv.edge_conv(g, cloud.positions, h, cfg, alpha=aw)
            on = conv.node_conv(g, cloud.positions, h, cfg, alpha=aw)
            err = _rel_err(on.output.values, oe.output.values)
            if err > EQUIV_TOL:
                return (
                    f"edge vs node ({mode}, {label}) rel err {err:.2e} "
                    f"at n={n} k={k} lmax={lmax} cloud seed 2024"
                )
    # dense weights take the dense stage 2 on the node route
    heads = conv.AttentionWeights.from_dense(rng.uniform(0.5, 1.5, (n, n, ch)))
    for mode in ("raw-solid", "unit-Y"):
        cfg = conv.ConvConfig(l_max=lmax, channels=ch, mode=mode)
        oe = conv.edge_conv(graph.dense(n), cloud.positions, h, cfg, alpha=heads)
        on = conv.attention_node_conv(cloud.positions, h, heads, cfg)
        err = _rel_err(on.output.values, oe.output.values)
        if err > EQUIV_TOL:
            return (
                f"attention vs dense edge ({mode}, {ch} heads) rel err {err:.2e} "
                f"at n={n} lmax={lmax} cloud seed 2024"
            )
    for include_self in (False, True):
        cfg = conv.ConvConfig(l_max=lmax, channels=ch, include_self=include_self)
        oe = conv.edge_conv(graph.dense(n), cloud.positions, h, cfg)
        om = conv.moments_conv(cloud.positions, h, cfg)
        err = _rel_err(om.output.values, oe.output.values)
        if err > EQUIV_TOL:
            return (
                f"moments vs dense edge (include_self={include_self}) rel err "
                f"{err:.2e} at n={n} lmax={lmax} cloud seed 2024"
            )
    cfg = conv.ConvConfig(l_max=lmax, channels=ch)
    tps = set()
    for kk in (2, 5, 8):
        gg = graph.knn(cloud, kk)
        tps.add(conv.node_conv(gg, cloud.positions, h, cfg).counters.tp_count)
    if len(tps) != 1:
        return f"node tp_count depends on k: {sorted(tps)}"
    return ""


def _suite_equivariance(rng) -> str:
    n, k, lmax, ch = 12, 4, 2, 2
    cloud = graph.random_cloud(n, seed=31)
    g = graph.knn(cloud, k)
    h = irreps.random_tensor([(l, ch) for l in range(lmax + 1)], n, seed=8)
    cfg = conv.ConvConfig(l_max=lmax, channels=ch)
    runs = {
        "edge": lambda gg, pos, hh: conv.edge_conv(gg, pos, hh, cfg).output,
        "node": lambda gg, pos, hh: conv.node_conv(gg, pos, hh, cfg).output,
    }
    base = {name: fn(g, cloud.positions, h) for name, fn in runs.items()}
    for trial in range(3):
        rot = harmonics.Rotation.random(rng)
        pos_r = rot.apply(cloud.positions)
        g_r = graph.knn(graph.PointCloud(pos_r, seed=31, box_side=cloud.box_side), k)
        h_r = h.rotate(rot)
        for name, fn in runs.items():
            err = _rel_err(fn(g_r, pos_r, h_r).values, base[name].rotate(rot).values)
            if err > 1e-9:
                return f"{name} route rotation equivariance rel err {err:.2e} (trial {trial})"
    shift = rng.standard_normal(3) * 5.0
    for name, fn in runs.items():
        err = _rel_err(fn(g, cloud.positions + shift, h).values, base[name].values)
        if err > 1e-9:
            return f"{name} route translation invariance rel err {err:.2e} shift={shift.round(3).tolist()}"
    perm = rng.permutation(n)
    pos_p = cloud.positions[perm]
    g_p = graph.knn(graph.PointCloud(pos_p, seed=31, box_side=cloud.box_side), k)
    h_p = irreps.IrrepTensor(h.layout, h.values[perm])
    for name, fn in runs.items():
        err = _rel_err(fn(g_p, pos_p, h_p).values, base[name].values[perm])
        if err > 1e-9:
            return f"{name} route permutation equivariance rel err {err:.2e}"
    return ""


def _suite_geometry(rng) -> str:
    pos = np.array([[0, 0, 0], [0, 0, 1], [0, 0, 2]], dtype=float)
    cloud = graph.PointCloud(pos, seed=0, box_side=3.0)
    g1 = graph.knn(cloud, 1)
    if not np.array_equal(g1.neighbors[1], [0]):
        return f"knn tie-break picked {g1.neighbors[1].tolist()}, want [0]"
    gd = graph.dense(5)
    if gd.n_edges != 20:
        return f"dense(5) has {gd.n_edges} edges, want 20"
    gr = graph.radius(cloud, r_cut=np.inf, max_neighbors=10)
    if any(i in gr.neighbors[i] for i in range(3)):
        return "radius graph grew a self loop at infinite cutoff"
    err = _check_search_on_lattice()
    if err:
        return err
    c = graph.random_cloud(17, seed=5)
    with tempfile.TemporaryDirectory() as td:
        path = os.path.join(td, "cloud.txt")
        graph.save_cloud(c, path)
        c2 = graph.load_cloud(path)
    if not np.array_equal(c.positions, c2.positions):
        return "save/load round trip is not bit-exact"
    if c2.seed != c.seed or c2.box_side != c.box_side:
        return "save/load lost seed or box_side metadata"
    return ""


def _check_search_on_lattice() -> str:
    """knn and radius against an exact per-row scan on a 4x4x4 unit lattice,
    where every shell is a tie and k or r_cut lands on one."""
    axis = np.arange(4.0)
    pos = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    cloud = graph.PointCloud(pos)
    idx = np.arange(pos.shape[0])
    scans = []
    for i in idx:
        d2 = np.sum((pos[i] - pos) ** 2, axis=1)  # exact: integer coordinates
        order = np.lexsort((idx, d2))
        order = order[order != i]
        scans.append((order, d2[order]))
    for k in (3, 6, 7, 18, 26):
        g = graph.knn(cloud, k)
        for i, (order, _) in enumerate(scans):
            if not np.array_equal(g.neighbors[i], order[:k]):
                return (f"knn({k}) row {i} on the lattice is {g.neighbors[i].tolist()}, "
                        f"scan gives {order[:k].tolist()}")
    for r_cut, cap in ((1.0, 4), (1.0, 10), (2.0, 10), (2.0, 40)):
        g = graph.radius(cloud, r_cut, cap)
        for i, (order, d2) in enumerate(scans):
            want = order[d2 <= r_cut ** 2][:cap]
            if not np.array_equal(g.neighbors[i], want):
                return (f"radius({r_cut}, {cap}) row {i} on the lattice is "
                        f"{g.neighbors[i].tolist()}, scan gives {want.tolist()}")
    return ""


_SUITES = (
    ("angular", _suite_angular),
    ("harmonics", _suite_harmonics),
    ("recoupling", _suite_recoupling),
    ("binomial", _suite_binomial),
    ("equivalence", _suite_equivalence),
    ("equivariance", _suite_equivariance),
    ("geometry", _suite_geometry),
)


def _cmd_verify(args) -> int:
    names = [n for n, _ in _SUITES]
    selected = args.suite or names
    for s in selected:
        if s not in names:
            print(f"unknown suite {s!r}; choose from {names}", file=sys.stderr)
            return 2
    restore = None
    if args.corrupt_6j:
        # deliberately poison 6j lookups to prove the suites depend on them
        orig = angular.CoefficientCache.wigner6j

        def bad(self, key):
            val = orig(self, key)
            return val * 1.01 if val != 0.0 else val

        angular.CoefficientCache.wigner6j = bad
        conv._PLAN_CACHE.clear()
        restore = orig
    try:
        rng = np.random.default_rng(np.random.Philox(key=args.seed))
        failures = 0
        for name, fn in _SUITES:
            if name not in selected:
                continue
            if name == "equivalence":
                detail = fn(rng, n=args.n, k=args.k, lmax=args.lmax)
            else:
                detail = fn(rng)
            if detail:
                failures += 1
                print(f"{name:<12} FAIL  {detail}")
            else:
                print(f"{name:<12} PASS")
        return 1 if failures else 0
    finally:
        if restore is not None:
            angular.CoefficientCache.wigner6j = restore
            conv._PLAN_CACHE.clear()


# ---------------------------------------------------------------------------
# bench


def _parse_int_list(text: str, what: str, minimum: int = 0):
    out = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            lo, hi = part.split("..", 1)
            if not (lo.strip().isdigit() and hi.strip().isdigit()):
                raise ValueError(f"bad {what} range {part!r}")
            out.extend(range(int(lo), int(hi) + 1))
        elif part.isdigit():
            out.append(int(part))
        else:
            raise ValueError(f"bad {what} value {part!r}")
    if not out:
        raise ValueError(f"empty {what} list")
    out = sorted(set(out))
    if out[0] < minimum:
        raise ValueError(f"{what} values must be >= {minimum}")
    return out


def _parse_k_list(text: str):
    out = []
    for part in text.split(","):
        part = part.strip()
        if part == "dense":
            out.append("dense")
        elif part.isdigit() and int(part) >= 1:
            out.append(int(part))
        else:
            raise ValueError(f"bad --k value {part!r} (positive integer or 'dense')")
    if not out:
        raise ValueError("empty --k list")
    return out


def _timed(callable_, warmups: int, repeats: int):
    for _ in range(warmups):
        result = callable_()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = callable_()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def _cmd_bench(args) -> int:
    try:
        ns = _parse_int_list(args.n, "--n", minimum=1)
        lmaxes = _parse_int_list(args.lmax, "--lmax")
        ks = _parse_k_list(args.k)
    except ValueError as exc:
        print(f"argument error: {exc}", file=sys.stderr)
        return 2
    if (args.repeats < 1 or args.warmups < 0 or args.channels < 1
            or args.seed < 0):
        print("argument error: --repeats must be >= 1, --warmups >= 0, "
              "--channels >= 1, and --seed >= 0", file=sys.stderr)
        return 2
    modes = ("edge", "node") if args.mode == "both" else (args.mode,)
    out_fh = open(args.out, "w", newline="") if args.out else sys.stdout
    writer = csv.writer(out_fh, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    try:
        for lmax in lmaxes:
            cfg = conv.ConvConfig(l_max=lmax, channels=args.channels)
            for n in ns:
                cloud = graph.random_cloud(n, seed=args.seed)
                h = irreps.random_tensor(
                    [(l, args.channels) for l in range(lmax + 1)], n, seed=args.seed + 1
                )
                for k in ks:
                    try:
                        g = graph.dense(n) if k == "dense" else graph.knn(cloud, k)

                        def run_edge(g=g):
                            return conv.edge_conv(g, cloud.positions, h, cfg)

                        def run_node(g=g):
                            return conv.node_conv(g, cloud.positions, h, cfg)

                        runners = {"edge": run_edge, "node": run_node}
                        if args.mode == "both":
                            err = _rel_err(
                                run_node().output.values, run_edge().output.values
                            )
                            if err > EQUIV_TOL:
                                print(
                                    f"route mismatch at n={n} k={k} lmax={lmax}: "
                                    f"rel err {err:.3e} exceeds {EQUIV_TOL:.0e}; "
                                    "refusing to report timings",
                                    file=sys.stderr,
                                )
                                return 1
                        for mode in modes:
                            med, res = _timed(runners[mode], args.warmups, args.repeats)
                            writer.writerow([
                                mode, n, k, lmax, args.channels, args.repeats,
                                f"{med:.6e}", res.counters.tp_count,
                                res.counters.add_count, args.seed,
                            ])
                            out_fh.flush()
                    except MemoryError:
                        for mode in modes:
                            writer.writerow([
                                mode, n, k, lmax, args.channels, args.repeats,
                                "ERROR", "", "", args.seed,
                            ])
                        out_fh.flush()
    finally:
        if args.out:
            out_fh.close()
    return 0


# ---------------------------------------------------------------------------
# report


def _parse_csv(path):
    rows = []
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise ValueError(f"cannot open {path}: {exc.strerror}")
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(CSV_FIELDS):
            raise ValueError(f"parse error at line 1: header {header} != {list(CSV_FIELDS)}")
        for lineno, rec in enumerate(reader, start=2):
            if not rec:
                continue
            if len(rec) != len(CSV_FIELDS):
                raise ValueError(
                    f"parse error at line {lineno}: expected {len(CSV_FIELDS)} "
                    f"fields, got {len(rec)}"
                )
            row = dict(zip(CSV_FIELDS, rec))
            try:
                row["n"] = int(row["n"])
                row["lmax"] = int(row["lmax"])
                row["channels"] = int(row["channels"])
                if row["median_s"] != "ERROR":
                    row["median_s"] = float(row["median_s"])
                    row["tp_count"] = int(row["tp_count"])
                    row["add_count"] = int(row["add_count"])
            except ValueError:
                raise ValueError(f"parse error at line {lineno}: bad numeric field in {rec}")
            row["line"] = lineno
            rows.append(row)
    return rows


def _cmd_report(args) -> int:
    try:
        rows = _parse_csv(args.csv)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    good = [r for r in rows if r["median_s"] != "ERROR"]
    for r in rows:
        if r["median_s"] == "ERROR":
            print(f"note: skipping ERROR row at line {r['line']}", file=sys.stderr)
    groups: dict = {}
    for r in good:
        groups.setdefault((r["mode"], r["k"], r["lmax"], r["channels"]), []).append(r)
    for key in sorted(groups):
        mode, k, lmax, ch = key
        pts = sorted({(r["n"], r["median_s"]) for r in groups[key]})
        label = f"mode={mode} k={k} lmax={lmax} channels={ch}"
        if len({n for n, _ in pts}) < 2:
            print(f"{label}: {len(pts)} point(s), no slope fit")
            continue
        ns = np.array([n for n, _ in pts], dtype=float)
        ts = np.array([t for _, t in pts], dtype=float)
        slope = float(np.polyfit(np.log(ns), np.log(ts), 1)[0])
        pretty = ", ".join(f"{int(n)}:{t:.4g}s" for n, t in pts)
        print(f"{label}: slope {slope:.3f}  ({pretty})")
    edges = {(r["n"], r["lmax"], r["channels"]): r for r in good if r["mode"] == "edge"}
    nodes = {(r["n"], r["lmax"], r["channels"]): r for r in good if r["mode"] == "node"}
    for key in sorted(set(edges) & set(nodes)):
        e, nn = edges[key], nodes[key]
        if nn["median_s"] > 0:
            print(
                f"speedup n={key[0]} lmax={key[1]} channels={key[2]}: "
                f"edge[k={e['k']}] / node[k={nn['k']}] = "
                f"{e['median_s'] / nn['median_s']:.2f}x"
            )
    return 0


# ---------------------------------------------------------------------------
# entry point


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sixjconv",
        description="verify and benchmark the edge-wise vs node-wise equivariant convolutions",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run fast self-check suites")
    pv.add_argument("--suite", action="append",
                    help="suite name (repeatable); default: all suites")
    pv.add_argument("--n", type=int, default=10,
                    help="node count for the equivalence suite")
    pv.add_argument("--k", type=int, default=3,
                    help="neighbor count for the equivalence suite")
    pv.add_argument("--lmax", type=int, default=2,
                    help="degree cutoff for the equivalence suite")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--corrupt-6j", action="store_true", help=argparse.SUPPRESS)
    pv.set_defaults(func=_cmd_verify)

    pb = sub.add_parser("bench", help="time the convolution routes, emit CSV")
    pb.add_argument("--mode", choices=("edge", "node", "both"), default="both")
    pb.add_argument("--n", default="256", help="comma list and/or lo..hi ranges")
    pb.add_argument("--k", default="16", help="neighbor count or 'dense'")
    pb.add_argument("--lmax", default="2", help="comma list and/or lo..hi ranges")
    pb.add_argument("--channels", type=int, default=8)
    pb.add_argument("--repeats", type=int, default=5)
    pb.add_argument("--warmups", type=int, default=2)
    pb.add_argument("--seed", type=int, default=0)
    pb.add_argument("--threads", type=int, default=1,
                    help="BLAS threads (applied before numpy import)")
    pb.add_argument("--out", help="CSV output path (default: stdout)")
    pb.set_defaults(func=_cmd_bench)

    pr = sub.add_parser("report", help="slope fits and speedups from bench CSV")
    pr.add_argument("csv")
    pr.set_defaults(func=_cmd_report)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
