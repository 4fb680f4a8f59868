"""sixjconv benchmark: one workload, one process, one caller in a closed loop.

    python3 perfbench/run.py --workload knn-l3 --seed 1 --seconds 25 --trace 0

Runs from the root of a checkout and imports sixjconv from its src/ tree.
BLAS and OpenMP are pinned to one thread before numpy loads. The run:

1. times set-up in SETUP_PROBES fresh processes (``setup_probe.py``);
2. with --trace 1, measures the machine floor in another process
   (``floor.py``);
3. makes the workload's inputs from --seed, runs a warm-up round and the
   first measured round, and reads the peak memory;
4. checks once per run that every call is rotation-equivariant and that the
   node route's tp_count does not depend on the graph;
5. runs whole rounds until the timed calls add up to --seconds, checking
   every output of every round.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced rounds: the traced ones give the per-layer metrics, the pair gives
the tracing overhead, and the spans go to .bench_out/. The last line of
standard output is the JSON result; lines before it starting with '#'
describe the run. Exit code 0 on a completed run, 2 on bad arguments or a
checkout without the source.
"""

import bootstrap

bootstrap.pin_threads()
bootstrap.use_checkout_source()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import reference  # noqa: E402
import sixjconv  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT_DIR = bootstrap.ROOT / ".bench_out"
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 120
MIN_ROUNDS = {False: 3, True: 4}
NODE_ROUTE_SPANS = ("conv.node_conv", "conv.attention_node_conv", "conv.moments_conv")
# per-layer span metrics: metric name -> (span name, only under a node-route call)
SPAN_METRICS = {
    "graph.knn_s": ("graph.knn", False),
    "graph.dense_s": ("graph.dense", False),
    "graph.edge_arrays_s": ("graph.NeighborGraph.edge_arrays", False),
    "harmonics.solid_sh_s": ("harmonics.solid_sh", True),
    "conv.node_conv_s": ("conv.node_conv", False),
    "conv.attention_node_conv_s": ("conv.attention_node_conv", False),
    "conv.moments_conv_s": ("conv.moments_conv", False),
    "conv.edge_conv_s": ("conv.edge_conv", False),
}
SELF_METRICS = {
    "conv.node_conv_self_s": "conv.node_conv",
    "conv.edge_conv_self_s": "conv.edge_conv",
}
UNITS = {
    "conv.node_tp_count": "ops", "conv.node_add_count": "ops",
    "conv.edge_tp_count": "ops", "conv.edge_add_count": "ops",
    "conv.node_gflops": "GFLOP/s", "conv.edge_gflops": "GFLOP/s",
    "floor.dgemm_gflops": "GFLOP/s", "floor.copy_gbs": "GB/s",
    "trace.overhead_pct": "%",
}


def parse_args(workload_names):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workload_names)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def child_json(script: str, *argv) -> dict:
    """Run one of the benchmark's scripts in a fresh process; its last
    stdout line is JSON. subprocess.run waits for the child, and kills it
    on timeout."""
    proc = subprocess.run(
        [sys.executable, str(HERE / script), *argv],
        cwd=bootstrap.ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: {script} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "threads": bootstrap.THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
    }


def route_time(rounds, route: str) -> float:
    """Median time of each distinct call of ``route`` over all its calls in
    the run, then the mean of those medians. A median over single calls
    needs many samples per run to be steady; distinct calls (raw-solid and
    unit-Y on knn-l6) keep their own medians, since pooling two call kinds
    makes the median jump between them."""
    times = {}
    for r in rounds:
        for o in r["outcomes"]:
            if o.call.route == route:
                times.setdefault(o.call, []).append(o.seconds)
    return statistics.mean(statistics.median(v) for v in times.values())


def end_to_end(rounds, setup_s: float, peak_rss_mb: float) -> dict:
    m = {
        "node_s": route_time(rounds, "node"),
        "edge_s": route_time(rounds, "edge"),
        "moments_s": route_time(rounds, "moments"),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    units = {"peak_rss_mb": "MB"}
    return {k: {"value": v, "unit": units.get(k, "s")} for k, v in m.items()}


def span_means(span_list, tag, name, under_node_route, children=None, self_only=False):
    vals = []
    for i, s in enumerate(span_list):
        if s[4] != tag or s[0] != name:
            continue
        if under_node_route and not spans.has_ancestor(span_list, i, NODE_ROUTE_SPANS):
            continue
        vals.append(spans.self_time(span_list, i, children) if self_only else spans.duration(s))
    return sum(vals) / len(vals) if vals else None


def per_layer(tracer, traced_rounds, untraced_rounds, inp, floor, setup_layers) -> dict:
    sl = tracer.spans
    children = spans.children_of(sl)
    tags = [r["index"] for r in traced_rounds]
    out = {}

    def from_rounds_or_check(fn):
        vals = [v for v in (fn(t) for t in tags) if v is not None]
        if vals:
            return statistics.median(vals)
        v = fn("check")
        return 0.0 if v is None else v

    for metric, (name, under) in SPAN_METRICS.items():
        out[metric] = from_rounds_or_check(lambda t: span_means(sl, t, name, under))
    for metric, name in SELF_METRICS.items():
        out[metric] = from_rounds_or_check(
            lambda t: span_means(sl, t, name, False, children, self_only=True))

    wl = inp.workload

    def counter(route, attr):
        vals = [getattr(o.result.counters, attr) for r in traced_rounds
                for o in r["outcomes"] if o.call.route == route]
        return sum(vals) / len(vals)

    for route in ("node", "edge"):
        out[f"conv.{route}_tp_count"] = counter(route, "tp_count")
        out[f"conv.{route}_add_count"] = counter(route, "add_count")

    def gflops(route):
        top = {"node": ("conv.node_conv", "conv.attention_node_conv"),
               "edge": ("conv.edge_conv",)}[route]
        rates = []
        for r in traced_rounds:
            macs = 0
            for o in r["outcomes"]:
                if o.call.route != route:
                    continue
                if route == "edge":
                    macs += reference.edge_macs(inp.n_edges, wl.channels, wl.l_max)
                else:
                    macs += reference.node_macs(wl.n, inp.n_edges, wl.channels,
                                                wl.l_max, o.call.mode)
            secs = sum(spans.duration(s) for s in sl
                       if s[4] == r["index"] and s[3] is None and s[0] in top)
            rates.append(2 * macs / secs / 1e9)
        return statistics.median(rates)

    out["conv.node_gflops"] = gflops("node")
    out["conv.edge_gflops"] = gflops("edge")
    out.update(setup_layers)
    out["floor.dgemm_gflops"] = floor["dgemm_gflops"]
    out["floor.copy_gbs"] = floor["copy_gbs"]
    traced = statistics.median(sum(o.seconds for o in r["outcomes"]) for r in traced_rounds)
    plain = statistics.median(sum(o.seconds for o in r["outcomes"]) for r in untraced_rounds)
    out["trace.overhead_pct"] = 100.0 * (traced / plain - 1.0)
    return {k: {"value": v, "unit": UNITS.get(k, "s")} for k, v in out.items()}


def describe_failure(rnd, o) -> str:
    n = o.notes
    parts = [f"direct-sum deviation {n['direct']:.3e} at centre {n['centre']}"]
    if "agreement" in n:
        parts.insert(0, f"node/edge agreement {n['agreement']:.3e}")
    if "tp_expected" in n:
        parts.append(f"tp_count {n['tp_count']} != {n['tp_expected']}")
    return f"# FAIL round {rnd} {o.call.label}: " + ", ".join(parts)


def once_per_run_checks(inp, warm, check_rng, tracer) -> bool:
    """Equivariance and node counter properties; the counter check runs
    traced when tracing, so layers no round calls still get a span."""
    correct = True
    for label, err, gated in workloads.equivariance(inp, warm, check_rng):
        ok = err <= workloads.TOL or not gated
        correct &= ok
        print(f"# equivariance {label}: {err:.3e}"
              + ("" if gated else " (not gated: this call fails its agreement check)")
              + ("" if ok else " FAIL"))
    if tracer is not None:
        tracer.tag = "check"
        tracer.install()
    try:
        for label, ok in workloads.counter_properties(inp, warm):
            correct &= ok
            print(f"# counters {label}: {'ok' if ok else 'FAIL'}")
    finally:
        if tracer is not None:
            tracer.uninstall()
    return correct


def measure(inp, first, seconds, check_rng, tracer):
    """Whole rounds until the timed calls add up to ``seconds``; with a
    tracer, every second round is traced. Returns (rounds, check seconds)."""
    rounds = []
    timed = t_checks = 0.0
    outcomes = first
    while True:
        t = time.perf_counter()
        workloads.check_round(inp, outcomes, check_rng)
        t_checks += time.perf_counter() - t
        index = len(rounds)
        rounds.append({"index": index, "traced": tracer is not None and index % 2 == 1,
                       "outcomes": outcomes})
        timed += sum(o.seconds for o in outcomes)
        if timed >= seconds and len(rounds) >= MIN_ROUNDS[tracer is not None]:
            return rounds, t_checks
        traced = tracer is not None and (index + 1) % 2 == 1
        if traced:
            tracer.tag = index + 1
            tracer.install()
        inp = inp.relocated()
        try:
            outcomes = workloads.run_round(inp, time.perf_counter)
        finally:
            if traced:
                tracer.uninstall()


def main() -> int:
    bootstrap.check_imported(sixjconv)
    args = parse_args(sorted(workloads.WORKLOADS))
    wl = workloads.WORKLOADS[args.workload]
    traced_run = bool(args.trace)
    env = environment()
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items() if k != "blas_config"))
    print(f"# blas_config {env['blas_config']}")

    t = time.perf_counter()
    probe_args = ["--workload", wl.name] + (["--trace"] if traced_run else [])
    probes = [child_json("setup_probe.py", *probe_args) for _ in range(SETUP_PROBES)]
    setup_s = statistics.median(p["setup_s"] for p in probes)
    setup_layers = {key: statistics.median(p["layers"][key] for p in probes)
                    for key in probes[0].get("layers", ())}
    floor = child_json("floor.py") if traced_run else None
    check_rng = np.random.default_rng([args.seed, 0x5EED])
    inp = workloads.make_inputs(wl, args.seed)
    print(f"# workload {wl.name}: n={wl.n} k={wl.k or 'dense'} l_max={wl.l_max} "
          f"channels={wl.channels} edges={inp.n_edges} calls/round={len(wl.calls)} "
          f"inputs from {'seed' if wl.fixed_key is None else f'fixed key {wl.fixed_key}'}")
    phases = {"probes and inputs": time.perf_counter() - t}

    t = time.perf_counter()
    warm = workloads.run_round(inp, time.perf_counter)
    first = workloads.run_round(inp, time.perf_counter)
    # peak memory after a fixed sequence (inputs, warm-up, one round) and
    # before any check allocates: later rounds only add heap fragmentation,
    # which varies from run to run
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    phases["warm-up"] = time.perf_counter() - t - sum(o.seconds for o in first)

    t = time.perf_counter()
    workloads.check_round(inp, warm, check_rng)
    tracer = spans.Tracer() if traced_run else None
    correct = once_per_run_checks(inp, warm, check_rng, tracer)
    phases["once-per-run checks"] = time.perf_counter() - t

    rounds, phases["round checks"] = measure(inp, first, args.seconds, check_rng, tracer)
    timed = sum(o.seconds for r in rounds for o in r["outcomes"])
    phases["timed calls"] = timed
    print("# phases " + ", ".join(f"{k} {v:.1f} s" for k, v in phases.items()))

    attempted = sum(len(r["outcomes"]) for r in rounds)
    failed = 0
    for r in rounds:
        for o in r["outcomes"]:
            if o.failed:
                failed += 1
                print(describe_failure(r["index"], o))
    print(f"# rounds {len(rounds)}, timed {timed:.3f} s, attempted {attempted}, failed {failed}")

    if traced_run:
        metrics = per_layer(tracer, [r for r in rounds if r["traced"]],
                            [r for r in rounds if not r["traced"]], inp, floor, setup_layers)
        report_layers(metrics, floor, tracer, env, wl, args.seed)
    else:
        metrics = end_to_end(rounds, setup_s, peak_rss_mb)
        for name, m in metrics.items():
            print(f"# metric {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def report_layers(metrics, floor, tracer, env, wl, seed) -> None:
    """Print the layers, rates against the floor, and write the spans."""
    print(f"# floor dgemm {floor['dgemm_gflops']:.2f} GFLOP/s at n={floor['dgemm_n']}, "
          f"copy {floor['copy_gbs']:.2f} GB/s over 2 x {floor['copy_array_bytes']} B "
          f"(last-level cache {floor['llc_bytes']} B)")
    for name, m in metrics.items():
        line = f"# layer {name} {m['value']:.6g} {m['unit']}"
        if m["unit"] == "GFLOP/s" and not name.startswith("floor."):
            line += f" ({100.0 * m['value'] / floor['dgemm_gflops']:.2f}% of the dgemm floor)"
        print(line)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{wl.name}-seed{seed}.json"
    with open(path, "w") as fh:
        json.dump({"env": env, "floor": floor, "layers": metrics, "spans": tracer.spans}, fh)
    print(f"# spans {len(tracer.spans)} written to {path.relative_to(bootstrap.ROOT)}")


if __name__ == "__main__":
    raise SystemExit(main())
