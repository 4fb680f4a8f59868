"""Self-test of the benchmark's checker.

    python3 perfbench/selftest.py

Runs one checked round of every workload under a set of known
perturbations, each in a fresh process so no cached plan or table outlives
it, and compares the per-call failure flags with an unperturbed round:

* ``sixj``: every 6j value scaled by 1.01 (as ``sixjconv verify
  --corrupt-6j`` does); affects the node route, attention and moments calls;
* ``edge-block``, ``node-block``, ``moments-block``: one output degree block
  of that route scaled by 1 + 1e-6;
* ``edge-one-node``: one entry of one node's output moved by 1e-2 of that
  node's scale; only the node/edge agreement check can see it;
* ``edge-tp``: the edge route's tp_count off by one.

Every affected call must fail and every other call must keep its
unperturbed status. Exit code 0 when all do, 1 otherwise.
"""

import bootstrap

bootstrap.pin_threads()

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

SCENARIOS = {
    "clean": (),
    "sixj": ("node", "attention", "moments"),
    "edge-block": ("edge",),
    "node-block": ("node", "attention"),
    "moments-block": ("moments",),
    "edge-one-node": ("edge",),
    "edge-tp": ("edge",),
}
SEED = 3


def _perturb_output(fn, how):
    from sixjconv.conv import ConvResult, OpCounters
    from sixjconv.irreps import IrrepTensor

    def wrapped(*args, **kwargs):
        res = fn(*args, **kwargs)
        out = IrrepTensor(res.output.layout, res.output.values.copy())
        counters = OpCounters(res.counters.tp_count, res.counters.add_count)
        if how == "block":
            out.block(1)[:] *= 1.0 + 1e-6
        elif how == "one-node":
            node = out.n_nodes // 3
            out.block(1)[node, 0, 0] += 1e-2 * np.abs(out.values[node]).max()
        elif how == "tp":
            counters.tp_count += 1
        return ConvResult(out, counters)

    return wrapped


def apply(scenario: str) -> None:
    from sixjconv import angular, conv
    if scenario == "sixj":
        orig = angular.CoefficientCache.wigner6j
        angular.CoefficientCache.wigner6j = lambda self, key: 1.01 * orig(self, key)
    elif scenario != "clean":
        route, how = scenario.split("-", 1)
        names = {"edge": ("edge_conv",), "node": ("node_conv", "attention_node_conv"),
                 "moments": ("moments_conv",)}[route]
        for name in names:
            setattr(conv, name, _perturb_output(getattr(conv, name), how))


def child(scenario: str) -> None:
    bootstrap.use_checkout_source()
    import workloads
    apply(scenario)
    flags = {}
    for name, wl in workloads.WORKLOADS.items():
        inp = workloads.make_inputs(wl, SEED)
        outcomes = workloads.run_round(inp, time.perf_counter)
        workloads.check_round(inp, outcomes, np.random.default_rng([SEED, 0x5EED]))
        flags[name] = [[o.call.kind, o.call.label, o.failed] for o in outcomes]
    print(json.dumps(flags))


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--child", choices=sorted(SCENARIOS))
    args = p.parse_args()
    if args.child:
        child(args.child)
        return 0
    results = {}
    for scenario in SCENARIOS:
        proc = subprocess.run([sys.executable, __file__, "--child", scenario],
                              capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return 1
        results[scenario] = json.loads(proc.stdout.strip().splitlines()[-1])
    bad = 0
    clean = results["clean"]
    for scenario, affected in SCENARIOS.items():
        for wl, calls in results[scenario].items():
            lines = {}
            for (kind, label, failed), (_, _, was) in zip(calls, clean[wl]):
                want = True if kind in affected else was
                bad += failed != want
                key = (label, failed, want)
                lines[key] = lines.get(key, 0) + 1
            for (label, failed, want), count in lines.items():
                print(f"{'ok ' if failed == want else 'BAD'} {scenario:<14} {wl:<12} "
                      f"{count:>2} x {label:<40} failed={failed} expected={want}")
    print(f"selftest: {bad} unexpected outcome(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
