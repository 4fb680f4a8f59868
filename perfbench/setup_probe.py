"""Set-up time of a fresh process, for one workload.

    python3 perfbench/setup_probe.py --workload knn-l6 [--trace]

With numpy and scipy already loaded, times the import of sixjconv and the
first call of each of the workload's layer calls on a 24-node cloud at the
workload's degrees, modes and weight kinds. That first call builds the
exact 3j/6j values, coupling matrices, node plans and pair constants.
Prints one JSON line: ``setup_s`` and, with --trace, the set-up layers.
"""

import bootstrap

bootstrap.pin_threads()

import argparse  # noqa: E402
import json  # noqa: E402
import time  # noqa: E402

import numpy  # noqa: E402,F401
import scipy.sparse  # noqa: E402,F401
import scipy.spatial  # noqa: E402,F401

SMALL_N = 24


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    bootstrap.use_checkout_source()
    t0 = time.perf_counter()
    import sixjconv.conv  # noqa: F401
    import workloads
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    wl = workloads.WORKLOADS[args.workload]
    inp = workloads.make_inputs(wl, seed=0, n=SMALL_N)
    for call in wl.calls:
        workloads.execute(call, inp)
    setup_s = time.perf_counter() - t0
    bootstrap.check_imported(sixjconv)
    out = {"setup_s": setup_s}
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = setup_layers(tracer.spans)
    print(json.dumps(out))
    return 0


def setup_layers(span_list) -> dict:
    """Time in angular calls (the tracer keeps only the outermost ones) and
    in calibrate_pair_constants."""
    coeff = sum(s[2] - s[1] for s in span_list if s[0].startswith("angular."))
    calib = sum(s[2] - s[1] for s in span_list if s[0] == "irreps.calibrate_pair_constants")
    return {"angular.coeff_s": coeff, "irreps.calibrate_s": calib}


if __name__ == "__main__":
    raise SystemExit(main())
