"""Machine floor for one thread: dgemm rate and copy bandwidth.

    python3 perfbench/floor.py

Runs in its own process so its large arrays stay out of the workload's
peak memory. The dgemm multiplies two DGEMM_N x DGEMM_N matrices. The copy
uses two arrays of four times the last-level cache each (as the C library's
sysconf reports it; 64 MiB assumed when it reports none) and counts bytes
read plus bytes written. Both report the median of REPEATS timed runs after one
warm-up. Prints one JSON line.
"""

import bootstrap

bootstrap.pin_threads()

import ctypes  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

DGEMM_N = 2048
REPEATS = 3
FALLBACK_LLC = 64 << 20
# glibc's _SC_LEVEL4_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE, _SC_LEVEL2_CACHE_SIZE
SC_CACHE_SIZES = (197, 194, 191)


def last_level_cache_bytes() -> int:
    try:
        libc = ctypes.CDLL(None)
    except OSError:
        return FALLBACK_LLC
    libc.sysconf.restype = ctypes.c_long
    libc.sysconf.argtypes = [ctypes.c_int]
    for name in SC_CACHE_SIZES:
        size = libc.sysconf(name)
        if size > 0:
            return size
    return FALLBACK_LLC


def timed(fn) -> float:
    fn()
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main() -> int:
    rng = np.random.default_rng(0)
    a = rng.standard_normal((DGEMM_N, DGEMM_N))
    b = rng.standard_normal((DGEMM_N, DGEMM_N))
    c = np.empty_like(a)
    t_gemm = timed(lambda: np.matmul(a, b, out=c))
    del a, b, c
    llc = last_level_cache_bytes()
    count = 4 * llc // 8
    src = np.ones(count)
    dst = np.empty_like(src)
    t_copy = timed(lambda: np.copyto(dst, src))
    print(json.dumps({
        "dgemm_n": DGEMM_N,
        "dgemm_gflops": 2 * DGEMM_N**3 / t_gemm / 1e9,
        "llc_bytes": llc,
        "copy_array_bytes": count * 8,
        "copy_gbs": 2 * count * 8 / t_copy / 1e9,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
