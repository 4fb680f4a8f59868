"""Process set-up shared by the benchmark's scripts.

Every script calls :func:`pin_threads` before numpy is first imported, so
BLAS and OpenMP run on one thread, and :func:`use_checkout_source` so that
``sixjconv`` is imported from the ``src/`` tree of the checkout the
benchmark sits in, never from an installed copy.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
THREADS = 1


def pin_threads() -> None:
    if "numpy" in sys.modules:
        raise RuntimeError("thread counts must be pinned before numpy is imported")
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)


def use_checkout_source() -> None:
    """Put the checkout's src/ first on sys.path; exit 2 when it is missing."""
    if not (SRC / "sixjconv" / "__init__.py").is_file():
        print(f"perfbench: no sixjconv source under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


def check_imported(module) -> None:
    """Exit 2 unless ``module`` was loaded from the checkout's src/."""
    path = Path(module.__file__).resolve()
    if SRC.resolve() not in path.parents:
        print(f"perfbench: sixjconv loaded from {path}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
