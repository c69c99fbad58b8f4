"""Process set-up shared by the benchmark's scripts.

Native thread pools are pinned to one thread (the benchmark is a closed
loop of one client on one core), and the package is imported from this
checkout's ``src/`` and from nowhere else.
"""

import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def prepare():
    """Pin thread pools and put ``src/`` first on the import path; must run
    before numpy is imported.  False when the checkout has no sources."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "drguniform" / "__init__.py").is_file():
        print(f"bench: no drguniform sources under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    return True


def from_checkout(module):
    """Whether an imported module was loaded from this checkout's src/."""
    return Path(module.__file__).resolve().is_relative_to(SRC)


def thread_settings():
    return {var: os.environ.get(var) for var in THREAD_VARS}
