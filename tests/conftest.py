"""Loads `parea` before any test module loads numpy.

`parea` sets the BLAS and OpenMP thread pools from `PAREA_THREADS` (default
1) as it loads, and those pools are read once, when numpy loads. Every test
module imports numpy first, so without this import the suite would compute
with the machine's default thread count, unlike the `parea` command and the
benchmark, and on a multi-core machine some artifacts would differ from
theirs in the last bits.
"""

import parea  # noqa: F401
