"""Keep freed numpy buffers in the process heap instead of returning them to the kernel.

glibc serves an allocation above its mmap threshold with a fresh mapping and,
on free, gives heap memory above its trim threshold back to the kernel. Both
thresholds start at 128 KiB and rise only when a larger mapped buffer is
freed. A training step here allocates and frees many arrays of 0.1-2 MB and
no larger ones, so the thresholds stay low and the same memory is returned
and faulted in again on every step. On a 2-vCPU x86-64 machine with glibc
2.36, a ``train-rev-df`` benchmark step took 39,284 minor page faults that
way, against 3 with the thresholds set here, and 301-312 ms against
214-228 ms (medians of 12 steps, two rounds).

``keep_freed_memory`` sets the two thresholds to the values glibc's own
heuristic reaches after freeing a 32 MiB buffer: mmap above 32 MiB (its
ceiling on 64-bit systems), trim above twice that. The package calls it on
import. Elsewhere than glibc it does nothing. Python-level accounting
(``tracemalloc``, ``nbytes``) is unaffected; only the resident set may stay
up to 64 MiB higher after a peak.
"""

from __future__ import annotations

import ctypes

M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD


def keep_freed_memory() -> bool:
    """Set glibc's mmap and trim thresholds; True when both were accepted."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # no C library symbol table, or not glibc
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return (mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
            and mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1)
