"""The package keeps freed numpy buffers in the heap (glibc)."""

import subprocess
import sys

import pytest

from revmem import heap

# two rounds of forty 1 MiB arrays; prints the minor page faults of the second
SCRIPT = """
import resource
import numpy as np
import revmem

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

bufs = [np.ones(1 << 18, np.float32) for _ in range(40)]
del bufs
before = faults()
bufs = [np.ones(1 << 18, np.float32) for _ in range(40)]
print(faults() - before)
"""


def test_freed_buffers_are_reused_without_page_faults():
    if not heap.keep_freed_memory():
        pytest.skip("the C library has no glibc mallopt")
    # a fresh process, so no earlier large free has raised glibc's thresholds;
    # with them left at their defaults the second round maps and faults in
    # all 40 MiB again (about 10,000 faults)
    out = subprocess.run([sys.executable, "-c", SCRIPT], check=True,
                         capture_output=True, text=True)
    assert int(out.stdout) < 256  # fewer than one array's pages
