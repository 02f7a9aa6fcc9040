"""glibc malloc tuning for large-array workloads.

Training allocates and frees tens-of-MB activation buffers every step; with
default glibc settings those go through mmap/munmap, and the page faults
dominate elementwise math. Raising the mmap and trim thresholds keeps the
blocks on the heap for reuse. One arena lets every thread reuse them: a
block freed into another thread's arena stays there, so a worker pool
whose result thread draws a new arena (as each new pool's may) holds its
results in fresh memory on top of the last pool's. Best effort: silently
skipped off glibc.
"""

import ctypes

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8


def tune_malloc(threshold: int = 1 << 30) -> bool:
    try:
        libc = ctypes.CDLL("libc.so.6")
        ok = libc.mallopt(_M_MMAP_THRESHOLD, threshold)
        ok &= libc.mallopt(_M_TRIM_THRESHOLD, threshold)
        ok &= libc.mallopt(_M_ARENA_MAX, 1)
        return bool(ok)
    except (OSError, AttributeError):
        return False
