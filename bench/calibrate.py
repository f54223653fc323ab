"""A fixed pure-Python kernel that measures the machine's current speed.

On a shared machine the same work can take 25% more or less wall time a
few minutes apart, and CPU time moves with it.  A worker therefore times
this kernel between ops and scales its op times by
``REFERENCE_S / median kernel time``: the reported seconds are seconds on
a machine where the kernel takes ``REFERENCE_S``.  The kernel mixes the
kinds of work the package does (free reduction of long letter lists,
fraction-free integer elimination with growing entries, dictionaries of
tuples sorted by string keys) and never calls the package, so a change to
the package cannot move it.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.004


def kernel() -> int:
    letters = [("ab"[i % 2], 1 if (i * 7) % 5 < 3 else -1) for i in range(2400)]
    stack: list[tuple[str, int]] = []
    for g, s in letters:
        if stack and stack[-1] == (g, -s):
            stack.pop()
        else:
            stack.append((g, s))
    prefixes = [tuple(letters[:k]) for k in range(0, 2400, 40)]
    keyed = sorted({p[-6:]: len(p) for p in prefixes if p}.items(), key=lambda kv: str(kv[0]))

    n = 22
    rows = [[(3 * i + 5 * j * j + 1) % 17 - 8 + (i == j) * 20 for j in range(n)] for i in range(n)]
    prev = 1
    for k in range(n - 1):
        pivot = rows[k][k]
        for i in range(k + 1, n):
            f = rows[i][k]
            rows[i] = [(pivot * a - f * b) // prev for a, b in zip(rows[i], rows[k])]
        prev = pivot or 1
    return len(stack) + len(keyed) + rows[-1][-1].bit_length()


def sample() -> float:
    """Seconds for one kernel run."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
