"""A fixed, stdlib-only workload that measures how fast the machine is now.

On a shared host the same Python code runs up to 1.5x slower in phases
that last from seconds to minutes, which would swamp any change in the
program.  ``child.py`` runs ``probe()`` right after its set-up, every
``PROBE_EVERY_S`` seconds between queries and after its last query.
``run.py`` scales each query's latency by ``NOMINAL_S`` over the mean of
the two probes around it, and the set-up by the probe right after it.
The times reported are therefore seconds at the machine speed at which
one probe takes ``NOMINAL_S``.

The probe shares no code with fullflow, so a change to fullflow cannot
change it.  It does the same kind of work as fullflow's hot loops --
shortest augmenting paths over dicts of tuples, with sorted neighbour
lists and a deque -- so that it slows down with them.
"""

from __future__ import annotations

import random
from collections import deque
from time import perf_counter

NOMINAL_S = 0.09
PROBE_EVERY_S = 2.0
_ROUNDS = 12


def _graphs() -> list:
    rng = random.Random(0)
    graphs = []
    for _ in range(8):
        n = 10
        caps = {
            (u, v): rng.randint(1, 3)
            for u in range(n)
            for v in range(n)
            if u != v and rng.random() < 0.35
        }
        graphs.append((n, caps))
    return graphs


_GRAPHS = _graphs()


def _max_flow_value(caps: dict, source: int, sink: int) -> int:
    adjacent: dict[int, list[int]] = {}
    for u, v in caps:
        adjacent.setdefault(u, []).append(v)
        adjacent.setdefault(v, []).append(u)
    flow: dict[tuple[int, int], int] = {}
    total = 0
    while True:
        parent = {source: None}
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for v in sorted(adjacent.get(u, ())):
                room = caps.get((u, v), 0) - flow.get((u, v), 0) + flow.get((v, u), 0)
                if v not in parent and room > 0:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            return total
        v = sink
        while parent[v] is not None:
            u = parent[v]
            flow[(u, v)] = flow.get((u, v), 0) + 1
            v = u
        total += 1


def probe() -> float:
    """Seconds taken by one fixed batch of max-flow computations."""
    start = perf_counter()
    for _ in range(_ROUNDS):
        for n, caps in _GRAPHS:
            for source in range(n):
                _max_flow_value(caps, source, (source + 1 + source % 3) % n)
    return perf_counter() - start
