"""A fixed reference load that measures how fast the host runs right now."""

import heapq
import random
import time

# The reference load's time on a quiet 2-core x86-64 host with Python 3.11.
# Host times are reported as if the host ran at that speed.
REFERENCE_S = 0.015


class _Node:
    def __init__(self, node_id):
        self.node_id = node_id
        self.seen = {}


def _reference_load():
    # A small event loop in the shape of the simulator's hot path: a heap
    # of tuples, per-node dicts keyed by tuples, and trace formatting.
    rng = random.Random(7)
    nodes = [_Node(i) for i in range(300)]
    queue = []
    seq = 0
    for i in range(3000):
        heapq.heappush(queue, (rng.random(), seq, nodes[i % 300]))
        seq += 1
    log = []
    handled = 0
    while queue:
        t, s, node = heapq.heappop(queue)
        key = (node.node_id, s % 97)
        if key not in node.seen:
            node.seen[key] = t
            log.append("%.4f,%s,recv" % (t, node.node_id))
            if handled < 6000:
                heapq.heappush(queue, (t + 0.01, seq,
                                       nodes[(node.node_id * 7 + s) % 300]))
                seq += 1
        handled += 1
    return len(log)


def reference_s(repeats=3):
    """The fastest of a few timings of the reference load, in seconds."""
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        _reference_load()
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best
