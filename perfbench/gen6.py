"""Seeded pseudotree inputs for the benchmark, emitted as graph6 lines.

The generator is independent of pseudoloc so that the inputs of a seed stay
fixed while the library changes: a uniform labelled tree from a random
Prüfer sequence, plus, for a unicyclic graph, one chord drawn uniformly from
the tree's non-edges.  Both draws use ``random.Random(seed)``.
"""

from __future__ import annotations

import heapq
import random


def prufer_tree(seq: list[int], n: int) -> list[tuple[int, int]]:
    """Edges of the labelled tree on n >= 2 vertices with Prüfer sequence seq."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        edges.append((heapq.heappop(leaves), x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def random_pseudotree(rng: random.Random, n: int, unicyclic: bool) -> list[tuple[int, int]]:
    """Edge list of a random tree, or of a random tree plus one chord."""
    edges = prufer_tree([rng.randrange(n) for _ in range(n - 2)], n)
    if unicyclic:
        present = {(min(u, v), max(u, v)) for u, v in edges}
        non_edges = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in present]
        edges.append(non_edges[rng.randrange(len(non_edges))])
    return edges


def encode_graph6(n: int, edges) -> str:
    """graph6 text of a simple graph on vertices 0..n-1 (n <= 258047)."""
    if n <= 62:
        head = [n]
    else:
        head = [63, (n >> 12) & 63, (n >> 6) & 63, n & 63]
    # bit (i, j), i < j, sits at position j(j-1)/2 + i of the upper triangle, by columns
    nbytes = (n * (n - 1) // 2 + 5) // 6
    bits = 0
    for u, v in edges:
        i, j = min(u, v), max(u, v)
        bits |= 1 << (6 * nbytes - 1 - (j * (j - 1) // 2 + i))
    body = [(bits >> (6 * (nbytes - 1 - k))) & 63 for k in range(nbytes)]
    return "".join(chr(63 + x) for x in head + body)


def graph6_lines(seed: int, n: int, count: int) -> list[str]:
    """count graphs on n vertices: even positions are trees, odd ones unicyclic."""
    rng = random.Random(seed)
    return [encode_graph6(n, random_pseudotree(rng, n, i % 2 == 1)) for i in range(count)]
