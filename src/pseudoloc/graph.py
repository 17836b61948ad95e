"""Immutable graph core: construction, text formats, leaf stripping,
closed neighbourhoods and distances.

Vertices are dense 0-based integers.  Every graph is simple and connected;
everything downstream relies on both.  `from_edge_list` checks its pairs for
range, self-loops and duplicates, which no graph6 body can encode, and it and
`parse_graph6` build through one core that checks connectivity.  The
package answers pseudotrees only, connected graphs with m <= n: paths,
cycles, trees and unicyclic graphs.  `check_pseudotree` holds that one rule,
and every public function that computes on a graph applies it, directly or
through the leaf stripping.
`kept` is the one per-graph memo: what the package derives from a graph and
reads more than once (the leaf stripping, the distances, the profile, the
strong resolving graph, the k-dimensional value and the oracle's shared
masks) is built on first use and kept on the graph.  `hanging_trees` is the
one leaf stripping: the distances, the cycle, the profile, gamma, the strong
resolving graph and the canonical keys read the core and hanging trees it
finds.

The distance matrix is a tuple of packed rows: row u is one Python integer
with a one-byte field per vertex, field v holding d(u, v), which fits since
no graph exceeds GRAPH_CAP vertices.  Whole-row comparisons and updates are
then a few integer operations instead of a loop over vertices.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

from .errors import (
    Disconnected,
    DuplicateEdge,
    MalformedGraph6,
    NotPseudotree,
    SelfLoop,
    SizeCapExceeded,
    VertexOutOfRange,
)

# fixed: distances stay below 64, so each field of a packed row, and of the
# sums of two rows that the oracle masks read, fits in one byte
GRAPH_CAP = 64
# overrides the oracle cap and the class enumeration caps, never GRAPH_CAP
CAP_ENV_VAR = "PSEUDOLOC_MAX_N"

GRAPH6_HEADER = ">>graph6<<"
_G6_INVALID = re.compile(r"[^?-~]")  # graph6 characters are chr(63)..chr(126)
_G6_BITS = {chr(c): format(c - 63, "06b") for c in range(63, 127)}
_G6_ONE = re.compile("1")
# body bit k = j(j-1)/2 + i is the pair (i, j), i < j: column j holds j bits
_G6_PAIRS = tuple([(i, j) for j in range(1, GRAPH_CAP) for i in range(j)])


def size_cap(default: int) -> int:
    """The PSEUDOLOC_MAX_N override of a search cap, the oracle cap or a
    class enumeration cap, when set; otherwise default.

    Raises ValueError naming the variable unless it is an integer >= 1.
    """
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None or raw == "":
        return default
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"{CAP_ENV_VAR} must be an integer >= 1, got {raw!r}")
    return value


@dataclass(frozen=True)
class Graph:
    """Simple connected undirected graph with sorted adjacency lists."""

    n: int
    adjacency: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int], ...]

    @property
    def m(self) -> int:
        return len(self.edges)

    def max_degree(self) -> int:
        return max(map(len, self.adjacency), default=0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, edges={list(self.edges)})"


def check_pseudotree(g: Graph) -> None:
    """The one input rule: raise NotPseudotree unless m <= n."""
    if g.m > g.n:
        raise NotPseudotree(f"m={g.m} > n={g.n}: not a pseudotree")


def kept(g: Graph, build):
    """build(g), built on the first call for g and kept on g: every later
    call with the same build returns the same object.

    The entry is keyed by the function object itself, so a name rebound to
    another function (a tracer's or a test's wrapper) builds and keeps its
    own.  It sits in g.__dict__ beside the fields, outside eq and hash.
    """
    memo = g.__dict__
    try:
        return memo[build]
    except KeyError:
        value = memo[build] = build(g)
        return value


def pack_row(values) -> int:
    return int.from_bytes(bytes(values), "little")


def _check_connected(n: int, adjacency: list[list[int]]) -> bool:
    seen = [False] * n
    seen[0] = True
    order = [0]
    for u in order:  # order grows while it is walked: it is the queue
        for w in adjacency[u]:
            if not seen[w]:
                seen[w] = True
                order.append(w)
    return len(order) == n


def _graph(n: int, canonical: list[tuple[int, int]]) -> Graph:
    """The Graph on 0..n-1 with these distinct pairs (u, v), u < v, all in
    range: sorted, then the ascending adjacency, then the connectivity check."""
    canonical.sort()
    adjacency: list[list[int]] = [[] for _ in range(n)]
    # ascending lists: v gets its smaller neighbours from edges (u, v), then
    # its larger ones from edges (v, w), each in sorted edge order
    for u, v in canonical:
        adjacency[u].append(v)
        adjacency[v].append(u)
    if not _check_connected(n, adjacency):
        raise Disconnected(f"graph on {n} vertices is not connected")
    return Graph(n=n, adjacency=tuple(map(tuple, adjacency)), edges=tuple(canonical))


def from_edge_list(n: int, pairs) -> Graph:
    """Build the canonical Graph on vertices 0..n-1 from unordered pairs.

    Rejects self-loops, duplicate edges, out-of-range endpoints and
    disconnected input.
    """
    if n < 1:
        raise VertexOutOfRange(f"vertex count must be >= 1, got {n}")
    if n > GRAPH_CAP:
        raise SizeCapExceeded(f"n={n} exceeds graph cap {GRAPH_CAP}")
    seen: set[tuple[int, int]] = set()
    canonical: list[tuple[int, int]] = []
    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < n):
            raise VertexOutOfRange(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise SelfLoop(f"self-loop at vertex {u}")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise DuplicateEdge(f"edge {e} listed twice")
        seen.add(e)
        canonical.append(e)
    return _graph(n, canonical)


def parse_edgelist(text: str) -> Graph:
    """Parse the plain edge-list format: first line n, then one "u v" per line.

    '#' starts a comment (whole line or trailing).
    """
    tokens: list[str] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            tokens.append(line)
    if not tokens:
        raise MalformedGraph6("empty edge-list input")
    try:
        n = int(tokens[0])
    except ValueError as exc:
        raise MalformedGraph6(f"expected vertex count, got {tokens[0]!r}") from exc
    pairs = []
    for line in tokens[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise MalformedGraph6(f"expected 'u v' pair, got {line!r}")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise MalformedGraph6(f"non-integer endpoint in {line!r}") from exc
    return from_edge_list(n, pairs)


def _g6_encode_n(n: int) -> str:
    if n <= 62:
        return chr(n + 63)
    # 63..258047: '~' then 18 bits in three 6-bit groups
    return "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))


def encode_graph6(g: Graph) -> str:
    """Encode per the standard graph6 format (6-bit groups, bias 63): bit
    j(j-1)/2 + i of the body, from the top, is set iff g has edge (i, j), i < j."""
    groups = (g.n * (g.n - 1) // 2 + 5) // 6
    top = 6 * groups - 1
    body = 0
    for i, j in g.edges:
        body |= 1 << top - j * (j - 1) // 2 - i
    return _g6_encode_n(g.n) + "".join([chr((body >> s & 63) + 63) for s in range(top - 5, -1, -6)])


def parse_graph6(text: str) -> Graph:
    """Decode a graph6 line (optional '>>graph6<<' header) into a Graph.
    Checks the header, characters, order, body length, padding and graph cap;
    a body holds each pair i < j < n at most once, so no loop, duplicate or
    out-of-range endpoint, and of from_edge_list's checks only connectivity runs.
    One scan finds the set bits of the joined body; _G6_PAIRS maps each to its pair."""
    s = text.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER) :]
    if not s:
        raise MalformedGraph6("empty graph6 input")
    bad = _G6_INVALID.search(s)
    if bad:
        raise MalformedGraph6(f"invalid graph6 character {bad.group()!r}")
    if s[0] == "~":
        if len(s) >= 2 and s[1] == "~":
            raise MalformedGraph6("graph6 orders above 258047 are not supported")
        if len(s) < 4:
            raise MalformedGraph6("truncated graph6 order field")
        n = 0
        for ch in s[1:4]:
            n = (n << 6) | (ord(ch) - 63)
        body = s[4:]
    else:
        n = ord(s[0]) - 63
        body = s[1:]
    if n < 1:
        raise MalformedGraph6(f"graph6 order {n} out of range")
    if n > GRAPH_CAP:
        raise SizeCapExceeded(f"graph6 order {n} exceeds graph cap {GRAPH_CAP}")
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(body) != nbytes:
        raise MalformedGraph6(
            f"graph6 body has {len(body)} bytes, expected {nbytes} for n={n}"
        )
    bits = "".join(map(_G6_BITS.__getitem__, body))  # body bit k is bits[k]
    if "1" in bits[nbits:]:
        raise MalformedGraph6("nonzero padding bits in graph6 body")
    return _graph(n, [_G6_PAIRS[m.start()] for m in _G6_ONE.finditer(bits)])


def closed_neighbourhoods(g: Graph) -> list[int]:
    """N[v] of every vertex v, as bitmasks."""
    masks = []
    for v in range(g.n):
        mask = 1 << v
        for w in g.adjacency[v]:
            mask |= 1 << w
        masks.append(mask)
    return masks


def hanging_trees(g: Graph) -> tuple[tuple[int, ...], ...]:
    """The core of a pseudotree g and the trees hanging off it, by the one
    leaf stripping.

    Degree-1 vertices are removed until none is left.  Returns (core, order,
    parent, root, depth), each a tuple.  core is the cycle of a unicyclic
    graph, walked from its smallest vertex and stepping first to the smaller
    of that vertex's two cycle neighbours, or the last stripped vertex of a
    tree (0 for a single vertex).  order lists every other vertex as it was
    stripped, children before parents; parent[u] is the neighbour u still
    had when it went (-1 on the core), root[x] the core vertex whose hanging
    tree holds x, and depth[x] the distance from x to root[x], 0 exactly on
    the core.  Raises NotPseudotree when m > n.

    The stripping runs once per Graph (kept): every later call on the same
    graph returns the same tuples.
    """
    return kept(g, _strip_leaves)


def _strip_leaves(g: Graph) -> tuple[tuple[int, ...], ...]:
    check_pseudotree(g)
    n, adjacency = g.n, g.adjacency
    degree = list(map(len, adjacency))
    alive = [True] * n
    parent = [-1] * n
    order = [v for v in range(n) if degree[v] == 1]
    for u in order:  # order grows while it is walked: it is the queue
        alive[u] = False
        for w in adjacency[u]:
            if alive[w]:
                parent[u] = w
                degree[w] -= 1
                if degree[w] == 1:
                    order.append(w)
    if g.m == n:  # the core is the cycle: walk it
        core = [alive.index(True)]
        prev, cur = core[0], next(w for w in adjacency[core[0]] if alive[w])
        while cur != core[0]:
            core.append(cur)
            for w in adjacency[cur]:  # the cycle neighbour not just left
                if alive[w] and w != prev:
                    break
            prev, cur = cur, w
    else:
        core = [order.pop() if order else 0]
    root = list(range(n))
    depth = [0] * n
    for u in reversed(order):
        p = parent[u]
        root[u] = root[p]
        depth[u] = depth[p] + 1
    return tuple(core), tuple(order), tuple(parent), tuple(root), tuple(depth)


def distance_matrix(g: Graph) -> tuple[int, ...]:
    """Exact hop distances between all vertex pairs of a pseudotree, as the
    tuple of packed rows: field v of row u holds d(u, v).

    Each vertex x hangs off its core vertex r = root[x] by bridges
    (hanging_trees), so a core vertex c is at d_core(c, r) + depth(x) from x.
    Every vertex w off the core hangs off its parent p by a bridge: w is one
    closer than p to the vertices on its side of the bridge and one farther
    from all others, so in packed form row[w] = row[p] + ONES - 2 * BELOW[w].
    No field borrows, since each vertex below w is at least 1 from p.

    The core is a cycle c_0 .. c_{g-1}, or a tree's centre (g = 1).  Row c_0
    is min(i, g - i) + depth in the field of each vertex hanging off c_i.
    From c_i to c_{i+1}, the vertices hanging off c_{i+1} .. c_{i+g//2}, the
    arc, get one closer; for odd g those off c_{i+g//2+1} stay as far; all
    others get one farther:
    row[c_{i+1}] = row[c_i] + ONES - 2 * ARC - [g odd] * HANG[c_{i+g//2+1}],
    with HANG[c] the ones in the fields of the tree hanging off c.
    """
    n = g.n
    core, order, parent, root, depth = hanging_trees(g)
    twice_below = [2 << 8 * v for v in range(n)]
    for u in order:  # children go before their parents
        twice_below[parent[u]] += twice_below[u]
    packed = [0] * n
    ones = pack_row(b"\x01" * n)
    cyc, half = len(core), len(core) // 2
    step = [0] * n
    for i, c in enumerate(core):
        step[c] = min(i, cyc - i)
    row = packed[core[0]] = pack_row([step[r] + h for r, h in zip(root, depth)])
    twice_hang = [twice_below[c] for c in core]  # twice_below of a core vertex is 2 * HANG
    twice_arc = sum(twice_hang[1 : half + 1])
    for i in range(1, cyc):
        entering = twice_hang[(i + half) % cyc]  # the arc's next vertex
        row += ones - twice_arc
        if cyc & 1:
            row -= entering >> 1
        packed[core[i]] = row
        twice_arc += entering - twice_hang[i]
    for u in reversed(order):
        packed[u] = packed[parent[u]] + ones - twice_below[u]
    return tuple(packed)

