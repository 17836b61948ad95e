"""Shared fixtures: named spec graphs, exhaustive oracles, cached corpora,
and the candidate-and-dedup class enumeration that corpus generation replaced."""

from __future__ import annotations

import functools
import importlib
import itertools
import operator
import random
from collections import deque

import pytest

from pseudoloc import (
    FamilyKind,
    Graph,
    PseudotreeProfile,
    distance_matrix,
    enumerate_trees,
    enumerate_unicyclic,
    from_edge_list,
    hanging_trees,
    profile,
    random_pseudotree,
)
from pseudoloc.graph import pack_row

# rows of plain distances: row u holds d(u, v) at v
Rows = tuple[tuple[int, ...], ...]


def count_calls(monkeypatch, name: str, modules) -> list[Graph]:
    """The graphs passed to pseudoloc function `name` at each of its bindings
    in `modules`, which must name every module that can call it."""
    calls = []
    real = getattr(importlib.import_module(f"pseudoloc.{modules[0]}"), name)

    def counting(g, *args):
        calls.append(g)
        return real(g, *args)

    for module in modules:
        monkeypatch.setattr(importlib.import_module(f"pseudoloc.{module}"), name, counting)
    return calls


def path_graph(n: int) -> Graph:
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def relabelled_cycles() -> list[Graph]:
    """Cycles of odd and even order whose labels do not follow the walk
    round them: C_n with its labels shuffled by random.Random(n)."""
    graphs = []
    for n in (5, 8, 11, 14, 33, 64):
        label = list(range(n))
        random.Random(n).shuffle(label)
        graphs.append(from_edge_list(n, [(label[i], label[(i + 1) % n]) for i in range(n)]))
    return graphs


def paths_and_cycles() -> list[Graph]:
    """P2-P64, C3-C64 and the relabelled cycles."""
    graphs = [path_graph(n) for n in range(2, 65)]
    return graphs + [cycle_graph(n) for n in range(3, 65)] + relabelled_cycles()


def random_pseudotrees(n: int, count: int) -> list[Graph]:
    """Seeds 0..count-1, trees at even seeds and unicyclic graphs at odd ones."""
    families = ("tree", "unicyclic")
    return [
        random_pseudotree(families[seed % 2], n, random.Random(seed))
        for seed in range(count)
    ]


def twin_free_bicyclic_graphs() -> list[Graph]:
    """Two twin-free graphs with m = n + 1, outside the pseudotrees the
    package takes.  The fewest resolvers of a pair in each, 5, are those of
    a pair at distance 3 with 2 + deg x + deg y = 5, while every pair within
    distance 2 has 6: a count over the near pairs alone would miss them, as
    on the 13-vertex unicyclic graph of test_packed_rows."""
    return [
        from_edge_list(9, [(0, 7), (1, 4), (1, 5), (1, 7), (2, 3), (2, 6), (2, 7), (4, 6), (4, 8), (6, 8)]),
        from_edge_list(
            10, [(0, 1), (0, 3), (0, 8), (1, 3), (2, 5), (2, 7), (2, 8), (3, 5), (4, 8), (4, 9), (5, 6)]
        ),
    ]


@pytest.fixture
def p4() -> Graph:
    return path_graph(4)


@pytest.fixture
def paw() -> Graph:
    # triangle 0-1-2 plus pendant 3 at 0
    return from_edge_list(4, [(0, 1), (1, 2), (2, 0), (0, 3)])


@pytest.fixture
def c4() -> Graph:
    return cycle_graph(4)


@pytest.fixture
def c5() -> Graph:
    return cycle_graph(5)


@pytest.fixture
def c6() -> Graph:
    return cycle_graph(6)


@pytest.fixture
def k13() -> Graph:
    return from_edge_list(4, [(0, 1), (0, 2), (0, 3)])


@pytest.fixture
def spider122() -> Graph:
    # center 0; legs 0-1, 0-2-3, 0-4-5
    return from_edge_list(6, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5)])


@pytest.fixture
def c5p13() -> Graph:
    # C5 on 0..4 with pendants 5 at 0 and 6 at 2
    return from_edge_list(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (2, 6)])


@pytest.fixture
def c4p() -> Graph:
    # C4 on 0..3 with pendant 4 at 0
    return from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])


@pytest.fixture
def c4pp() -> Graph:
    # C4 on 0..3 with pendants at 0 and 1
    return from_edge_list(6, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 5)])


def branching_showcase_graph() -> Graph:
    """Proper unicyclic graph reproducing the reference statistics
    g=8, l=10, lambda=6, l_s=8, lambda_s=4, c2=3, c3=5, rho=3."""
    edges = [(i, (i + 1) % 8) for i in range(8)]
    edges += [(0, 8)]  # thread of length 1 at 0
    edges += [(1, 9), (9, 10)]  # thread of length 2 at 1
    edges += [(2, 11), (2, 12)]  # two pendants at 2 (branch-active, strong)
    edges += [(3, 13), (13, 14), (13, 15)]  # cherry behind 3
    edges += [(4, 16), (16, 17), (16, 18)]  # cherry behind 4
    edges += [(4, 19), (19, 20), (19, 21)]  # second cherry at 4
    return from_edge_list(22, edges)


def thread_gap_c14_graph() -> Graph:
    """C14 with a pendant at every vertex except the antipodal pair {0, 7}."""
    edges = [(i, (i + 1) % 14) for i in range(14)]
    nxt = 14
    for i in range(14):
        if i in (0, 7):
            continue
        edges.append((i, nxt))
        nxt += 1
    return from_edge_list(nxt, edges)


@pytest.fixture
def branching_showcase() -> Graph:
    return branching_showcase_graph()


@pytest.fixture
def thread_gap_c14() -> Graph:
    return thread_gap_c14_graph()


# definitional predicates: the oracle's reference, sharing no code with it


# each takes rows of plain distances, dm[x][v] = d(x, v): unpacked or BFS rows


def resolves(dm: Rows, v: int, x: int, y: int) -> bool:
    return dm[x][v] != dm[y][v]


def doubly_resolves(dm: Rows, u: int, v: int, x: int, y: int) -> bool:
    return dm[x][u] - dm[x][v] != dm[y][u] - dm[y][v]


def strong_resolves(dm: Rows, w: int, x: int, y: int) -> bool:
    dxy = dm[x][y]
    return dm[w][x] == dm[w][y] + dxy or dm[w][y] == dm[w][x] + dxy


def edge_distance(dm: Rows, v: int, e: tuple[int, int]) -> int:
    return min(dm[v][e[0]], dm[v][e[1]])


# references for the closed forms: parity (ldim), zeta (dimk), the necklace (sdim)


def is_bipartite(g: Graph) -> bool:
    """BFS parity check for 2-colourability."""
    color = [-1] * g.n
    color[0] = 0
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for w in g.adjacency[u]:
            if color[w] < 0:
                color[w] = color[u] ^ 1
                queue.append(w)
            elif color[w] == color[u]:
                return False
    return True


def tree_zeta(prof: PseudotreeProfile, dm: Rows) -> int:
    """The paper's zeta: the largest k for which a non-path tree admits a
    k-locating set, the least sum of the two nearest terminal distances of a
    strong exterior major vertex."""
    zeta = None
    for w in prof.strong_exterior_major:
        dists = sorted(dm[u][w] for u in prof.terminal_map[w])
        cand = dists[0] + dists[1]
        if zeta is None or cand < zeta:
            zeta = cand
    if zeta is None:
        raise ValueError("tree has no strong exterior major vertex")
    return zeta


class NotProperUnicyclic(Exception):
    """closed_necklace was given a tree or a cycle."""


def closed_necklace(g: Graph) -> tuple[Graph, dict[int, int]]:
    """Replace every branching tree by a star with the same leaf count.

    Returns the necklace graph plus the vertex correspondence: cycle
    vertices and original leaves map to their necklace counterparts.
    """
    prof = profile(g)
    if prof.kind is not FamilyKind.PROPER_UNICYCLIC:
        raise NotProperUnicyclic(f"closed necklace requires a proper unicyclic graph, got {prof.kind.value}")
    gsize = prof.girth
    mapping: dict[int, int] = {v: i for i, v in enumerate(prof.cycle)}
    edges = [(i, (i + 1) % gsize) for i in range(gsize)]
    next_id = gsize
    root = hanging_trees(g)[3]
    for i, v in enumerate(prof.cycle):
        for leaf in (u for u in prof.leaves if root[u] == v):
            mapping[leaf] = next_id
            edges.append((i, next_id))
            next_id += 1
    return from_edge_list(next_id, edges), mapping


# exhaustive reference oracles, independent of the solvers under test


def alpha_by_enumeration(vertices, edges) -> int:
    vertices = list(vertices)
    edge_set = {frozenset(e) for e in edges}
    for size in range(len(vertices), -1, -1):
        for combo in itertools.combinations(vertices, size):
            chosen = set(combo)
            if not any(frozenset(e) <= chosen for e in edge_set):
                return size
    return 0


def alpha_by_branch_and_bound(vertices, edges) -> int:
    """Independence number by branch and bound on a maximum-degree vertex,
    with memoized component decomposition: the library's solver before the
    clique search replaced it, kept as a second reference that scales past
    enumeration."""
    index = {v: i for i, v in enumerate(vertices)}
    nbr = [0] * len(index)
    for u, v in edges:
        nbr[index[u]] |= 1 << index[v]
        nbr[index[v]] |= 1 << index[u]
    memo: dict[int, int] = {}

    def alpha(mask: int) -> int:
        if mask == 0:
            return 0
        if mask in memo:
            return memo[mask]
        comp = frontier = mask & -mask  # grow one connected component
        while frontier:
            grow = 0
            for i in range(len(nbr)):
                if frontier >> i & 1:
                    grow |= nbr[i] & mask
            frontier = grow & ~comp
            comp |= frontier
        if comp != mask:
            result = alpha(comp) + alpha(mask ^ comp)
        else:
            members = [i for i in range(len(nbr)) if mask >> i & 1]
            best = max(members, key=lambda i: (nbr[i] & mask).bit_count())
            if (nbr[best] & mask).bit_count() <= 1:
                # isolated vertices and disjoint edges: one vertex per edge
                edges_left = sum((nbr[i] & mask).bit_count() for i in members) // 2
                result = len(members) - edges_left
            else:
                result = max(
                    alpha(mask & ~(1 << best)),
                    1 + alpha(mask & ~(nbr[best] | 1 << best)),
                )
        memo[mask] = result
        return result

    return alpha((1 << len(nbr)) - 1)


def neighbour_rows(n: int, edges) -> tuple[int, ...]:
    """The bitmask row of each vertex 0..n-1: bit w of row v is set iff vw is an edge."""
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return tuple(rows)


def pairs_of_rows(rows) -> list[tuple[int, int]]:
    """The pairs u < v with bit v of rows[u] set, in lexicographic order."""
    return [(u, v) for u, row in enumerate(rows) for v in range(u + 1, len(rows)) if row >> v & 1]


def gamma_by_enumeration(g: Graph) -> int:
    closed = [set(g.adjacency[v]) | {v} for v in range(g.n)]
    everything = set(range(g.n))
    for size in range(1, g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            covered = set()
            for v in combo:
                covered |= closed[v]
            if covered == everything:
                return size
    return g.n


def _locates(g: Graph, dm, s: tuple[int, ...], param: str, k) -> bool:
    """The definition of each parameter, pair by pair, straight from the
    predicates; k is dimk's k."""
    pairs = list(itertools.combinations(range(g.n), 2))
    if param == "dmd":
        return all(any(doubly_resolves(dm, u, v, x, y) for u in s for v in s) for x, y in pairs)
    if param == "sdim":
        return all(any(strong_resolves(dm, w, x, y) for w in s) for x, y in pairs)
    if param in ("edim", "mdim"):
        items = list(g.edges) if param == "edim" else list(range(g.n)) + list(g.edges)

        def dist(v, item):
            return edge_distance(dm, v, item) if isinstance(item, tuple) else dm[v][item]

        return all(
            any(dist(v, a) != dist(v, b) for v in s) for a, b in itertools.combinations(items, 2)
        )
    if param == "ldim":
        pairs = list(g.edges)
    need = k if param == "dimk" else 1
    if not all(sum(1 for v in s if resolves(dm, v, x, y)) >= need for x, y in pairs):
        return False
    if param == "ddim":
        dominated = set(s).union(*(g.adjacency[v] for v in s))
        return len(dominated) == g.n
    return True


def dimension_by_enumeration(g: Graph, param: str, k=None) -> tuple[int, tuple[int, ...]]:
    """(size, witness): the first locating set in size-ascending
    itertools.combinations order, tested with the definitional predicates."""
    dm = unpacked(distance_matrix(g))
    for size in range(1, g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            if _locates(g, dm, combo, param, k):
                return size, combo
    raise AssertionError(f"no locating set for {param} k={k}")


# definitional references for the packed-row kernels: plain loops over
# vertices and vertex pairs, no packed rows


def distance_rows_by_bfs(g: Graph) -> tuple[tuple[int, ...], ...]:
    """All-pairs distances by one breadth-first search per source."""
    rows = []
    for src in range(g.n):
        dist = [-1] * g.n
        dist[src] = 0
        queue = [src]
        for u in queue:
            for w in g.adjacency[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        rows.append(tuple(dist))
    return tuple(rows)


def antipodal_pairs_by_bfs(g: Graph, subset) -> list[tuple[int, int]]:
    """The pairs of `subset`, cycle vertices of a unicyclic graph, at
    distance floor(g/2) for girth g, in combinations order of the sorted
    subset; a shortest path between two cycle vertices runs on the cycle."""
    half = len(_trimmed_adjacency(g)[0]) // 2
    rows = distance_rows_by_bfs(g)
    return [(u, v) for u, v in itertools.combinations(sorted(subset), 2) if rows[u][v] == half]


def geodesic_triples_by_bfs(g: Graph, subset) -> list[tuple[int, int, int]]:
    """The triples of `subset`, cycle vertices of a unicyclic graph, whose
    distances sum to the girth, in combinations order of the sorted subset."""
    girth = len(_trimmed_adjacency(g)[0])
    rows = distance_rows_by_bfs(g)
    return [
        (u, v, w)
        for u, v, w in itertools.combinations(sorted(subset), 3)
        if rows[u][v] + rows[v][w] + rows[w][u] == girth
    ]


def packed_matrix(rows) -> tuple[int, ...]:
    """The packed rows holding the given rows of distances."""
    return tuple(map(pack_row, rows))


def unpacked(dm: tuple[int, ...]) -> Rows:
    """The rows of plain distances of packed rows: row u holds d(u, v) at v."""
    n = len(dm)
    return tuple(tuple(row.to_bytes(n, "little")) for row in dm)


def k_dimensional_by_pairs(rows) -> int:
    """The fewest vertices resolving a pair, over all pairs."""
    return min(
        sum(map(operator.ne, rows[x], rows[y])) for x, y in itertools.combinations(range(len(rows)), 2)
    )


def mmd_pairs_by_definition(g: Graph, rows) -> list[tuple[int, int]]:
    """Pairs u < v where no neighbour of v is farther from u, and vice versa."""
    return [
        (u, v)
        for u, v in itertools.combinations(range(g.n), 2)
        if all(rows[u][w] <= rows[u][v] for w in g.adjacency[v])
        and all(rows[v][w] <= rows[u][v] for w in g.adjacency[u])
    ]


def twin_pairs_by_definition(g: Graph) -> list[tuple[int, int]]:
    """Pairs u < v with N(u) = N(v) or N[u] = N[v]."""
    nbrs = [set(a) for a in g.adjacency]
    return [
        (u, v)
        for u, v in itertools.combinations(range(g.n), 2)
        if nbrs[u] == nbrs[v] or nbrs[u] | {u} == nbrs[v] | {v}
    ]


def terminal_map_by_distances(g: Graph) -> dict[int, tuple[int, ...]]:
    """Each leaf under its unique nearest major vertex by BFS distance; a leaf
    with no major vertex, or with two at the least distance, is left out."""
    rows = distance_rows_by_bfs(g)
    majors = [v for v in range(g.n) if len(g.adjacency[v]) >= 3]
    out: dict[int, list[int]] = {}
    for u in range(g.n):
        if len(g.adjacency[u]) != 1 or not majors:
            continue
        nearest = min(rows[u][w] for w in majors)
        at_nearest = [w for w in majors if rows[u][w] == nearest]
        if len(at_nearest) == 1:
            out.setdefault(at_nearest[0], []).append(u)
    return {w: tuple(leaves) for w, leaves in out.items()}


@functools.lru_cache(maxsize=1)
def _pairs_resolved_by_definition(g: Graph, items: str) -> dict[tuple, int]:
    """For items "vertices", "edges" or "mixed" (vertices, then edges): each
    pair of items (a, b), a before b, mapped to the mask of vertices whose
    distances to a and b differ (`resolves`, `edge_distance`).  A vertex v
    leaves unresolved exactly the pairs inside one class of items at equal
    distance from v.  The last result is kept, since dim, dimk, ddim and
    ldim read the same vertex pairs."""
    dm = distance_rows_by_bfs(g)
    listed: list = list(range(g.n)) if items != "edges" else []
    if items != "vertices":
        listed += list(g.edges)
    unresolved: dict[tuple, int] = {}
    for v in range(g.n):
        at: dict[int, list] = {}
        for it in listed:
            d = edge_distance(dm, v, it) if isinstance(it, tuple) else dm[it][v]
            at.setdefault(d, []).append(it)
        for same in at.values():
            for pair in itertools.combinations(same, 2):
                unresolved[pair] = unresolved.get(pair, 0) | 1 << v
    full = (1 << g.n) - 1
    return {pair: full & ~unresolved.get(pair, 0) for pair in itertools.combinations(listed, 2)}


def constraint_masks_by_definition(g: Graph, param: str, k=None) -> tuple[list[int], int]:
    """(sorted masks, need) of the oracle's cover problem for param (k is
    dimk's k), from the predicates over BFS rows, with no packed rows.

    Each pair to tell apart gives the mask of the vertices that resolve it;
    for sdim, those that `strong_resolves` it; for dmd, the complement of
    each class of at least two vertices no two of which `doubly_resolves`
    it, and on two or more vertices the complement of each vertex, since
    one vertex doubly resolves no pair.  ddim adds the closed neighbourhoods.
    """
    n = g.n
    need = k if param == "dimk" else 1

    def mask(members) -> int:
        return sum(1 << v for v in members)

    if param in ("sdim", "dmd"):
        dm = distance_rows_by_bfs(g)
        pairs = list(itertools.combinations(range(n), 2))
    if param == "sdim":
        masks = [mask(w for w in range(n) if strong_resolves(dm, w, x, y)) for x, y in pairs]
    elif param == "dmd":
        full = (1 << n) - 1
        masks = []
        for x, y in pairs:
            placed = 0
            for u in range(n):
                if not placed >> u & 1:
                    level = mask(v for v in range(n) if not doubly_resolves(dm, u, v, x, y))
                    placed |= level
                    if level.bit_count() >= 2:
                        masks.append(full & ~level)
        if n >= 2:
            masks += [full & ~(1 << v) for v in range(n)]
    elif param == "ldim":
        resolved = _pairs_resolved_by_definition(g, "vertices")
        masks = [resolved[e] for e in g.edges]
    else:
        items = {"edim": "edges", "mdim": "mixed"}.get(param, "vertices")
        masks = list(_pairs_resolved_by_definition(g, items).values())
        if param == "ddim":
            masks += [mask((v,) + g.adjacency[v]) for v in range(n)]
    return sorted(masks), need


# reference canonical keys and class enumeration, sharing no code with
# pseudoloc.corpus: recursive subtree codes from the centres that layer-by-layer
# leaf peeling leaves; leaf growth for trees, one chord on every tree class for
# unicyclic graphs, the first candidate of each canonical key kept, relabelled
# by the reference forms


def _tree_code(adj: dict[int, list[int]], root: int, parent: int) -> tuple:
    children = sorted(
        (_tree_code(adj, w, root) for w in adj[root] if w != parent),
    )
    return tuple(children)


def _tree_centers(n: int, adj: dict[int, list[int]]) -> list[int]:
    if n == 1:
        return [0]
    degree = {v: len(adj[v]) for v in adj}
    layer = [v for v in adj if degree[v] == 1]
    remaining = n
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for v in layer:
            degree[v] = 0
            for w in adj[v]:
                if degree[w] > 1:
                    degree[w] -= 1
                    if degree[w] == 1:
                        nxt.append(w)
        layer = nxt
    return sorted(layer)


def _trimmed_adjacency(g: Graph) -> tuple[list[int], dict[int, list[int]]]:
    """The cycle of a unicyclic graph, found by peeling leaves one at a time
    and walking what is left, and the adjacency without its edges: from a
    cycle vertex it reaches exactly that vertex's branching tree."""
    left = {v: set(nbrs) for v, nbrs in enumerate(g.adjacency)}
    leaves = [v for v in left if len(left[v]) == 1]
    while leaves:
        (w,) = left.pop(leaves.pop())
        left[w] &= left.keys()
        if len(left[w]) == 1:
            leaves.append(w)
    cycle = [min(left)]
    step = min(left[cycle[0]])
    while step != cycle[0]:
        cycle.append(step)
        (step,) = left[step] - {cycle[-2]}
    on_cycle = set(cycle)
    trimmed = {
        x: [w for w in nbrs if not (x in on_cycle and w in on_cycle)]
        for x, nbrs in enumerate(g.adjacency)
    }
    return cycle, trimmed


def reference_tree_key(g: Graph) -> tuple:
    """tree_canonical_key by recursion from the peeled centres."""
    adj = {v: list(g.adjacency[v]) for v in range(g.n)}
    centers = _tree_centers(g.n, adj)
    if len(centers) == 1:
        return ("c1", _tree_code(adj, centers[0], -1))
    a, b = centers
    return ("c2",) + tuple(sorted([_tree_code(adj, a, b), _tree_code(adj, b, a)]))


def reference_unicyclic_key(g: Graph) -> tuple:
    """unicyclic_canonical_key by recursion over the trimmed adjacency."""
    cycle, trimmed = _trimmed_adjacency(g)
    codes = [_tree_code(trimmed, v, -1) for v in cycle]
    rotations = (seq[i:] + seq[:i] for seq in (codes, codes[::-1]) for i in range(len(seq)))
    return (len(cycle), tuple(min(rotations)))


def _relabel_rooted(adj: dict[int, list[int]], root: int, parent: int, order: list[int]) -> None:
    order.append(root)
    children = sorted(
        ((w, _tree_code(adj, w, root)) for w in adj[root] if w != parent),
        key=lambda t: t[1],
    )
    for w, _ in children:
        _relabel_rooted(adj, w, root, order)


def reference_tree_form(g: Graph) -> Graph:
    """The tree relabelled in preorder from its centre, children in code
    order; of two centres, the one whose half has the lesser code."""
    adj = {v: list(g.adjacency[v]) for v in range(g.n)}
    centers = _tree_centers(g.n, adj)
    if len(centers) == 1:
        root = centers[0]
    else:
        a, b = centers
        root = a if _tree_code(adj, a, b) <= _tree_code(adj, b, a) else b
    order: list[int] = []
    _relabel_rooted(adj, root, -1, order)
    new_id = {v: i for i, v in enumerate(order)}
    return from_edge_list(g.n, [(new_id[u], new_id[v]) for u, v in g.edges])


def reference_unicyclic_form(g: Graph) -> Graph:
    """The graph relabelled with its cycle first, in the rotation or
    reflection whose branching-tree codes are least, then each branching
    tree in preorder, children in code order."""
    cycle, trimmed = _trimmed_adjacency(g)
    codes = {v: _tree_code(trimmed, v, -1) for v in cycle}
    best, best_order = None, cycle
    for seq in (cycle, cycle[::-1]):
        for shift in range(len(seq)):
            rotated = seq[shift:] + seq[:shift]
            key = tuple([codes[v] for v in rotated])
            if best is None or key < best:
                best, best_order = key, rotated
    tails: list[list[int]] = []
    for v in best_order:
        tail: list[int] = []
        _relabel_rooted(trimmed, v, -1, tail)
        tails.append(tail)
    order = [t[0] for t in tails]
    for t in tails:
        order.extend(t[1:])
    new_id = {v: i for i, v in enumerate(order)}
    return from_edge_list(g.n, [(new_id[u], new_id[v]) for u, v in g.edges])


def reference_tree_classes(max_n: int) -> dict[int, list[Graph]]:
    """The tree classes on 2..max_n vertices, keys ascending: each order
    grows every class of the one before by a leaf."""
    levels = {2: [from_edge_list(2, [(0, 1)])]}
    for n in range(3, max_n + 1):
        reps: dict[tuple, Graph] = {}
        for smaller in levels[n - 1]:
            for v in range(smaller.n):
                grown = from_edge_list(n, list(smaller.edges) + [(v, n - 1)])
                key = reference_tree_key(grown)
                if key not in reps:
                    reps[key] = reference_tree_form(grown)
        levels[n] = [reps[k] for k in sorted(reps)]
    return levels


def reference_unicyclic_classes(n: int, trees: list[Graph]) -> list[Graph]:
    """The unicyclic classes on n vertices, keys ascending, from the tree
    classes on n vertices plus one chord."""
    reps: dict[tuple, Graph] = {}
    for tree in trees:
        edge_set = set(tree.edges)
        for u in range(n):
            for v in range(u + 1, n):
                if (u, v) in edge_set:
                    continue
                candidate = from_edge_list(n, list(tree.edges) + [(u, v)])
                key = reference_unicyclic_key(candidate)
                if key not in reps:
                    reps[key] = reference_unicyclic_form(candidate)
    return [reps[key] for key in sorted(reps)]


# cached corpora shared across test modules


@pytest.fixture(scope="session")
def tree_classes_by_n() -> dict[int, list[Graph]]:
    return {n: list(enumerate_trees(n, dedup=True)) for n in range(2, 10)}


@pytest.fixture(scope="session")
def unicyclic_classes_by_n() -> dict[int, list[Graph]]:
    return {n: list(enumerate_unicyclic(n, dedup=True)) for n in range(3, 10)}
