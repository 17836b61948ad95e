"""Structural statistics of pseudotrees and the derived constructions.

Family classification; the profile, what a theorem conditions on (leaves,
supports, exterior major vertices, branch-active vertices, trivial and root
cycle vertices, leg lengths), kept on the graph, with its two tests of a set
of cycle vertices; profile_json, which adds what only `pseudoloc profile`
prints; the strong resolving graph; and exact solvers for alpha (a bitset
maximum-clique search) and gamma (a linear-time dynamic programme).
Nothing here reads distances.  The profile's terminal vertex of a leaf is
the end of its leg, the two tests read positions on the cycle walk, and the
strong resolving graph joins leaves and trivial cycle vertices by the cycle
distances of their roots.  The cycle, the branching trees and the threads
are read off graph.hanging_trees, the one leaf stripping, and gamma's
dynamic programme runs on its hanging trees.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .errors import SizeCapExceeded
from .graph import GRAPH_CAP, Graph, check_pseudotree, closed_neighbourhoods, hanging_trees, kept


class FamilyKind(enum.Enum):
    PATH = "Path"
    CYCLE = "Cycle"
    TREE = "Tree"
    PROPER_UNICYCLIC = "ProperUnicyclic"

    @property
    def is_unicyclic(self) -> bool:
        return self in (FamilyKind.CYCLE, FamilyKind.PROPER_UNICYCLIC)

    @property
    def is_tree(self) -> bool:
        return self in (FamilyKind.PATH, FamilyKind.TREE)


def classify(g: Graph) -> FamilyKind:
    """Most specific family label: Path < Tree, Cycle < ProperUnicyclic."""
    check_pseudotree(g)
    if g.m < g.n:
        return FamilyKind.PATH if g.max_degree() <= 2 else FamilyKind.TREE
    return FamilyKind.CYCLE if g.max_degree() == 2 else FamilyKind.PROPER_UNICYCLIC


@dataclass(frozen=True)
class PseudotreeProfile:
    """The structural statistics a pseudotree theorem conditions on, and
    nothing else: profile_json builds what only the printed profile shows.

    Cycle-related fields are empty/zero for trees.  All vertex collections
    are sorted tuples so serialized output is stable.
    """

    kind: FamilyKind
    n: int
    girth: int
    cycle: tuple[int, ...]
    leaves: tuple[int, ...]
    supports: tuple[int, ...]
    exterior_major: tuple[int, ...]
    strong_exterior_major: tuple[int, ...]
    strong_leaves: tuple[int, ...]
    terminal_map: dict[int, tuple[int, ...]]
    branch_active: tuple[int, ...]
    trivial_vertices: tuple[int, ...]
    root_vertices: tuple[int, ...]
    # each leaf with a terminal vertex, and its distance to it: its leg's length
    leg_lengths: dict[int, int] = field(repr=False, default_factory=dict)
    _positions: dict[int, int] = field(repr=False, default_factory=dict)

    # count shorthands matching the usual notation
    @property
    def num_leaves(self) -> int:
        return len(self.leaves)

    @property
    def num_supports(self) -> int:
        return len(self.supports)

    @property
    def num_exterior_major(self) -> int:
        return len(self.exterior_major)

    @property
    def num_strong_exterior_major(self) -> int:
        return len(self.strong_exterior_major)

    @property
    def num_strong_leaves(self) -> int:
        return len(self.strong_leaves)

    @property
    def rho(self) -> int:
        return len(self.branch_active)

    @property
    def c2(self) -> int:
        return len(self.trivial_vertices)

    @property
    def c3(self) -> int:
        return len(self.root_vertices)

    def antipodal_pairs(self, vertices) -> int:
        """How many pairs of the cycle vertices are at cycle distance
        floor(g/2): one is floor(g/2) places after the other on the cycle
        walk, so the bitmask of their positions meets itself rotated by
        floor(g/2) once per pair, and twice at even g, from both ends."""
        g, at = self.girth, 0
        for v in vertices:
            at |= 1 << self._positions[v]
        met = (at & (at << g // 2 | at >> (g - g // 2))).bit_count()
        return met if g & 1 else met // 2

    def has_geodesic_triple(self, vertices) -> bool:
        """Whether three of the cycle vertices have cycle distances summing to
        g: exactly when there are three and no gap between cyclically
        consecutive ones is longer than g/2.  Three vertices cut the cycle
        into three arcs; if one is longer than g/2 its ends are nearer the
        other way round, and the sum is below g.  A longer gap lies within an
        arc of any three; with none, a vertex a, the last b at most g/2 after
        it and the one after b (or one between a and b, if that is a) do."""
        g = self.girth
        at = sorted(map(self._positions.__getitem__, vertices))
        if len(at) < 3:
            return False
        prev = at[-1] - g
        for p in at:
            if p - prev > g // 2:
                return False
            prev = p
        return True


def _twin_pairs(g: Graph) -> tuple[tuple[int, int], ...]:
    """Pairs with equal open or equal closed neighbourhoods, sorted: the two
    keys of k_dimensional_value's twin test.  Open twins are never adjacent
    and closed twins always are, so no pair has both."""
    pairs = []
    for keys in (g.adjacency, closed_neighbourhoods(g)):
        groups: dict = {}
        for v, key in enumerate(keys):
            groups.setdefault(key, []).append(v)
        pairs += [(u, v) for members in groups.values() for i, u in enumerate(members) for v in members[i + 1 :]]
    return tuple(sorted(pairs))


def profile(g: Graph) -> PseudotreeProfile:
    """Compute the structural profile of a pseudotree in one pass; no distances."""
    kind = classify(g)

    degree = list(map(len, g.adjacency))
    # the tuples below are built from lists: tuple() of a generator allocates
    # a guessed size and resizes, and CPython frees the result into the free
    # list of its final size, so over many calls those lists fill up (~2 MB)
    leaves = tuple([v for v in range(g.n) if degree[v] == 1])
    supports = tuple(
        sorted({w for v in leaves for w in g.adjacency[v]})
    )

    # a leaf's terminal vertex ends its leg, the walk along degree-2 vertices:
    # every other major vertex lies beyond it, so it is the unique nearest one.
    # A leg that ends in a leaf spans a path, which has no major vertex.
    terminal_map: dict[int, list[int]] = {}
    leg_lengths: dict[int, int] = {}
    for u in leaves:
        prev, cur, length = u, g.adjacency[u][0], 1
        while degree[cur] == 2:
            a, b = g.adjacency[cur]
            prev, cur, length = cur, (b if a == prev else a), length + 1
        if degree[cur] >= 3:
            terminal_map.setdefault(cur, []).append(u)
            leg_lengths[u] = length
    terminal_map_t = {w: tuple(t) for w, t in terminal_map.items()}  # leaves ascend
    exterior_major = tuple(sorted(terminal_map_t))
    strong_exterior_major = tuple([w for w in exterior_major if len(terminal_map_t[w]) >= 2])
    strong_leaves = tuple(
        sorted(u for w in strong_exterior_major for u in terminal_map_t[w])
    )

    girth = 0
    cycle: tuple[int, ...] = ()
    branch_active: tuple[int, ...] = ()
    trivial: tuple[int, ...] = ()
    roots: tuple[int, ...] = ()
    positions: dict[int, int] = {}

    if kind.is_unicyclic:
        cycle, _, _, root, depth = hanging_trees(g)
        girth = len(cycle)
        positions = {v: i for i, v in enumerate(cycle)}
        # a cycle vertex roots a hanging tree iff it has a third edge
        roots = tuple(sorted(v for v in cycle if degree[v] > 2))
        trivial = tuple(sorted(v for v in cycle if degree[v] == 2))
        # branch-active: T_v contains a branching vertex; on the cycle, two
        # of v's edges are not in T_v
        branch_active = tuple(
            sorted({root[x] for x in range(g.n) if degree[x] >= (4 if depth[x] == 0 else 3)})
        )

    return PseudotreeProfile(
        kind=kind,
        n=g.n,
        girth=girth,
        cycle=cycle,
        leaves=leaves,
        supports=supports,
        exterior_major=exterior_major,
        strong_exterior_major=strong_exterior_major,
        strong_leaves=strong_leaves,
        terminal_map=terminal_map_t,
        branch_active=branch_active,
        trivial_vertices=trivial,
        root_vertices=roots,
        leg_lengths=leg_lengths,
        _positions=positions,
    )


def profile_json(g: Graph) -> dict:
    """What `pseudoloc profile` prints: the kept profile, and what no theorem
    reads, built here: the strong supports, the branching trees, the threads,
    the antipodal pair counts and the twin pairs."""
    prof = kept(g, profile)
    adjacency = g.adjacency
    leaf_set = set(prof.leaves)
    strong_supports = [v for v in prof.supports if sum(w in leaf_set for w in adjacency[v]) >= 2]
    branching_trees: dict[int, list[int]] = {}
    threads: dict[int, list[int]] = {}
    if prof.kind.is_unicyclic:
        _, _, _, root, depth = hanging_trees(g)
        # branching tree of v = component of G - E(C) containing v: the
        # vertices whose root is v, ascending
        branching_trees = {v: [] for v in prof.cycle}
        for x in range(g.n):
            branching_trees[root[x]].append(x)
        # thread: T_v is a path and deg(v) == 3, listed outward from v
        threads = {
            v: sorted(branching_trees[v], key=depth.__getitem__)[1:]
            for v in prof.root_vertices
            if len(adjacency[v]) == 3 and v not in prof.branch_active
        }
    return {
        "kind": prof.kind.value,
        "n": prof.n,
        "g": prof.girth,
        "l": prof.num_leaves,
        "lambda": prof.num_exterior_major,
        "lambda_s": prof.num_strong_exterior_major,
        "l_s": prof.num_strong_leaves,
        "s": prof.num_supports,
        "rho": prof.rho,
        "c2": prof.c2,
        "c3": prof.c3,
        "antipodal_trivial_pairs": prof.antipodal_pairs(prof.trivial_vertices),
        "antipodal_root_pairs": prof.antipodal_pairs(prof.root_vertices),
        "cycle": list(prof.cycle),
        "leaves": list(prof.leaves),
        "supports": list(prof.supports),
        "strong_supports": strong_supports,
        "exterior_major": list(prof.exterior_major),
        "strong_exterior_major": list(prof.strong_exterior_major),
        "strong_leaves": list(prof.strong_leaves),
        "terminal_map": {str(w): list(t) for w, t in sorted(prof.terminal_map.items())},
        "branch_active": list(prof.branch_active),
        "trivial_vertices": list(prof.trivial_vertices),
        "root_vertices": list(prof.root_vertices),
        "threads": {str(r): p for r, p in sorted(threads.items())},
        "branching_trees": {str(v): t for v, t in sorted(branching_trees.items())},
        "twin_pairs": [list(p) for p in _twin_pairs(g)],
    }


@dataclass(frozen=True)
class StrongResolvingGraph:
    """The mutually-maximally-distant (MMD) pairs of the host graph as
    bitmask rows: bit u of rows[v] is set iff u and v are MMD.  The boundary
    is the vertices in some MMD pair, those with a nonzero row; bit v of
    boundary_mask is set iff v is one."""

    rows: tuple[int, ...]
    boundary_mask: int

    @property
    def order(self) -> int:
        return self.boundary_mask.bit_count()


def boundary_and_sr_graph(g: Graph) -> StrongResolvingGraph:
    """Mutually-maximally-distant pairs of a pseudotree and the boundary they
    span, read off the profile and the roots of hanging_trees; no distances.

    A cut vertex v is maximally distant from no vertex: for any u != v, a
    neighbour of v in a component of G - v without u is farther from u.  So
    only the leaves L and the trivial cycle vertices T, those with no hanging
    tree, have partners.  A leaf's one neighbour is nearer every other
    vertex, so any two leaves are mutually maximally distant.  Both
    neighbours of a vertex t of T lie on the cycle, and one of them is
    farther than t from a cycle vertex c, and so from every vertex hanging
    off c, iff the cycle distance of t and c is below floor(g/2).  So two
    vertices of T are mutually maximally distant iff their cycle distance is
    floor(g/2), and a leaf and a vertex t of T are iff t is at that cycle
    distance from the leaf's root.  No other pair is.

    Raises NotPseudotree on any other graph.
    """
    prof = kept(g, profile)
    root = hanging_trees(g)[3]
    rows = [0] * g.n
    everyleaf = 0
    hanging: dict[int, list[int]] = {}  # the leaves off each root
    for u in prof.leaves:
        everyleaf |= 1 << u
        hanging.setdefault(root[u], []).append(u)
    for u in prof.leaves:
        rows[u] = everyleaf ^ 1 << u
    cycle, girth = prof.cycle, prof.girth
    half = girth // 2
    for i, t in enumerate(cycle):
        if len(g.adjacency[t]) > 2:  # a root: a cut vertex
            continue
        # the cycle vertices at cycle distance half, one when g is even
        for c in (cycle[i - half], cycle[i + half - girth]):
            if len(g.adjacency[c]) == 2:
                rows[t] |= 1 << c
            else:
                for u in hanging[c]:
                    rows[t] |= 1 << u
                    rows[u] |= 1 << t
    boundary = 0
    for row in rows:
        boundary |= row
    return StrongResolvingGraph(rows=tuple(rows), boundary_mask=boundary)


def _alpha_branch(rows, cand: int, size: int, best: int) -> int:
    """The larger of best and size plus the independence number on the
    bitmask cand: one branch of independence_number's search."""
    # colour classes are cliques of this graph: the picks of one class
    # exclude each other, so a branch adds at most one vertex per class
    picks: list[tuple[int, int]] = []
    uncoloured, colour = cand, 0
    while uncoloured:
        colour += 1
        free = uncoloured
        while free:
            b = free & -free
            v = b.bit_length() - 1
            free &= rows[v]
            uncoloured ^= b
            picks.append((b, colour))
    for b, colour in reversed(picks):
        if size + colour <= best:
            return best
        rest = cand & ~rows[b.bit_length() - 1] & ~b
        if rest:
            best = _alpha_branch(rows, rest, size + 1, best)
        elif size + 1 > best:
            best = size + 1
        cand ^= b
    return best


def independence_number(rows, vertices: int) -> int:
    """Exact independence number of the subgraph induced on the bitmask
    `vertices` of the graph whose vertex v has neighbour bitmask rows[v];
    accepts disconnected inputs.

    A maximum independent set is a maximum clique of the complement, found by
    the bitset branch and bound of Tomita & Seki (2003): a greedy colouring
    of the complement's candidates, into cliques of this graph, bounds what a
    branch can still add, and the vertices branch in reverse colour order.
    The branches recurse through a module function, not a closure that
    refers to itself, so a call leaves no reference cycle to collect.
    """
    if len(rows) > GRAPH_CAP:
        raise SizeCapExceeded(f"{len(rows)} vertices exceeds graph cap {GRAPH_CAP}")
    return _alpha_branch(rows, vertices, 0, 0)


# what a run of _tree_domination fixes at a vertex
IN, OUT, DOMINATED = "in", "out", "dominated"


def _tree_domination(order, parent, fixed: dict[int, str]) -> int:
    """Smallest dominating set of a tree given as its vertices with parents
    before children, the root first, and the parent of each (-1 at the
    root), with vertices fixed IN the set, OUT of it, or DOMINATED from
    outside the tree.  Three states per vertex v, each the least count in
    v's subtree with every vertex below v dominated: v in the set (a), v out
    and dominated by a child (b), v out and not yet dominated (c)."""
    n = len(order)
    never = n + 1  # more than any count, so it never wins a minimum
    any_state = [0] * n  # sums over the children of each vertex
    a_or_b = [0] * n
    b_only = [0] * n
    gap = [never] * n  # least extra cost of having one child in the set
    for x in reversed(order):
        a, b, c = 1 + any_state[x], a_or_b[x] + gap[x], b_only[x]
        if x in fixed:
            state = fixed[x]
            if state == IN:
                b = c = never
            elif state == OUT:
                a = never
            elif c < b:  # DOMINATED: out and not dominated below is fine
                b = c
        p = parent[x]
        ab = a if a < b else b
        if p < 0:
            return ab
        any_state[p] += ab if ab < c else c
        a_or_b[p] += ab
        b_only[p] += b
        if a - ab < gap[p]:
            gap[p] = a - ab
    raise AssertionError("unreachable: the walk ends at the root")


def domination_number(g: Graph) -> int:
    """Exact domination number of a pseudotree in linear time: the tree
    dynamic programme of Cockayne, Goodman & Hedetniemi (1975), run on the
    hanging trees with the core as a path from its first vertex.  On a
    unicyclic graph that path leaves out the closing cycle edge uv, and the
    answer is the least of three runs: u in the set with v dominated, v in
    with u dominated, and both out."""
    core, order, parent, _, _ = hanging_trees(g)
    parent = list(parent)  # the graph's own tuple stays as it is
    for a, b in zip(core, core[1:]):
        parent[b] = a
    top_down = core + order[::-1]
    if g.m < g.n:
        return _tree_domination(top_down, parent, {})
    u, v = core[0], core[-1]
    return min(
        _tree_domination(top_down, parent, {u: IN, v: DOMINATED}),
        _tree_domination(top_down, parent, {v: IN, u: DOMINATED}),
        _tree_domination(top_down, parent, {u: OUT, v: OUT}),
    )
