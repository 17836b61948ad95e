"""Deterministic pseudotree generators and the theorem-verification pipeline.

Labeled enumeration runs over Prüfer sequences.  Class enumeration (dedup)
generates one canonically labeled representative per isomorphism class,
straight from the class's canonical key, with no candidate graphs to sort
out.  Trees are keyed by their centre-rooted subtree codes and unicyclic
graphs by the sequence of rooted branching-tree codes around their cycle,
least over rotations and reflections; both build their codes children first
along the leaf stripping of graph.hanging_trees.  The classes are built from
the rooted codes of each size, generated once per corpus: a free tree is one
centred rooted tree, or two rooted trees of equal height with an edge between their roots
(Wright, Richmond, Odlyzko & McKay 1986), and a unicyclic graph is a
dihedral necklace of rooted trees on its cycle.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import itertools
import json
from dataclasses import dataclass
from typing import Iterator

from .closed_form import closed_result, oracle_result
from .errors import SizeCapExceeded
from .graph import GRAPH_CAP, Graph, encode_graph6, from_edge_list, hanging_trees, kept, size_cap
from .resolvers import (
    ORACLE_CAP,
    PARAMETER_NAMES,
    ParameterResult,
    check_name,
    k_dimensional_value,
    parameter_label,
)

TREE_ENUM_CAP = 12
UNICYCLIC_ENUM_CAP = 10
# the labelled corpora hold at least n**(n-2) graphs of order n, so their caps
# are fixed: verifying the labelled trees up to n = 8 takes over 100 s
TREE_LABELLED_CAP = 8
UNICYCLIC_LABELLED_CAP = 7

STATUS_AGREE = "Agree"
STATUS_IN_BOUNDS = "InBounds"
STATUS_VIOLATION = "VIOLATION"


# ---------------------------------------------------------------------------
# Prüfer sequences


def prufer_decode(seq: tuple[int, ...], n: int) -> Graph:
    """Labeled tree on n vertices from a Prüfer sequence of length n-2."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    ptr = 0
    leaf = -1
    for x in seq:
        if leaf < 0:
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
        edges.append((leaf, x))
        degree[leaf] -= 1
        degree[x] -= 1
        # x may have just become the smallest available leaf
        leaf = x if degree[x] == 1 and x < ptr else -1
    last = [v for v in range(n) if degree[v] == 1]
    edges.append((last[0], last[1]))
    return from_edge_list(n, edges)


def _prufer_sequences(n: int) -> Iterator[tuple[int, ...]]:
    if n == 2:
        yield ()
        return
    seq = [0] * (n - 2)
    while True:
        yield tuple(seq)
        i = n - 3
        while i >= 0 and seq[i] == n - 1:
            seq[i] = 0
            i -= 1
        if i < 0:
            return
        seq[i] += 1


# ---------------------------------------------------------------------------
# Canonical keys and forms


def _child_codes(n: int, order: tuple[int, ...], parent: tuple[int, ...]) -> list[list[tuple]]:
    """The codes of each vertex's children in the hanging trees of
    graph.hanging_trees, built children first along its order; a vertex's
    code is the sorted tuple of its children's."""
    below: list[list[tuple]] = [[] for _ in range(n)]
    for u in order:
        below[parent[u]].append(tuple(sorted(below[u])))
    return below


def tree_canonical_key(g: Graph) -> tuple:
    """Complete isomorphism invariant for trees (centre-rooted subtree codes):
    ("c1", code) rooted at a single centre, or ("c2", a, b) for the two halves
    of the central edge, a <= b.

    The last vertex leaf stripping removes is a centre.  It is the only one
    unless exactly one of its children is the highest, and then that child
    is the other: the "two highest children tie" rule of _rooted_codes.
    """
    if g.m != g.n - 1:
        raise ValueError(f"m={g.m} != n-1={g.n - 1}: not a tree")
    (centre,), order, parent, _, _ = hanging_trees(g)
    below = _child_codes(g.n, order, parent)
    height = [0] * g.n
    for u in order:
        height[parent[u]] = max(height[parent[u]], height[u] + 1)
    highest = [u for u in order if parent[u] == centre and height[u] + 1 == height[centre]]
    if len(highest) != 1:
        return ("c1", tuple(sorted(below[centre])))
    other = tuple(sorted(below[highest[0]]))
    below[centre].remove(other)
    return ("c2",) + tuple(sorted([other, tuple(sorted(below[centre]))]))


def unicyclic_canonical_key(g: Graph) -> tuple:
    """Complete isomorphism invariant for unicyclic graphs: (girth, codes).

    codes is the cycle's sequence of rooted branching-tree codes, least over
    rotation and reflection; the branching tree of a cycle vertex is the
    tree hanging off it.
    """
    if g.m != g.n:
        raise ValueError(f"m={g.m} != n={g.n}: not a unicyclic graph")
    cycle, order, parent, _, _ = hanging_trees(g)
    below = _child_codes(g.n, order, parent)
    codes = [tuple(sorted(below[v])) for v in cycle]
    rotations = (seq[i:] + seq[:i] for seq in (codes, codes[::-1]) for i in range(len(seq)))
    return (len(cycle), tuple(min(rotations)))


def _branch_edges(code: tuple, root: int, edges: list[tuple[int, int]], label: int) -> int:
    """Append the edges of code's tree below root, its vertices labelled in
    preorder from label with children in ascending code order; returns the
    next free label."""
    for child in code:
        edges.append((root, label))
        label = _branch_edges(child, label, edges, label + 1)
    return label


def _tree_of_key(key: tuple) -> Graph:
    """The tree of a tree_canonical_key, rooted at its centre (the half of
    the central edge with the lesser code) and labelled in preorder."""
    code = key[1] if key[0] == "c1" else tuple(sorted(key[1] + (key[2],)))
    edges: list[tuple[int, int]] = []
    return from_edge_list(_branch_edges(code, 0, edges, 1), edges)


def _unicyclic_of_key(key: tuple) -> Graph:
    """The unicyclic graph of a unicyclic_canonical_key: cycle vertices
    0..g-1 in key order, then each branching tree in preorder."""
    girth, codes = key
    edges = [(i, (i + 1) % girth) for i in range(girth)]
    label = girth
    for v, code in enumerate(codes):
        label = _branch_edges(code, v, edges, label)
    return from_edge_list(label, edges)


def tree_canonical_form(g: Graph) -> Graph:
    """Deterministic canonical relabeling of a tree: the tree of its key."""
    return _tree_of_key(tree_canonical_key(g))


def unicyclic_canonical_form(g: Graph) -> Graph:
    """Deterministic canonical relabeling of a unicyclic graph: the graph of
    its key."""
    return _unicyclic_of_key(unicyclic_canonical_key(g))


# ---------------------------------------------------------------------------
# Class generation


def _pick_children(pools: list, chosen: list, pool: list, budget: int, size: int, index: int) -> None:
    """Append to pool each rooted code whose children are those chosen so
    far plus children of `budget` more vertices, each child at most the
    code (size, index) of pools in (size, index) order."""
    if budget == 0:
        heights = [h for _, h, _ in chosen]
        top = max(heights)
        pool.append((tuple(sorted(c for c, _, _ in chosen)), top + 1, heights.count(top) > 1))
        return
    for s in range(min(size, budget), 0, -1):
        top = index if s == size else len(pools[s]) - 1
        for i in range(top, -1, -1):
            chosen.append(pools[s][i])
            _pick_children(pools, chosen, pool, budget - s, s, i)
            chosen.pop()


def _rooted_codes(max_size: int) -> list[list[tuple[tuple, int, bool]]]:
    """Every rooted tree of 1..max_size vertices once: pools[s] holds each
    (code, height, centred) of size s, where code is the sorted tuple of its
    children's codes and centred says that its two highest children tie, so
    that the root is the tree's only centre.

    A code of size s picks its children as a multiset of sizes summing to
    s - 1, in non-increasing (size, index) order from the pools of smaller
    sizes.
    """
    pools: list[list[tuple[tuple, int, bool]]] = [[], [((), 0, False)]]
    for size in range(2, max_size + 1):
        pool: list[tuple[tuple, int, bool]] = []
        _pick_children(pools, [], pool, size - 1, size - 1, len(pools[size - 1]) - 1)
        pools.append(pool)
    return pools


def _tree_keys(n: int, pools: list) -> list[tuple]:
    """The tree_canonical_key of every tree class on n vertices, ascending:
    a centred code of size n, or two rooted codes of equal height joined by
    the central edge."""
    keys = [("c1", code) for code, _, centred in pools[n] if centred]
    for small in range(1, n // 2 + 1):
        by_height: dict[int, list[tuple[int, tuple]]] = {}
        for j, (b, height, _) in enumerate(pools[n - small]):
            by_height.setdefault(height, []).append((j, b))
        for i, (a, height, _) in enumerate(pools[small]):
            for j, b in by_height.get(height, ()):
                if 2 * small < n or i <= j:
                    keys.append(("c2", a, b) if a <= b else ("c2", b, a))
    keys.sort()
    return keys


def _necklaces(by_size: list, a: list[int], found: list, t: int, p: int, budget: int) -> None:
    """Append to found each rank sequence a[1..girth] that extends a[1..t-1],
    a prenecklace of period p, to a necklace with sizes summing to the
    budget left and no rotation of its reverse less than it."""
    girth = len(a) - 1
    if t > girth:
        seq, rev = a[1:], a[:0:-1]
        if girth % p == 0 and all(seq <= rev[i:] + rev[:i] for i in range(girth)):
            found.append(tuple(seq))
        return
    low = a[t - p]
    sizes = (budget,) if t == girth else range(1, budget - (girth - t) + 1)
    for size in sizes:
        ranks = by_size[size]
        for r in ranks[bisect.bisect_left(ranks, low):]:
            a[t] = r
            _necklaces(by_size, a, found, t + 1, p if r == low else t, budget - size)


def _unicyclic_keys(n: int, pools: list) -> list[tuple]:
    """The unicyclic_canonical_key of every unicyclic class on n vertices,
    ascending: for each girth, every sequence of rooted codes whose sizes
    sum to n and that is least among its rotations and reflections.

    Codes are ranked in code order, and the sequences are generated as
    prenecklaces of ranks (Fredricksen-Kessler-Maiorana) with sizes summing
    to n; a necklace is kept when no rotation of its reverse is less.
    """
    ranked = sorted((code, size) for size in range(1, n - 1) for code, _, _ in pools[size])
    by_size: list[list[int]] = [[] for _ in range(n - 1)]
    for r, (_, size) in enumerate(ranked):
        by_size[size].append(r)
    keys: list[tuple] = []
    for girth in range(3, n + 1):
        found: list[tuple[int, ...]] = []
        # a[1..girth], a[0] = 0 below every rank
        _necklaces(by_size, [0] * (girth + 1), found, 1, 1, n)
        found.sort()
        keys.extend((girth, tuple(ranked[r][0] for r in seq)) for seq in found)
    return keys


# ---------------------------------------------------------------------------
# Enumerators


# each family's smallest order, its cap and its labelled cap: paths and
# cycles stop at the oracle cap, since verify runs the oracle on every graph
# of the corpus, and have one labelling each
_ORDERS = {
    "tree": (2, TREE_ENUM_CAP, TREE_LABELLED_CAP),
    "unicyclic": (3, UNICYCLIC_ENUM_CAP, UNICYCLIC_LABELLED_CAP),
    "path": (2, ORACLE_CAP, None),
    "cycle": (3, ORACLE_CAP, None),
}


def _check_order(family: str, n: int, labelled: bool = False) -> None:
    """The cap rule of every corpus: PSEUDOLOC_MAX_N overrides the family's
    cap, never above the graph cap, and a labelled corpus stops at the
    smaller of it and the fixed labelled cap."""
    lo, cap, labelled_cap = _ORDERS[family]
    cap = min(size_cap(cap), GRAPH_CAP)
    if labelled and labelled_cap:
        cap = min(cap, labelled_cap)
        family = "labelled " + family
    if not lo <= n <= cap:
        raise SizeCapExceeded(f"{family} enumeration supports {lo} <= n <= {cap}, got {n}")


def enumerate_trees(n: int, dedup: bool = False) -> Iterator[Graph]:
    """All labeled trees on n vertices (Prüfer order), or one canonical
    representative per isomorphism class when dedup is set."""
    _check_order("tree", n, labelled=not dedup)
    if dedup:
        yield from _class_corpus("tree", n, n)
        return
    for seq in _prufer_sequences(n):
        yield prufer_decode(seq, n)


def enumerate_unicyclic(n: int, dedup: bool = False) -> Iterator[Graph]:
    """All connected unicyclic graphs on n vertices (tree plus one chord), or
    one canonical representative per isomorphism class when dedup is set."""
    _check_order("unicyclic", n, labelled=not dedup)
    if dedup:
        yield from _class_corpus("unicyclic", n, n)
        return
    seen: set[frozenset] = set()
    for tree in enumerate_trees(n):
        edge_set = set(tree.edges)
        for u in range(n):
            for v in range(u + 1, n):
                if (u, v) in edge_set:
                    continue
                edges = frozenset(edge_set | {(u, v)})
                if edges in seen:
                    continue
                seen.add(edges)
                yield from_edge_list(n, sorted(edges))


def _path_graph(n: int) -> Graph:
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def _cycle_graph(n: int) -> Graph:
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def _class_corpus(family: str, lo: int, max_n: int) -> Iterator[Graph]:
    """One canonical representative per class for every order lo..max_n,
    keys ascending, from rooted codes built once for the whole corpus.

    The graph of each generated key passes once through the family's public
    canonical form, which gives it back with the same labelling, so that
    every canonical key and form function runs on the corpus path.
    """
    if family == "tree":
        pools = _rooted_codes(max_n)
        keys, of_key, form = _tree_keys, _tree_of_key, tree_canonical_form
    else:
        pools = _rooted_codes(max_n - 2)
        keys, of_key, form = _unicyclic_keys, _unicyclic_of_key, unicyclic_canonical_form
    for n in range(lo, max_n + 1):
        for key in keys(n, pools):
            yield form(of_key(key))


# ---------------------------------------------------------------------------
# Random generation


@dataclass(frozen=True)
class CorpusSpec:
    """What to verify: family, size bound, dedup."""

    family: str  # tree | unicyclic | cycle | path
    max_n: int
    dedup: bool = True

    def __post_init__(self):
        if self.family not in _ORDERS:
            raise ValueError(f"unknown family {self.family!r}")


def random_pseudotree(family: str, n: int, rng) -> Graph:
    """A random graph of the family on n vertices, drawn from rng, a
    random.Random: a tree from a uniform Prüfer sequence, plus a uniform
    chord for a unicyclic graph; a path or a cycle draws nothing."""
    if family not in _ORDERS:
        raise ValueError(f"unknown family {family!r}")
    lo = _ORDERS[family][0]
    if n < lo:
        raise SizeCapExceeded(f"cannot sample a {family} graph on {n} vertices: it needs n >= {lo}")
    if family == "path":
        return _path_graph(n)
    if family == "cycle":
        return _cycle_graph(n)
    seq = tuple(rng.randrange(n) for _ in range(n - 2))
    tree = prufer_decode(seq, n)
    if family == "tree":
        return tree
    edge_set = set(tree.edges)
    non_edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edge_set
    ]
    chord = non_edges[rng.randrange(len(non_edges))]
    return from_edge_list(n, list(tree.edges) + [chord])


# ---------------------------------------------------------------------------
# Verification pipeline


@dataclass(frozen=True, slots=True)
class VerificationRecord:
    """One graph x one parameter: closed form versus oracle.  Slotted, as
    ParameterResult is: `verify` keeps a pass of them."""

    graph6: str
    parameter: str
    closed: ParameterResult
    oracle: ParameterResult
    status: str

    def to_json(self) -> dict:
        return {
            "graph6": self.graph6,
            "parameter": self.parameter,
            "closed": self.closed.to_json(),
            "oracle": self.oracle.to_json(),
            "status": self.status,
            "theorem_tag": self.closed.theorem_tag,
        }


def compare_results(closed: ParameterResult, oracle: ParameterResult) -> str:
    if closed.is_exact:
        return STATUS_AGREE if closed.value == oracle.value else STATUS_VIOLATION
    return STATUS_IN_BOUNDS if closed.contains(oracle.value) else STATUS_VIOLATION


def verify_graph(g: Graph, parameters) -> list[VerificationRecord]:
    """Closed-vs-oracle records for one graph, in deterministic order.

    Every record reads what is kept on the graph: one distance matrix, one
    profile, one set of shared oracle masks, and one k-dimensional value,
    where the k-range of dimk ends.  dim2 and dimk[2], the same k-metric
    problem, share one oracle search.
    """
    g6 = encode_graph6(g)
    expanded: list[tuple[str, int | None]] = []
    for p in parameters:
        if p == "dimk":
            expanded.extend(("dimk", k) for k in range(2, kept(g, k_dimensional_value) + 1))
        else:
            expanded.append((p, None))
    oracles: dict[tuple[str, int | None], ParameterResult] = {}
    records = []
    for param, k in expanded:
        closed = closed_result(g, param, k=k)
        key = ("dimk", 2) if param == "dim2" else (param, k)
        if key not in oracles:
            oracles[key] = oracle_result(g, param, k=k)
        oracle = oracles[key]
        records.append(
            VerificationRecord(
                graph6=g6,
                parameter=parameter_label(param, k),
                closed=closed,
                oracle=oracle,
                status=compare_results(closed, oracle),
            )
        )
    return records


def corpus_graphs(spec: CorpusSpec) -> Iterator[Graph]:
    """Every graph of the corpus, orders ascending, enumerated as it is read.
    spec.max_n is checked on the call, before anything is enumerated: from
    the family's smallest order up to its cap, the enumeration cap for trees
    and unicyclic graphs, or the labelled cap for their labelled corpora."""
    family = spec.family
    _check_order(family, spec.max_n, labelled=not spec.dedup)
    orders = range(_ORDERS[family][0], spec.max_n + 1)
    if family in ("tree", "unicyclic") and spec.dedup:
        return _class_corpus(family, orders.start, spec.max_n)
    if family in ("path", "cycle"):
        return map(_path_graph if family == "path" else _cycle_graph, orders)
    per_order = enumerate_trees if family == "tree" else enumerate_unicyclic
    return itertools.chain.from_iterable(map(per_order, orders))


def verify_corpus(
    spec: CorpusSpec,
    parameters=PARAMETER_NAMES,
    jobs: int = 1,
    report_path=None,
) -> tuple[list[VerificationRecord], int]:
    """Run closed-form-versus-oracle verification over a whole corpus.

    Returns all records in deterministic order plus the violation count.
    The corpus is read as it is verified.  Records stream to report_path
    (JSON lines, summary footer) as they are produced, so partial results
    survive interruption.  The parameter names and spec.max_n are checked
    before the report is opened; an empty parameter list is an error, since
    it would verify nothing.
    """
    parameters = list(parameters)
    if not parameters:
        raise ValueError("no parameter to verify")
    for param in parameters:
        check_name(param)
    graphs = corpus_graphs(spec)
    worker = functools.partial(verify_graph, parameters=parameters)
    records: list[VerificationRecord] = []
    violations = verified = 0
    with contextlib.ExitStack() as stack:
        out = stack.enter_context(open(report_path, "w", encoding="utf-8")) if report_path else None
        if jobs > 1:
            # imported here: it costs every other process, such as each
            # `pseudoloc compute`, about 1.5 MB of resident memory
            import multiprocessing

            pool = stack.enter_context(multiprocessing.get_context("fork").Pool(jobs))
            batches = pool.imap(worker, graphs, chunksize=4)
        else:
            batches = map(worker, graphs)
        for batch in batches:  # one batch per graph
            verified += 1
            records.extend(batch)
            violations += _emit(batch, out)
        if out:
            footer = {
                "summary": {
                    "graphs": verified,
                    "records": len(records),
                    "violations": violations,
                }
            }
            out.write(json.dumps(footer, sort_keys=True) + "\n")
    return records, violations


def _emit(batch: list[VerificationRecord], out) -> int:
    violations = 0
    for rec in batch:
        if rec.status == STATUS_VIOLATION:
            violations += 1
        if out:
            out.write(json.dumps(rec.to_json(), sort_keys=True) + "\n")
    return violations
