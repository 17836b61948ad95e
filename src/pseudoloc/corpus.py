"""Deterministic pseudotree generators and the theorem-verification pipeline.

Labeled enumeration runs over Prüfer sequences; class enumeration (dedup)
produces one canonically-labeled representative per isomorphism class.
Trees are canonicalized by the centre-rooted subtree-code order; unicyclic
graphs by the lexicographically minimal rotation/reflection of their cycle's
rooted-branching-tree codes.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass
from typing import Callable, Iterator

from .closed_form import PARAMETER_NAMES, GraphAnalysis, closed_result, oracle_result
from .errors import SizeCapExceeded
from .graph import GRAPH_CAP, Graph, encode_graph6, from_edge_list, girth_and_cycle, size_cap
from .resolvers import ParameterResult

TREE_ENUM_CAP = 12
UNICYCLIC_ENUM_CAP = 10

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
# Canonical forms


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


def tree_canonical_key(g: Graph) -> tuple:
    """Complete isomorphism invariant for trees (centre-rooted subtree codes)."""
    adj = {v: list(g.adjacency[v]) for v in range(g.n)}
    centers = _tree_centers(g.n, adj)
    if len(centers) == 1:
        return ("c1", _tree_code(adj, centers[0], -1))
    a, b = centers
    code_a = _tree_code(adj, a, b)
    code_b = _tree_code(adj, b, a)
    return ("c2",) + tuple(sorted([code_a, code_b]))


def _relabel_rooted(adj: dict[int, list[int]], root: int, parent: int, order: list[int]) -> None:
    order.append(root)
    children = sorted(
        ((w, _tree_code(adj, w, root)) for w in adj[root] if w != parent),
        key=lambda t: t[1],
    )
    for w, _ in children:
        _relabel_rooted(adj, w, root, order)


def tree_canonical_form(g: Graph) -> Graph:
    """Deterministic canonical relabeling of a tree."""
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


def _least_cycle_order(g: Graph) -> tuple[dict[int, list[int]], list[int], tuple]:
    """The adjacency without cycle edges, the cycle order whose sequence of
    rooted branching-tree codes is least over rotations and reflections, and
    that sequence.

    Every edge between two cycle vertices is a cycle edge, so from a cycle
    vertex the trimmed adjacency reaches exactly its branching tree.
    """
    _, cycle = girth_and_cycle(g)  # type: ignore[misc]
    on_cycle = set(cycle)
    trimmed = {
        x: [w for w in nbrs if not (x in on_cycle and w in on_cycle)]
        for x, nbrs in enumerate(g.adjacency)
    }
    codes = {v: _tree_code(trimmed, v, -1) for v in cycle}
    best, best_order = None, cycle
    for seq in (cycle, cycle[::-1]):
        for shift in range(len(seq)):
            rotated = seq[shift:] + seq[:shift]
            key = tuple([codes[v] for v in rotated])
            if best is None or key < best:
                best, best_order = key, rotated
    return trimmed, best_order, best


def unicyclic_canonical_key(g: Graph) -> tuple:
    """Complete isomorphism invariant for unicyclic graphs.

    The cycle's sequence of rooted branching-tree codes, minimized over
    rotation and reflection.
    """
    _, order, codes = _least_cycle_order(g)
    return (len(order), codes)


def unicyclic_canonical_form(g: Graph) -> Graph:
    """Deterministic canonical relabeling of a unicyclic graph."""
    trimmed, best_order, _ = _least_cycle_order(g)
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


# ---------------------------------------------------------------------------
# Enumerators


# each family's smallest order and its cap: paths and cycles stop at the graph cap
_ORDERS = {
    "tree": (2, TREE_ENUM_CAP),
    "unicyclic": (3, UNICYCLIC_ENUM_CAP),
    "path": (2, GRAPH_CAP),
    "cycle": (3, GRAPH_CAP),
}


def _check_order(family: str, n: int) -> None:
    lo, cap = _ORDERS[family][0], size_cap(_ORDERS[family][1])
    if not lo <= n <= cap:
        raise SizeCapExceeded(f"{family} enumeration supports {lo} <= n <= {cap}, got {n}")


def enumerate_trees(n: int, dedup: bool = False) -> Iterator[Graph]:
    """All labeled trees on n vertices (Prüfer order), or one canonical
    representative per isomorphism class when dedup is set."""
    _check_order("tree", n)
    if dedup:
        yield from _tree_classes(n)
        return
    for seq in _prufer_sequences(n):
        yield prufer_decode(seq, n)


def _tree_class_levels() -> Iterator[list[Graph]]:
    """Canonical representatives of all tree classes on 2, 3, 4, ... vertices,
    level by level: each level grows every class of the one before by a leaf."""
    level = [from_edge_list(2, [(0, 1)])]
    while True:
        yield level
        n = level[0].n + 1
        reps: dict[tuple, Graph] = {}
        for smaller in level:
            for v in range(smaller.n):
                grown = from_edge_list(n, list(smaller.edges) + [(v, n - 1)])
                key = tree_canonical_key(grown)
                if key not in reps:
                    reps[key] = tree_canonical_form(grown)
        level = [reps[k] for k in sorted(reps)]


def _tree_classes(n: int) -> list[Graph]:
    """The tree classes on n vertices: level n of _tree_class_levels."""
    return next(itertools.islice(_tree_class_levels(), n - 2, None))


def _unicyclic_classes(n: int, trees: list[Graph]) -> list[Graph]:
    """Canonical representatives of all unicyclic classes on n vertices, from
    the tree classes on n vertices plus one chord."""
    reps: dict[tuple, Graph] = {}
    for tree in trees:
        edge_set = set(tree.edges)
        for u in range(n):
            for v in range(u + 1, n):
                if (u, v) in edge_set:
                    continue
                candidate = from_edge_list(n, list(tree.edges) + [(u, v)])
                key = unicyclic_canonical_key(candidate)
                if key not in reps:
                    reps[key] = unicyclic_canonical_form(candidate)
    return [reps[key] for key in sorted(reps)]


def enumerate_unicyclic(n: int, dedup: bool = False) -> Iterator[Graph]:
    """All connected unicyclic graphs on n vertices (tree plus one chord)."""
    _check_order("unicyclic", n)
    if dedup:
        yield from _unicyclic_classes(n, _tree_classes(n))
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


# ---------------------------------------------------------------------------
# Random generation


@dataclass(frozen=True)
class CorpusSpec:
    """What to generate/verify: family, size bound, dedup, seed."""

    family: str  # Tree | Unicyclic | Cycle | Path
    max_n: int
    dedup: bool = True
    seed: int | None = None

    def __post_init__(self):
        if self.family.lower() not in ("tree", "unicyclic", "cycle", "path"):
            raise ValueError(f"unknown family {self.family!r}")


def random_pseudotree(spec: CorpusSpec, rng=None) -> Graph:
    """Seed-deterministic random tree or unicyclic graph on spec.max_n vertices."""
    import random as _random

    if rng is None:
        if spec.seed is None:
            raise ValueError("random generation requires a seed")
        rng = _random.Random(spec.seed)
    n = spec.max_n
    family = spec.family.lower()
    if family == "path":
        return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])
    if family == "cycle":
        if n < 3:
            raise SizeCapExceeded("cycles need n >= 3")
        return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])
    if n < 2 or (family == "unicyclic" and n < 3):
        raise SizeCapExceeded(f"cannot sample a {family} graph on {n} vertices")
    if n == 2:
        tree = from_edge_list(2, [(0, 1)])
    else:
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


@dataclass(frozen=True)
class VerificationRecord:
    """One graph x one parameter: closed form versus oracle."""

    graph6: str
    parameter: str
    closed: ParameterResult
    oracle: ParameterResult
    status: str
    theorem_tag: str | None

    def to_json(self) -> dict:
        return {
            "graph6": self.graph6,
            "parameter": self.parameter,
            "closed": self.closed.to_json(),
            "oracle": self.oracle.to_json(),
            "status": self.status,
            "theorem_tag": self.theorem_tag,
        }


def compare_results(closed: ParameterResult, oracle: ParameterResult) -> str:
    if closed.is_exact:
        return STATUS_AGREE if closed.value == oracle.value else STATUS_VIOLATION
    return STATUS_IN_BOUNDS if closed.contains(oracle.value) else STATUS_VIOLATION


def verify_graph(g: Graph, parameters) -> list[VerificationRecord]:
    """Closed-vs-oracle records for one graph, in deterministic order.

    One GraphAnalysis serves every record: one distance matrix, one profile,
    one set of oracle masks, and one k-dimensional value, where the k-range
    of dimk ends.  dim2 and dimk[2], the same k-metric problem, share one
    oracle search.
    """
    g6 = encode_graph6(g)
    a = GraphAnalysis(g)
    expanded: list[tuple[str, int | None]] = []
    for p in parameters:
        if p == "dimk":
            expanded.extend(("dimk", k) for k in range(2, a.k_dimensional_value + 1))
        else:
            expanded.append((p, None))
    oracles: dict[tuple[str, int | None], ParameterResult] = {}
    records = []
    for param, k in expanded:
        closed = closed_result(g, param, k=k, analysis=a)
        key = ("dimk", 2) if param == "dim2" else (param, k)
        if key not in oracles:
            oracles[key] = oracle_result(g, param, k=k, analysis=a)
        oracle = oracles[key]
        name = f"dimk[{k}]" if param == "dimk" else param
        records.append(
            VerificationRecord(
                graph6=g6,
                parameter=name,
                closed=closed,
                oracle=oracle,
                status=compare_results(closed, oracle),
                theorem_tag=closed.theorem_tag,
            )
        )
    return records


def _class_corpus(family: str, max_n: int) -> Iterator[Graph]:
    """One canonical representative per class for every order up to max_n;
    the tree class levels are grown once for the whole corpus."""
    levels = _tree_class_levels()
    if family == "unicyclic":
        next(levels)  # unicyclic orders start at 3
    for n in range(_ORDERS[family][0], max_n + 1):
        level = next(levels)
        yield from level if family == "tree" else _unicyclic_classes(n, level)


def corpus_graphs(spec: CorpusSpec) -> Iterator[Graph]:
    """Every graph of the corpus, orders ascending.  spec.max_n is checked
    before anything is enumerated: from the family's smallest order up to its
    cap, the enumeration cap for trees and unicyclic graphs."""
    family = spec.family.lower()
    _check_order(family, spec.max_n)
    if family in ("tree", "unicyclic") and spec.dedup:
        yield from _class_corpus(family, spec.max_n)
        return
    if family == "tree":
        gen: Callable[[int], Iterator[Graph]] = enumerate_trees
    elif family == "unicyclic":
        gen = enumerate_unicyclic
    elif family == "path":
        gen = lambda n: iter([from_edge_list(n, [(i, i + 1) for i in range(n - 1)])])
    else:
        gen = lambda n: iter([from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])])
    for n in range(_ORDERS[family][0], spec.max_n + 1):
        yield from gen(n)


def verify_corpus(
    spec: CorpusSpec,
    parameters=PARAMETER_NAMES,
    jobs: int = 1,
    report_path=None,
) -> tuple[list[VerificationRecord], int]:
    """Run closed-form-versus-oracle verification over a whole corpus.

    Returns all records in deterministic order plus the violation count.
    Records stream to report_path (JSON lines, summary footer) as they are
    produced, so partial results survive interruption.
    """
    parameters = list(parameters)
    graphs = list(corpus_graphs(spec))
    out = open(report_path, "w", encoding="utf-8") if report_path else None
    records: list[VerificationRecord] = []
    violations = 0
    try:
        if jobs > 1:
            # imported here: it costs every other process, such as each
            # `pseudoloc compute`, about 1.5 MB of resident memory
            import multiprocessing

            worker = functools.partial(verify_graph, parameters=parameters)
            with multiprocessing.get_context("fork").Pool(jobs) as pool:
                batches = pool.imap(worker, graphs, chunksize=4)
                for batch in batches:
                    records.extend(batch)
                    violations += _emit(batch, out)
        else:
            for g in graphs:
                batch = verify_graph(g, parameters)
                records.extend(batch)
                violations += _emit(batch, out)
        if out:
            footer = {
                "summary": {
                    "graphs": len(graphs),
                    "records": len(records),
                    "violations": violations,
                }
            }
            out.write(json.dumps(footer, sort_keys=True) + "\n")
    finally:
        if out:
            out.close()
    return records, violations


def _emit(batch: list[VerificationRecord], out) -> int:
    violations = 0
    for rec in batch:
        if rec.status == STATUS_VIOLATION:
            violations += 1
        if out:
            out.write(json.dumps(rec.to_json(), sort_keys=True) + "\n")
    return violations
