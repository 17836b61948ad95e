"""Packed distance rows and the kernels built on them, against the
definitional references in conftest: per-source BFS, the pair-by-pair
resolver count, the pairwise MMD test and the pairwise twin test."""

from __future__ import annotations

import hashlib
import importlib
import io
import itertools
import operator
import random
import sys

import pytest

from pseudoloc import (
    KOutOfRange,
    NotPseudotree,
    boundary_and_sr_graph,
    compute_parameter,
    distance_matrix,
    encode_graph6,
    from_edge_list,
    hanging_trees,
    k_dimensional_value,
    kept,
    parse_graph6,
    profile_json,
    random_pseudotree,
)
from pseudoloc.cli import main
from pseudoloc.structure import _twin_pairs

from conftest import (
    cycle_graph,
    distance_rows_by_bfs,
    k_dimensional_by_pairs,
    mmd_pairs_by_definition,
    neighbour_rows,
    packed_matrix,
    path_graph,
    random_pseudotrees,
    twin_free_bicyclic_graphs,
    twin_pairs_by_definition,
    unpacked,
)

K4 = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

# sha256 of rows_pin_text over random_pseudotrees(64, 300), recorded before the
# cycle rows were derived by arc sums and cut vertices skipped in the SR graph
ROWS_DIGEST = "27800e43b1aec4f160feb5d999497be73bab1c80dc5c4b7ec960e74b6257cdd9"


def assert_distance_rows_match(g):
    """Distance rows against BFS from every vertex."""
    rows = distance_rows_by_bfs(g)
    assert unpacked(kept(g, distance_matrix)) == rows
    return rows


def assert_rows_match(g):
    """Distance rows against BFS from every vertex, SR rows and boundary
    against the pairwise MMD test on the BFS rows, which shares no code with
    the SR graph's rule."""
    rows = assert_distance_rows_match(g)
    pairs = mmd_pairs_by_definition(g, rows)
    sr = boundary_and_sr_graph(g)
    assert sr.rows == neighbour_rows(g.n, pairs)
    assert sr.boundary_mask == sum(1 << x for x in {x for e in pairs for x in e})
    return rows


def assert_kernels_match(g):
    rows = assert_rows_match(g)
    if g.n >= 2:
        assert k_dimensional_value(g) == k_dimensional_by_pairs(rows)
    assert _twin_pairs(g) == tuple(twin_pairs_by_definition(g))


def assert_refused_off_pseudotrees(g):
    """For a graph with m > n: every kernel refuses it, and its twins still
    match the pairwise test.  Returns its BFS rows for the references."""
    assert g.m > g.n
    for kernel in (hanging_trees, distance_matrix, k_dimensional_value, boundary_and_sr_graph):
        with pytest.raises(NotPseudotree):
            kernel(g)
    assert _twin_pairs(g) == tuple(twin_pairs_by_definition(g))
    return distance_rows_by_bfs(g)


def cut_vertices(g) -> list[int]:
    """The vertices v of g (n >= 2) whose removal disconnects it, each by a
    search of g - v."""
    found = []
    for v in range(g.n):
        start = 1 if v == 0 else 0
        seen, stack = {v, start}, [start]
        while stack:
            for w in g.adjacency[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) < g.n:
            found.append(v)
    return found


def unicyclic_of_girth(n: int, girth: int):
    """A cycle of the given girth with n - girth vertices hung off it at random."""
    rng = random.Random(girth)
    edges = [(i, (i + 1) % girth) for i in range(girth)]
    edges += [(v, rng.randrange(v)) for v in range(girth, n)]
    return from_edge_list(n, edges)


def rows_pin_text(graphs) -> str:
    """Per graph, its graph6, packed distance rows, SR rows and boundary in hex."""
    return "\n".join(
        " ".join([encode_graph6(g), *map("{:x}".format, dm + sr.rows), f"{sr.boundary_mask:x}"])
        for g in graphs
        for dm in [distance_matrix(g)]
        for sr in [boundary_and_sr_graph(g)]
    )


class TestFieldWidth:
    def test_one_byte_while_distance_plus_one_fits(self):
        # the graph cap of 64 keeps every distance + 1 within a byte: P64 and
        # C64 hold the longest distances, 63 and 32, one byte per field
        for g in (path_graph(64), cycle_graph(64)):
            dm = distance_matrix(g)
            assert all(p.bit_length() <= 8 * g.n for p in dm)
            assert tuple(tuple(p.to_bytes(g.n, "little")) for p in dm) == distance_rows_by_bfs(g)
        assert max(unpacked(distance_matrix(path_graph(64)))[0]) == 63

    def test_rows_given_alone_are_packed(self, paw):
        dm = packed_matrix(distance_rows_by_bfs(paw))
        assert dm == distance_matrix(paw)


class TestAgainstReferences:
    def test_all_trees_up_to_9(self, tree_classes_by_n):
        for n in range(2, 10):
            for g in tree_classes_by_n[n]:
                assert_kernels_match(g)

    def test_all_unicyclic_up_to_8(self, unicyclic_classes_by_n):
        for n in range(3, 9):
            for g in unicyclic_classes_by_n[n]:
                assert_kernels_match(g)

    def test_sr_rows_on_the_unicyclic_classes_of_order_9(self, unicyclic_classes_by_n):
        # the SR graph's rules against the pairwise MMD test, with the trees
        # up to 9 above: every tree and unicyclic class up to n = 9
        for g in unicyclic_classes_by_n[9]:
            assert_rows_match(g)

    def test_random_pseudotrees_n64(self):
        for g in random_pseudotrees(64, 40):
            assert_kernels_match(g)

    def test_one_vertex(self):
        assert_kernels_match(from_edge_list(1, []))

    def test_k4_and_paw(self, paw):
        # K4 has m > n and is refused; the paw is a triangle with one bridge
        assert_refused_off_pseudotrees(from_edge_list(4, K4))
        assert_kernels_match(paw)

    def test_profile_twin_pairs(self, c4, paw, spider122):
        assert profile_json(c4)["twin_pairs"] == [[0, 2], [1, 3]]
        assert profile_json(paw)["twin_pairs"] == [[1, 2]]
        assert profile_json(spider122)["twin_pairs"] == []


class TestArcAndCutVertexRules:
    """Cycle rows from the row before by the arc of vertices that get closer,
    no BFS at all, and no maximally distant partner for a cut vertex."""

    def test_cycles_3_to_64(self):
        for n in range(3, 65):
            assert_rows_match(cycle_graph(n))

    def test_every_girth_at_the_cap(self):
        for girth in range(3, 64):
            g = unicyclic_of_girth(64, girth)
            assert g.m == g.n and len(hanging_trees(g)[0]) == girth
            assert_rows_match(g)

    def test_cut_vertices_are_maximally_distant_from_none(self, tree_classes_by_n, unicyclic_classes_by_n):
        for g in tree_classes_by_n[9] + unicyclic_classes_by_n[9] + random_pseudotrees(64, 20):
            _, order, parent, _, _ = hanging_trees(g)
            rows = distance_rows_by_bfs(g)
            sr_rows = boundary_and_sr_graph(g).rows
            for v in {parent[u] for u in order}:
                if len(g.adjacency[v]) > 1:
                    assert not sr_rows[v]
                    assert all(any(rows[u][w] > rows[u][v] for w in g.adjacency[v]) for u in range(g.n) if u != v)

    @pytest.mark.parametrize(
        "n, edges",
        [
            # K4 with the path 3-4-5-6 hanging off it
            (7, K4 + ((3, 4), (4, 5), (5, 6))),
            # triangles 0-1-2 and 0-3-4 sharing 0, with leaves 5 on 1, 6 on 3, 7 on 0
            (8, ((0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4), (1, 5), (3, 6), (0, 7))),
        ],
    )
    def test_core_bfs_and_cut_vertices_off_pseudotrees(self, n, edges):
        g = from_edge_list(n, edges)
        rows = assert_refused_off_pseudotrees(g)
        # the lemma the SR graph rests on holds in any connected graph: on
        # BFS rows, a cut vertex is maximally distant from none
        cuts = cut_vertices(g)
        assert cuts
        for v in cuts:
            assert all(any(rows[u][w] > rows[u][v] for w in g.adjacency[v]) for u in range(g.n) if u != v)

    def test_core_bfs_only_off_pseudotrees(self):
        # every pseudotree takes the arc-sum walk, a tree's centre being a
        # core of length 1, and a graph with m > n is refused
        for g in random_pseudotrees(64, 40) + [path_graph(2), from_edge_list(1, [])]:
            assert_distance_rows_match(g)
        for g in [from_edge_list(4, K4)] + twin_free_bicyclic_graphs():
            with pytest.raises(NotPseudotree):
                distance_matrix(g)

    def test_rows_pinned_at_the_cap(self):
        text = rows_pin_text(random_pseudotrees(64, 300))
        assert hashlib.sha256(text.encode()).hexdigest() == ROWS_DIGEST


def twin_free(g) -> bool:
    return not twin_pairs_by_definition(g)


class TestKDimensionalValue:
    """The twin test and the oracle's vertex-pair masks against the count over all pairs."""

    def assert_matches(self, graphs):
        for g in graphs:
            assert k_dimensional_value(g) == k_dimensional_by_pairs(distance_rows_by_bfs(g)), g.edges

    def test_every_class(self, tree_classes_by_n, unicyclic_classes_by_n):
        for by_n in (tree_classes_by_n, unicyclic_classes_by_n):
            for graphs in by_n.values():
                self.assert_matches(graphs)

    def test_paths_and_cycles_up_to_40(self):
        self.assert_matches([path_graph(n) for n in range(2, 41)] + [cycle_graph(n) for n in range(3, 41)])
        # the path's value grows with n: its distance-2 pairs leave out one vertex
        assert k_dimensional_value(path_graph(40)) == 39

    def test_twin_free_graphs_at_the_cap(self):
        graphs = [
            g
            for seed in range(3000)
            for family in ("tree", "unicyclic")
            if not _twin_pairs(g := random_pseudotree(family, 64, random.Random(seed)))
        ]
        assert len(graphs) >= 100
        self.assert_matches(graphs)

    def test_degree_bound_decides_off_pseudotrees(self):
        # two twin-free bicyclic graphs whose fewest resolvers, 5, are those of
        # a pair at distance 3 with 2 + deg x + deg y = 5: every pair within
        # distance 2 has 6, so a count over the near pairs alone would miss
        # the value; with m > n the package refuses them
        for g in twin_free_bicyclic_graphs():
            rows = distance_rows_by_bfs(g)
            assert twin_free(g) and g.m == g.n + 1
            near = [(x, y) for x, y in itertools.combinations(range(g.n), 2) if rows[x][y] <= 2]
            assert k_dimensional_by_pairs(rows) == 5
            assert min(sum(map(operator.ne, rows[x], rows[y])) for x, y in near) == 6
            with pytest.raises(NotPseudotree):
                k_dimensional_value(g)

    def test_least_pair_beyond_distance_2(self, monkeypatch, capsys):
        # C6 with legs of lengths 3, 1 and 3 at cycle vertices 3, 4 and 5: its
        # fewest resolvers, 5, are those of pair (1, 9) at distance 4, and
        # every pair within distance 2 has at least 6.  The only such class
        # among the unicyclic classes up to n = 13
        line = "LhEG_C@A?G?@?@"
        g = parse_graph6(line)
        rows = distance_rows_by_bfs(g)
        assert g.m == g.n == 13 and twin_free(g)
        assert k_dimensional_value(g) == k_dimensional_by_pairs(rows) == 5
        pairs = itertools.combinations(range(13), 2)
        counts = {(x, y): sum(map(operator.ne, rows[x], rows[y])) for x, y in pairs}
        assert [pair for pair, count in counts.items() if count == 5] == [(1, 9)] and rows[1][9] == 4
        assert min(count for (x, y), count in counts.items() if rows[x][y] <= 2) == 6
        for method in ("closed", "brute", "auto"):
            with pytest.raises(KOutOfRange, match=r"no 6-locating set exists \(k-dimensional value 5\)"):
                compute_parameter(g, "dimk", k=6, method=method)
        monkeypatch.setattr(sys, "stdin", io.StringIO(line + "\n"))
        assert main(["compute", "--param", "dimk", "--k", "6"]) == 5
        assert "k-dimensional value 5" in capsys.readouterr().err
        assert compute_parameter(g, "dimk", k=5, method="brute").value == 9

    def test_twins_need_no_distances(self, monkeypatch, tree_classes_by_n, unicyclic_classes_by_n):
        def refuse(g):
            raise AssertionError("distances read")

        by_order = list(tree_classes_by_n.values()) + list(unicyclic_classes_by_n.values())
        graphs = [g for gs in by_order for g in gs]
        with_twins = [g for g in graphs if not twin_free(g)]
        assert with_twins and len(with_twins) < len(graphs)
        assert all(k_dimensional_value(g) >= 3 for g in graphs if twin_free(g))
        # every module that binds distance_matrix; a matrix kept under the
        # real builder is keyed by it, so refuse still sees every read
        for name in ("graph", "resolvers"):
            monkeypatch.setattr(importlib.import_module(f"pseudoloc.{name}"), "distance_matrix", refuse)
        assert all(k_dimensional_value(g) == 2 for g in with_twins)
        # a twin-free graph reads the masks kept on it above; a copy keeps none
        g = next(g for g in graphs if twin_free(g))
        assert k_dimensional_value(g) >= 3
        with pytest.raises(AssertionError, match="distances read"):
            k_dimensional_value(from_edge_list(g.n, g.edges))
