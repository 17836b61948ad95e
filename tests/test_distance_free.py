"""What reads no distances: the profile's terminal map against the nearest
major vertex by BFS, closed forms with distance_matrix made to raise,
canonical forms without the profile, and one k-dimensional value per
verified graph.

Of the closed forms, only dimk at k >= 3 on a twin-free graph builds a
distance matrix, at most one per graph: its k-range rule counts the
oracle's vertex-pair masks.  sdim reads its strong resolving graph off the
profile.  dim2 and dimk at k = 2 read no k-dimensional value, since every
pair is resolved by its own two ends; at k >= 3 dimk reads it off the twins
when there are any, and tree leg lengths off the profile."""

from __future__ import annotations

import importlib
import random

import pytest

from pseudoloc import (
    PARAMETER_NAMES,
    FamilyKind,
    closed_result,
    compute_parameter,
    enumerate_trees,
    enumerate_unicyclic,
    from_edge_list,
    k_dimensional_value,
    ldim_closed,
    profile,
    random_pseudotree,
    verify_graph,
)

from conftest import (
    count_calls,
    cycle_graph,
    is_bipartite,
    path_graph,
    random_pseudotrees,
    terminal_map_by_distances,
    twin_pairs_by_definition,
)

DISTANCE_FREE = ("dmd", "dim", "dim2", "edim", "mdim", "ldim")
# every module that binds distance_matrix; corpus binds the k-dimensional
# value, which reads the matrix through resolvers
MODULES_THAT_BUILD_DISTANCES = ("resolvers", "graph")
# every module that binds k_dimensional_value
MODULES_THAT_COUNT_RESOLVERS = ("resolvers", "corpus")


@pytest.fixture
def no_distances(monkeypatch):
    """distance_matrix raises wherever the closed forms and the profile could call it."""

    def refuse(g):
        raise AssertionError("distance_matrix called")

    for name in MODULES_THAT_BUILD_DISTANCES:
        monkeypatch.setattr(importlib.import_module(f"pseudoloc.{name}"), "distance_matrix", refuse)


class TestTerminalMap:
    def assert_matches(self, graphs):
        for g in graphs:
            assert profile(g).terminal_map == terminal_map_by_distances(g), g.edges

    def test_trees_up_to_10(self, tree_classes_by_n):
        for graphs in tree_classes_by_n.values():
            self.assert_matches(graphs)
        self.assert_matches(enumerate_trees(10, dedup=True))

    def test_unicyclic_up_to_9(self, unicyclic_classes_by_n):
        for graphs in unicyclic_classes_by_n.values():
            self.assert_matches(graphs)

    def test_random_at_64(self):
        self.assert_matches(random_pseudotrees(64, 200))

    def test_small_and_cyclic(self, paw):
        self.assert_matches([path_graph(2), paw] + [cycle_graph(n) for n in range(3, 9)])
        assert profile(path_graph(2)).terminal_map == {}
        assert profile(paw).terminal_map == {0: (3,)}


class TestClosedFormsWithoutDistances:
    def test_profile_and_six_parameters(self, no_distances, tree_classes_by_n, unicyclic_classes_by_n):
        graphs = tree_classes_by_n[8] + unicyclic_classes_by_n[8] + random_pseudotrees(64, 20)
        for g in graphs:
            for param in DISTANCE_FREE:
                assert closed_result(g, param).theorem_tag

    def test_sdim_on_paths_trees_and_cycles(self, no_distances, tree_classes_by_n):
        graphs = [path_graph(9), cycle_graph(8), cycle_graph(9)] + tree_classes_by_n[8]
        graphs += random_pseudotrees(64, 20)[::2]  # the trees
        for g in graphs:
            assert closed_result(g, "sdim").is_exact

    def test_sdim_on_proper_unicyclic_builds_distances(self, no_distances, unicyclic_classes_by_n):
        # odd girth reads its SR graph and alpha off the profile: no matrix
        graphs = [
            g
            for graphs in unicyclic_classes_by_n.values()
            for g in graphs
            if profile(g).kind is FamilyKind.PROPER_UNICYCLIC and profile(g).girth % 2
        ]
        assert len(graphs) > 100
        for g in graphs:
            assert closed_result(g, "sdim").theorem_tag == "SDIM_PARTALPHA"

    def test_even_girth_sdim_builds_no_sr_graph(self, monkeypatch, c4p):
        # even girth is the paper's formula alone: no distances and no SR graph
        dms = count_calls(monkeypatch, "distance_matrix", MODULES_THAT_BUILD_DISTANCES)
        srs = count_calls(monkeypatch, "boundary_and_sr_graph", ("structure", "closed_form"))
        graphs = [c4p] + [g for g in random_pseudotrees(64, 40)[1::2] if profile(g).girth % 2 == 0]
        assert len(graphs) > 1
        for g in graphs:
            res = compute_parameter(g, "sdim", method="closed")
            assert res.theorem_tag == "SDIM_EVEN_EXACT"
        assert dms == [] and srs == []


class TestDimkDistances:
    def test_dimk_with_twins_builds_none(self, no_distances, tree_classes_by_n, unicyclic_classes_by_n):
        graphs = tree_classes_by_n[8] + unicyclic_classes_by_n[8] + random_pseudotrees(64, 20)
        graphs = [g for g in graphs if twin_pairs_by_definition(g)]
        assert len(graphs) > 20
        for g in graphs:
            assert compute_parameter(g, "dimk", k=2, method="closed").theorem_tag

    def test_k2_reads_no_k_dimensional_value(
        self, monkeypatch, no_distances, tree_classes_by_n, unicyclic_classes_by_n
    ):
        # every pair is resolved by its own two ends, twin-free graphs included
        graphs = tree_classes_by_n[8] + unicyclic_classes_by_n[8] + random_pseudotrees(64, 20)
        assert sum(not twin_pairs_by_definition(g) for g in graphs) > 10
        calls = count_calls(monkeypatch, "k_dimensional_value", MODULES_THAT_COUNT_RESOLVERS)
        for g in graphs:
            assert closed_result(g, "dim2").theorem_tag
            assert compute_parameter(g, "dimk", k=2, method="closed").theorem_tag
        assert calls == []

    def test_dimk_on_a_twin_free_graph_builds_one(self, monkeypatch, spider122):
        trees = [path_graph(9), spider122, random_pseudotree("tree", 64, random.Random(143))]
        unicyclic = [cycle_graph(9), random_pseudotree("unicyclic", 64, random.Random(143))]
        # the k-ranges on copies, which keep nothing on the graphs asked
        copies = [(g, from_edge_list(g.n, g.edges)) for g in trees + unicyclic]
        ranges = [(g, range(2, k_dimensional_value(copy) + 1)) for g, copy in copies]
        dms = count_calls(monkeypatch, "distance_matrix", MODULES_THAT_BUILD_DISTANCES)
        for g, ks in ranges:
            assert not twin_pairs_by_definition(g) and len(ks) >= 2
            dms.clear()
            assert compute_parameter(g, "dimk", k=2, method="closed").theorem_tag
            assert dms == []  # k = 2 reads no k-dimensional value
            for k in ks[1:]:
                assert compute_parameter(g, "dimk", k=k, method="closed").theorem_tag
            assert dms == [g]  # one matrix for the rest of the k-range


class TestSharedWork:
    def test_canonical_forms_without_profile(self, monkeypatch, unicyclic_classes_by_n):
        def refuse(g):
            raise AssertionError("profile called")

        # corpus reaches the profile only through closed_form's closed forms
        for name in ("closed_form", "structure"):
            monkeypatch.setattr(importlib.import_module(f"pseudoloc.{name}"), "profile", refuse)
        # connected unicyclic graphs on 3..8 vertices (OEIS A001429)
        counts = [len(list(enumerate_unicyclic(n, dedup=True))) for n in range(3, 9)]
        assert counts == [1, 2, 5, 13, 33, 89]
        assert list(enumerate_unicyclic(8, dedup=True)) == unicyclic_classes_by_n[8]

    def test_one_k_dimensional_value_per_verified_graph(self, monkeypatch, unicyclic_classes_by_n):
        # the kept value is the one computation of it: the k-range and the
        # k-range rule of every dimk closed form and oracle share one call
        expected = {g: k_dimensional_value(g) for g in unicyclic_classes_by_n[6]}
        calls = count_calls(monkeypatch, "k_dimensional_value", MODULES_THAT_COUNT_RESOLVERS)
        for g, kmax in expected.items():
            calls.clear()
            records = verify_graph(g, PARAMETER_NAMES)
            dimk = [r.parameter for r in records if r.parameter.startswith("dimk")]
            assert dimk == [f"dimk[{k}]" for k in range(2, kmax + 1)]
            assert calls == [g]

    def test_ldim_reads_girth_parity(self, unicyclic_classes_by_n):
        for graphs in unicyclic_classes_by_n.values():
            for g in graphs:
                assert ldim_closed(g).value == (1 if is_bipartite(g) else 2)
