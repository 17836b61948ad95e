"""Profiles, boundary/MMD structure, necklaces, exact alpha and gamma."""

from __future__ import annotations

import itertools
import random

import pytest

from pseudoloc import (
    FamilyKind,
    NotPseudotree,
    boundary_and_sr_graph,
    classify,
    compute_parameter,
    domination_number,
    from_edge_list,
    independence_number,
    lex_first_cover,
    parse_graph6,
    profile,
    profile_json,
)
from pseudoloc.corpus import random_pseudotree, unicyclic_canonical_key
from pseudoloc.graph import closed_neighbourhoods

from conftest import (
    NotProperUnicyclic,
    alpha_by_branch_and_bound,
    alpha_by_enumeration,
    antipodal_pairs_by_bfs,
    closed_necklace,
    cycle_graph,
    gamma_by_enumeration,
    geodesic_triples_by_bfs,
    neighbour_rows,
    pairs_of_rows,
    path_graph,
    random_pseudotrees,
    relabelled_cycles,
)


class TestClassify:
    def test_examples(self, p4, paw, c6):
        assert classify(p4) is FamilyKind.PATH
        assert classify(paw) is FamilyKind.PROPER_UNICYCLIC
        assert classify(c6) is FamilyKind.CYCLE

    def test_star_is_tree(self, k13):
        assert classify(k13) is FamilyKind.TREE

    def test_rejects_m_gt_n(self):
        with pytest.raises(NotPseudotree):
            classify(parse_graph6("C~"))


class TestProfile:
    def test_paw(self, paw):
        prof = profile(paw)
        assert prof.leaves == (3,)
        assert prof.exterior_major == (0,)
        assert prof.supports == (0,)
        assert prof.rho == 0
        assert prof.trivial_vertices == (1, 2)
        assert prof.root_vertices == (0,)
        payload = profile_json(paw)
        assert payload["threads"] == {"0": [3]}
        assert payload["branching_trees"]["0"] == [0, 3]

    def test_spider122(self, spider122):
        prof = profile(spider122)
        assert prof.leaves == (1, 3, 5)
        assert prof.exterior_major == (0,)
        assert prof.strong_exterior_major == (0,)
        assert prof.num_strong_leaves == 3
        assert prof.supports == (0, 2, 4)
        assert profile_json(spider122)["strong_supports"] == []

    def test_c5p13(self, c5p13):
        prof = profile(c5p13)
        assert prof.num_leaves == 2 and prof.num_exterior_major == 2
        assert prof.rho == 0
        assert prof.trivial_vertices == (1, 3, 4)
        assert prof.root_vertices == (0, 2)
        assert prof.antipodal_pairs(prof.root_vertices) == 1

    def test_showcase_statistics(self, branching_showcase):
        prof = profile(branching_showcase)
        assert prof.girth == 8
        assert prof.num_leaves == 10
        assert prof.num_exterior_major == 6
        assert prof.num_strong_leaves == 8
        assert prof.num_strong_exterior_major == 4
        assert prof.c2 == 3
        assert prof.c3 == 5
        assert prof.rho == 3

    def test_showcase_vertex_roles(self, branching_showcase):
        prof = profile(branching_showcase)
        # an exterior major vertex that is neither strong nor a support
        lonely = set(prof.exterior_major) - set(prof.strong_exterior_major) - set(prof.supports)
        assert lonely
        # a major vertex that is neither exterior major nor a support
        majors = {v for v, nbrs in enumerate(branching_showcase.adjacency) if len(nbrs) >= 3}
        assert majors - set(prof.exterior_major) - set(prof.supports)

    def test_tree_profile_has_no_cycle_fields(self, spider122):
        prof = profile(spider122)
        assert prof.girth == 0 and prof.cycle == ()
        payload = profile_json(spider122)
        assert payload["branching_trees"] == {} and payload["threads"] == {}
        assert payload["antipodal_trivial_pairs"] == payload["antipodal_root_pairs"] == 0

    def test_count_identity_and_partition(self, tree_classes_by_n, unicyclic_classes_by_n):
        graphs = tree_classes_by_n[8] + unicyclic_classes_by_n[8]
        for g in graphs:
            prof = profile(g)
            if prof.num_exterior_major >= 1:
                assert (
                    prof.num_strong_leaves - prof.num_strong_exterior_major
                    == prof.num_leaves - prof.num_exterior_major
                )
            if prof.kind.is_unicyclic:
                assert prof.c2 + prof.c3 == prof.girth
                assert set(prof.branch_active) <= set(prof.root_vertices)
                payload = profile_json(g)
                for root in payload["threads"]:
                    assert len(g.adjacency[int(root)]) == 3
                for v in prof.root_vertices:
                    assert len(payload["branching_trees"][str(v)]) >= 2
                for v in prof.trivial_vertices:
                    assert payload["branching_trees"][str(v)] == [v]

    def test_json_shape(self, c5p13):
        payload = profile_json(c5p13)
        assert payload["kind"] == "ProperUnicyclic"
        assert payload["g"] == 5 and payload["l"] == 2 and payload["lambda"] == 2
        assert payload["rho"] == 0 and payload["c2"] == 3 and payload["c3"] == 2


class TestCycleSubsets:
    def test_geodesic_examples(self, c6, c5):
        assert geodesic_triples_by_bfs(c6, [0, 2, 4]) == [(0, 2, 4)]
        assert geodesic_triples_by_bfs(c6, [0, 1, 2]) == []
        assert geodesic_triples_by_bfs(c5, [0, 1, 3]) == [(0, 1, 3)]
        assert profile(c6).has_geodesic_triple([0, 2, 4])
        assert not profile(c6).has_geodesic_triple([0, 1, 2])
        assert profile(c5).has_geodesic_triple([3, 0, 1])

    def test_antipodal_examples(self, c4, c5):
        assert antipodal_pairs_by_bfs(c4, [0, 1, 2, 3]) == [(0, 2), (1, 3)]
        assert antipodal_pairs_by_bfs(c5, [0, 2]) == [(0, 2)]
        assert antipodal_pairs_by_bfs(c5, [0, 1]) == []
        assert profile(c4).antipodal_pairs([1, 3]) == 1
        assert profile(c4).antipodal_pairs([0, 1, 2, 3]) == 2
        assert profile(c5).antipodal_pairs([2, 0]) == 1
        assert profile(c5).antipodal_pairs([0, 1]) == 0

    def test_antipodal_counts_equal_the_pairs(self, unicyclic_classes_by_n):
        graphs = [g for n in range(3, 10) for g in unicyclic_classes_by_n[n]]
        graphs += [g for g in random_pseudotrees(64, 300) if g.m == g.n]
        for g in graphs:
            payload = profile_json(g)
            assert payload["antipodal_trivial_pairs"] == len(antipodal_pairs_by_bfs(g, payload["trivial_vertices"]))
            assert payload["antipodal_root_pairs"] == len(antipodal_pairs_by_bfs(g, payload["root_vertices"]))

    def test_set_tests_on_every_subset_of_small_cycles(self):
        # both tests read positions on the cycle walk, which need not follow
        # the labels: the relabelled C5, C8 and C11 are here too
        for g in [cycle_graph(n) for n in range(3, 11)] + relabelled_cycles()[:3]:
            prof = profile(g)
            for size in range(g.n + 1):
                for subset in itertools.combinations(range(g.n), size):
                    assert prof.antipodal_pairs(subset) == len(antipodal_pairs_by_bfs(g, subset))
                    assert prof.has_geodesic_triple(subset) == bool(geodesic_triples_by_bfs(g, subset))

    def test_set_tests_on_the_cycle_vertex_classes(self, unicyclic_classes_by_n):
        graphs = [g for n in range(3, 10) for g in unicyclic_classes_by_n[n]]
        graphs += [g for g in random_pseudotrees(64, 100) if g.m == g.n]
        for g in graphs:
            prof = profile(g)
            for subset in (prof.cycle, prof.trivial_vertices, prof.root_vertices, prof.branch_active):
                assert prof.antipodal_pairs(subset) == len(antipodal_pairs_by_bfs(g, subset))
                assert prof.has_geodesic_triple(subset) == bool(geodesic_triples_by_bfs(g, subset))


class TestBoundary:
    def assert_sr_graph(self, g, pairs):
        sr = boundary_and_sr_graph(g)
        assert set(pairs_of_rows(sr.rows)) == pairs
        assert sr.boundary_mask == sum(1 << x for x in {x for e in pairs for x in e})

    def test_paw_triangle(self, paw):
        self.assert_sr_graph(paw, {(1, 2), (1, 3), (2, 3)})

    def test_c4p_two_disjoint_edges(self, c4p):
        self.assert_sr_graph(c4p, {(1, 3), (2, 4)})

    def test_cycle_antipodal(self, c6):
        self.assert_sr_graph(c6, {(0, 3), (1, 4), (2, 5)})
        assert boundary_and_sr_graph(c6).order == 6

    def test_every_leaf_pair_is_mmd(self, tree_classes_by_n, unicyclic_classes_by_n):
        for g in tree_classes_by_n[8] + unicyclic_classes_by_n[8]:
            prof = profile(g)
            edges = set(pairs_of_rows(boundary_and_sr_graph(g).rows))
            for u, v in itertools.combinations(prof.leaves, 2):
                assert (u, v) in edges


class TestClosedNecklace:
    def test_paw_fixed_point(self, paw):
        necklace, mapping = closed_necklace(paw)
        assert unicyclic_canonical_key(necklace) == unicyclic_canonical_key(paw)
        assert mapping[3] in range(necklace.n)

    def test_path_becomes_pendant(self):
        g = from_edge_list(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (5, 6)])
        necklace, mapping = closed_necklace(g)
        assert necklace.n == 6  # C5 plus one pendant
        assert len(necklace.adjacency[mapping[6]]) == 1

    def test_c5p13_fixed_point(self, c5p13):
        necklace, _ = closed_necklace(c5p13)
        assert unicyclic_canonical_key(necklace) == unicyclic_canonical_key(c5p13)

    def test_rejects_trees_and_cycles(self, p4, c6):
        with pytest.raises(NotProperUnicyclic):
            closed_necklace(p4)
        with pytest.raises(NotProperUnicyclic):
            closed_necklace(c6)

    def test_preserves_strong_resolving_graph(self, unicyclic_classes_by_n):
        for g in unicyclic_classes_by_n[8]:
            if classify(g) is not FamilyKind.PROPER_UNICYCLIC:
                continue
            sr = boundary_and_sr_graph(g)
            necklace, mapping = closed_necklace(g)
            sr_neck = boundary_and_sr_graph(necklace)
            assert sr.order == sr_neck.order
            mapped = {tuple(sorted((mapping[u], mapping[v]))) for u, v in pairs_of_rows(sr.rows)}
            assert mapped == set(pairs_of_rows(sr_neck.rows))


class TestExactSolvers:
    def test_alpha_examples(self, c6, c5p13):
        assert independence_number(neighbour_rows(4, parse_graph6("C~").edges), 0b1111) == 1
        assert independence_number(neighbour_rows(6, c6.edges), 0b111111) == 3
        sr = boundary_and_sr_graph(c5p13)
        assert independence_number(sr.rows, sr.boundary_mask) == 2
        # the vertices off the boundary are isolated, counted only when asked
        assert independence_number(sr.rows, (1 << 7) - 1) == 2 + 7 - sr.order

    def test_gamma_examples(self, paw):
        assert domination_number(path_graph(6)) == 2
        assert domination_number(paw) == 1
        assert domination_number(cycle_graph(7)) == 3

    def test_alpha_on_disconnected_sr_inputs(self, c4p):
        sr = boundary_and_sr_graph(c4p)  # 2K2
        assert independence_number(sr.rows, sr.boundary_mask) == 2

    def test_agree_with_enumeration(self, tree_classes_by_n, unicyclic_classes_by_n):
        graphs = tree_classes_by_n[7] + unicyclic_classes_by_n[7]
        graphs += [
            random_pseudotree("unicyclic", 9 + seed % 4, random.Random(seed))
            for seed in range(12)
        ]
        for g in graphs:
            expected = alpha_by_enumeration(range(g.n), g.edges)
            assert independence_number(neighbour_rows(g.n, g.edges), (1 << g.n) - 1) == expected
            assert domination_number(g) == gamma_by_enumeration(g)

    def test_alpha_on_every_sr_graph_of_the_corpora(self, tree_classes_by_n, unicyclic_classes_by_n):
        for graphs in list(tree_classes_by_n.values()) + list(unicyclic_classes_by_n.values()):
            for g in graphs:
                sr = boundary_and_sr_graph(g)
                boundary = [v for v in range(g.n) if sr.boundary_mask >> v & 1]
                pairs = pairs_of_rows(sr.rows)
                expected = alpha_by_enumeration(boundary, pairs)
                assert alpha_by_branch_and_bound(boundary, pairs) == expected
                assert independence_number(sr.rows, sr.boundary_mask) == expected

    def test_alpha_at_the_cap(self):
        # the SR graph and the graph itself of 300 random 64-vertex pseudotrees
        for g in random_pseudotrees(64, 300):
            sr = boundary_and_sr_graph(g)
            boundary = [v for v in range(g.n) if sr.boundary_mask >> v & 1]
            expected = alpha_by_branch_and_bound(boundary, pairs_of_rows(sr.rows))
            assert independence_number(sr.rows, sr.boundary_mask) == expected
            expected = alpha_by_branch_and_bound(range(g.n), g.edges)
            assert independence_number(neighbour_rows(g.n, g.edges), (1 << g.n) - 1) == expected

    @pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
    def test_alpha_on_random_dense_graphs(self, p):
        rng = random.Random(p)
        for n in range(2, 41, 2):
            edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
            rows = neighbour_rows(n, edges)
            assert independence_number(rows, (1 << n) - 1) == alpha_by_branch_and_bound(range(n), edges)
            within = rng.getrandbits(n)
            inside = [v for v in range(n) if within >> v & 1]
            expected = alpha_by_branch_and_bound(inside, [e for e in edges if set(e) <= set(inside)])
            assert independence_number(rows, within) == expected

    def test_gamma_on_every_class_of_the_corpora(self, tree_classes_by_n, unicyclic_classes_by_n):
        for graphs in list(tree_classes_by_n.values()) + list(unicyclic_classes_by_n.values()):
            for g in graphs:
                expected = gamma_by_enumeration(g)
                assert len(lex_first_cover(g.n, closed_neighbourhoods(g))) == expected
                assert domination_number(g) == expected

    def test_gamma_at_the_cap(self):
        for g in random_pseudotrees(64, 300):
            assert domination_number(g) == len(lex_first_cover(g.n, closed_neighbourhoods(g)))
        # a 32-vertex path with one pendant per vertex
        comb = from_edge_list(64, [(i, i + 1) for i in range(31)] + [(i, 32 + i) for i in range(32)])
        assert domination_number(comb) == 32
        assert domination_number(path_graph(64)) == 22
        assert domination_number(cycle_graph(64)) == 22
        res = compute_parameter(comb, "ddim", method="closed")
        assert (res.value, res.theorem_tag) == (32, "DDIM_TREE")

    def test_known_formulas_to_n12(self):
        for n in range(3, 13):
            assert independence_number(neighbour_rows(n, cycle_graph(n).edges), (1 << n) - 1) == n // 2
            assert domination_number(cycle_graph(n)) == (n + 2) // 3
            assert domination_number(path_graph(n)) == (n + 2) // 3
