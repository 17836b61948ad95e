"""Packed distance rows and the kernels built on them, against the
definitional references in conftest: per-source BFS, the pair-by-pair
resolver count, the pairwise MMD test and the pairwise twin test."""

from __future__ import annotations

import pytest

from pseudoloc import (
    DistanceMatrix,
    boundary_and_sr_graph,
    distance_matrix,
    from_edge_list,
    k_dimensional_value,
    profile,
)
from pseudoloc.graph import field_width, unpack_row
from pseudoloc.structure import _twin_pairs

from conftest import (
    cycle_graph,
    distance_rows_by_bfs,
    k_dimensional_by_pairs,
    mmd_pairs_by_definition,
    path_graph,
    random_pseudotrees,
    twin_pairs_by_definition,
)

K4 = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def assert_kernels_match(g):
    dm = distance_matrix(g)
    rows = distance_rows_by_bfs(g)
    assert dm.rows == rows
    assert all(unpack_row(p, g.n, dm.width) == row for p, row in zip(dm.packed, rows))
    if g.n >= 2:
        assert k_dimensional_value(g, dm) == k_dimensional_by_pairs(rows)
    pairs = mmd_pairs_by_definition(g, rows)
    sr = boundary_and_sr_graph(g, dm)
    assert sr.mmd_edges == tuple(pairs)
    assert sr.boundary == tuple(sorted({x for e in pairs for x in e}))
    assert _twin_pairs(g) == tuple(twin_pairs_by_definition(g))


class TestFieldWidth:
    def test_one_byte_while_distance_plus_one_fits(self):
        assert field_width(1) == field_width(255) == 8
        assert field_width(256) == field_width(65535) == 16
        assert field_width(65536) == 32

    def test_rows_given_alone_are_packed(self, paw):
        dm = DistanceMatrix(rows=distance_rows_by_bfs(paw))
        assert dm == distance_matrix(paw)
        assert dm.packed == distance_matrix(paw).packed


class TestAgainstReferences:
    def test_all_trees_up_to_9(self, tree_classes_by_n):
        for n in range(2, 10):
            for g in tree_classes_by_n[n]:
                assert_kernels_match(g)

    def test_all_unicyclic_up_to_8(self, unicyclic_classes_by_n):
        for n in range(3, 9):
            for g in unicyclic_classes_by_n[n]:
                assert_kernels_match(g)

    def test_random_pseudotrees_n64(self):
        for g in random_pseudotrees(64, 40):
            assert_kernels_match(g)

    def test_one_vertex(self):
        assert_kernels_match(from_edge_list(1, []))

    def test_k4_and_paw(self, paw):
        # the bridge rule holds in any connected graph, not only pseudotrees;
        # K4 is all core, the paw a triangle with one bridge
        assert_kernels_match(from_edge_list(4, K4))
        assert_kernels_match(paw)

    def test_profile_twin_pairs(self, c4, paw, spider122):
        assert profile(c4).twin_pairs == ((0, 2), (1, 3))
        assert profile(paw).twin_pairs == ((1, 2),)
        assert profile(spider122).twin_pairs == ()

    @pytest.mark.parametrize("make", [path_graph, cycle_graph])
    def test_distances_in_the_top_bit_of_a_byte(self, monkeypatch, make):
        monkeypatch.setenv("PSEUDOLOC_MAX_N", "300")
        g = make(255)
        assert distance_matrix(g).width == 8
        assert_kernels_match(g)

    @pytest.mark.parametrize("make", [path_graph, cycle_graph])
    def test_fields_wider_than_a_byte(self, monkeypatch, make):
        monkeypatch.setenv("PSEUDOLOC_MAX_N", "300")
        g = make(300)
        assert distance_matrix(g).width == 16
        assert_kernels_match(g)
