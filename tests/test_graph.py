"""Graph construction, text formats, distances, girth, the per-graph memo,
bipartiteness."""

from __future__ import annotations

import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudoloc import (
    PARAMETER_NAMES,
    Disconnected,
    DuplicateEdge,
    Graph,
    MalformedGraph6,
    NotPseudotree,
    SelfLoop,
    SizeCapExceeded,
    VertexOutOfRange,
    boundary_and_sr_graph,
    brute_force_dimension,
    closed_result,
    compute_parameter,
    cover_problem,
    distance_matrix,
    domination_number,
    encode_graph6,
    from_edge_list,
    hanging_trees,
    is_locating_set,
    k_dimensional_value,
    kept,
    parse_edgelist,
    parse_graph6,
    profile,
    profile_json,
    tree_canonical_key,
    unicyclic_canonical_key,
    verify_graph,
)
from pseudoloc.corpus import random_pseudotree

from conftest import cycle_graph, is_bipartite, path_graph, random_pseudotrees, twin_free_bicyclic_graphs, unpacked


# graph6 strings in the "~" order form (n >= 63), recorded from an encoder that
# tested every vertex pair: P64, C64, and the unicyclic graph random_pseudotree
# draws at n = 63 from random.Random(1)
P64_G6 = (
    "~?@?hCGGC@?G?_@?@??_?G?@??C??G??G??C??@???G???_??@???@????_???G???@????C????G????G????C????@????"
    "?G?????_????@?????@??????_?????G?????@??????C??????G??????G??????C??????@???????G???????_??????@"
    "???????@????????_???????G???????@????????C????????G????????G????????C????????@?????????G????????"
    "?_????????@?????????@??????????_?????????G?????????@"
)
C64_G6 = (
    "~?@?hCGGC@?G?_@?@??_?G?@??C??G??G??C??@???G???_??@???@????_???G???@????C????G????G????C????@????"
    "?G?????_????@?????@??????_?????G?????@??????C??????G??????G??????C??????@???????G???????_??????@"
    "???????@????????_???????G???????@????????C????????G????????G????????C????????@?????????G????????"
    "?_????????@?????????@??????????_?????????K?????????@"
)
UNICYCLIC63_G6 = (
    "~??~?????_??O?G????????AA??????????@????????A??O?????O????G??????????C?????????O??A??A????A?O?G?"
    "?C???????C??GC???C???????????????????@?????????A??GC????????A?C???????G?????????I??G?_?????_????"
    "?C_?A?G???????A???CA?????@????A?A?_??????????_A???AG???????A????????????A??????_??@?@???????????"
    "@????A?????_???AOO???????????_???K????????"
)


class TestFromEdgeList:
    def test_path(self, p4):
        assert p4.n == 4
        assert p4.edges == ((0, 1), (1, 2), (2, 3))
        assert p4.adjacency[1] == (0, 2)

    def test_paw(self, paw):
        assert paw.m == 4
        assert len(paw.adjacency[0]) == 3
        assert 2 in paw.adjacency[0] and 3 not in paw.adjacency[1]

    def test_adjacency_ascending_from_any_order(self):
        # shuffled, flipped and reversed pair lists build the same graph, with
        # sorted edges and ascending neighbour tuples
        rng = random.Random(5)
        graphs = random_pseudotrees(64, 40) + [parse_graph6("C~")] + twin_free_bicyclic_graphs()
        for g in graphs:
            pairs = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in g.edges]
            rng.shuffle(pairs)
            for order in (pairs, pairs[::-1], [(v, u) for u, v in reversed(g.edges)]):
                built = from_edge_list(g.n, order)
                assert built == g and built.edges == tuple(sorted(built.edges))
                assert all(list(nbrs) == sorted(nbrs) for nbrs in built.adjacency)

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdge):
            from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (2, 0)])

    def test_self_loop(self):
        with pytest.raises(SelfLoop):
            from_edge_list(3, [(0, 0), (0, 1), (1, 2)])

    def test_disconnected(self):
        with pytest.raises(Disconnected):
            from_edge_list(4, [(0, 1), (2, 3)])

    def test_out_of_range(self):
        with pytest.raises(VertexOutOfRange):
            from_edge_list(3, [(0, 3)])
        with pytest.raises(VertexOutOfRange, match="vertex count must be >= 1, got 0"):
            from_edge_list(0, [])

    def test_cap_env_override(self, monkeypatch):
        # the variable overrides the search caps, never the graph cap of 64
        monkeypatch.setenv("PSEUDOLOC_MAX_N", "4")
        assert from_edge_list(5, [(i, i + 1) for i in range(4)]).n == 5
        monkeypatch.setenv("PSEUDOLOC_MAX_N", "100")
        edges = [(i, i + 1) for i in range(64)]
        with pytest.raises(SizeCapExceeded, match="n=65 exceeds graph cap 64"):
            from_edge_list(65, edges)
        # encoded from a Graph built around the validating constructor
        adjacency = tuple(tuple(w for w in (v - 1, v + 1) if 0 <= w < 65) for v in range(65))
        text = encode_graph6(Graph(n=65, adjacency=adjacency, edges=tuple(edges)))
        with pytest.raises(SizeCapExceeded, match="graph6 order 65 exceeds graph cap 64"):
            parse_graph6(text)


class TestDistances:
    def test_path_row(self, p4):
        assert unpacked(distance_matrix(p4))[0] == (0, 1, 2, 3)

    def test_cycle_symmetry(self, c5):
        dm = unpacked(distance_matrix(c5))
        assert dm[0][2] == 2 and dm[0][3] == 2

    def test_paw_hand_bfs(self, paw):
        dm = unpacked(distance_matrix(paw))
        assert dm[3][1] == 2 and dm[3][2] == 2
        assert max(map(max, dm)) == 2

    def test_matrix_invariants_on_random_pseudotrees(self):
        for seed in range(40):
            family = "tree" if seed % 2 else "unicyclic"
            g = random_pseudotree(family, 3 + seed % 8, random.Random(seed))
            dm = unpacked(distance_matrix(g))
            for u in range(g.n):
                assert dm[u][u] == 0
                for v in range(g.n):
                    assert dm[u][v] == dm[v][u] >= 0
                    assert (dm[u][v] == 1) == (v in g.adjacency[u])
                    for w in range(g.n):
                        assert dm[u][w] <= dm[u][v] + dm[v][w]


class TestGraph6:
    def test_k4(self):
        k4 = parse_graph6("C~")
        assert k4.n == 4 and k4.m == 6

    def test_header(self):
        assert parse_graph6(">>graph6<<C~").m == 6

    def test_empty(self):
        with pytest.raises(MalformedGraph6):
            parse_graph6("")

    def test_bad_character(self):
        with pytest.raises(MalformedGraph6):
            parse_graph6("C\x1f")

    def test_wrong_length(self):
        with pytest.raises(MalformedGraph6):
            parse_graph6("C~~")

    def test_nonzero_padding(self):
        # C5 body uses 10 bits; flip the lowest padding bit of the last group
        good = encode_graph6(cycle_graph(5))
        bad = good[:-1] + chr(((ord(good[-1]) - 63) | 1) + 63)
        with pytest.raises(MalformedGraph6):
            parse_graph6(bad)

    def test_disconnected_rejected(self):
        # 4 vertices, single edge 0-1
        with pytest.raises(Disconnected):
            parse_graph6("C_")

    def test_known_encoding_roundtrip(self):
        for s in ("C~", "DQc", "EY?W", "D?{", P64_G6, C64_G6, UNICYCLIC63_G6):
            assert encode_graph6(parse_graph6(s)) == s
        assert encode_graph6(path_graph(64)) == P64_G6
        assert encode_graph6(cycle_graph(64)) == C64_G6
        assert encode_graph6(random_pseudotree("unicyclic", 63, random.Random(1))) == UNICYCLIC63_G6

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10**6), st.integers(2, 12))
    def test_roundtrip_random_connected(self, seed, n):
        family = "tree" if seed % 2 else ("unicyclic" if n >= 3 else "tree")
        g = random_pseudotree(family, n, random.Random(seed))
        again = parse_graph6(encode_graph6(g))
        assert again.edges == g.edges and again.n == g.n

    @pytest.mark.parametrize("n", [1, 2, 62, 63, 64])
    def test_roundtrip_at_encoding_boundaries(self, n, monkeypatch):
        # 62 is the last order written in one character, 63 the first in the "~" form
        if n == 1:
            graphs = [from_edge_list(1, [])]
        else:
            families = ("tree", "unicyclic") if n >= 3 else ("tree",)
            graphs = [
                random_pseudotree(family, n, random.Random(seed))
                for family in families
                for seed in range(5)
            ]
        # graph6 pairs need none of from_edge_list's pair checks: parse never calls it
        calls = []
        monkeypatch.setattr("pseudoloc.graph.from_edge_list", lambda *args: calls.append(args))
        for g in graphs:
            text = encode_graph6(g)
            assert text.startswith("~") == (n >= 63)
            assert parse_graph6(text) == g
        assert calls == []

    @pytest.mark.parametrize("n", [2, 62, 63, 64])
    def test_complete_graph_reads_every_pair(self, n):
        # every body bit set, in both order forms: at 64 each of the 2,016
        # pairs below the graph cap comes from its own body bit
        nbits = n * (n - 1) // 2
        order = chr(n + 63) if n <= 62 else "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
        body = "1" * nbits + "0" * (-nbits % 6)
        g = parse_graph6(order + "".join(chr(int(body[t : t + 6], 2) + 63) for t in range(0, len(body), 6)))
        assert g.n == n and g.edges == tuple(itertools.combinations(range(n), 2))
        assert g.adjacency == tuple(tuple(w for w in range(n) if w != v) for v in range(n))

    def test_large_n_two_byte_order(self):
        g = path_graph(64)
        assert parse_graph6(encode_graph6(g)).edges == g.edges


def connected_by_masks(n: int, pairs) -> bool:
    reach = [1 << v for v in range(n)]
    for i, j in pairs:
        reach[i] |= 1 << j
        reach[j] |= 1 << i
    seen, last = 1, 0
    while seen != last:
        last = seen
        for v in range(n):
            if seen >> v & 1:
                seen |= reach[v]
    return seen == (1 << n) - 1


def built_or_message(build, *args):
    try:
        return build(*args)
    except Disconnected as exc:
        return str(exc)


class TestGraph6Core:
    """parse_graph6 skips from_edge_list's pair checks and shares its core."""

    def test_every_body_on_at_most_six_vertices(self):
        # all 33,867 zero-padded bodies: each string parses to the Graph that
        # from_edge_list builds from its pairs, or both raise the same
        # Disconnected; the edges come sorted and the adjacency ascending
        count = 0
        for n in range(1, 7):
            by_bit = [(i, j) for j in range(1, n) for i in range(j)]  # graph6 bit order
            nbits = len(by_bit)
            pad = -nbits % 6
            for body in range(1 << nbits):
                padded = body << pad
                text = chr(n + 63) + "".join(
                    chr((padded >> s & 63) + 63) for s in range(nbits + pad - 6, -1, -6)
                )
                pairs = [p for b, p in enumerate(by_bit) if body >> nbits - 1 - b & 1]
                got = built_or_message(parse_graph6, text)
                assert got == built_or_message(from_edge_list, n, pairs), text
                assert isinstance(got, Graph) == connected_by_masks(n, pairs), text
                if isinstance(got, Graph):
                    assert got.n == n and got.edges == tuple(sorted(pairs)), text
                    assert got.adjacency == tuple(
                        tuple(sorted([j for i, j in pairs if i == v] + [i for i, j in pairs if j == v]))
                        for v in range(n)
                    ), text
                count += 1
        assert count == 33_867


class TestEdgelistFormat:
    def test_parse_with_comments(self):
        text = "# a paw\n4\n0 1\n1 2 # triangle\n2 0\n0 3\n"
        g = parse_edgelist(text)
        assert g.edges == ((0, 1), (0, 2), (0, 3), (1, 2))

    def test_roundtrip(self, c5p13):
        text = "\n".join([str(c5p13.n)] + [f"{u} {v}" for u, v in c5p13.edges]) + "\n"
        assert parse_edgelist(text).edges == c5p13.edges

    def test_garbage(self):
        with pytest.raises(MalformedGraph6):
            parse_edgelist("4\n0 1 2\n")


class TestGirthAndCycle:
    """The cycle is the core of hanging_trees, and the girth its length."""

    def test_paw(self, paw):
        assert hanging_trees(paw)[0] == (0, 1, 2)

    def test_tree(self, p4):
        # a tree's core is its last stripped vertex, a centre: no cycle
        assert len(hanging_trees(p4)[0]) == 1 and profile(p4).girth == 0

    def test_whole_cycle(self, c6):
        assert hanging_trees(c6)[0] == (0, 1, 2, 3, 4, 5)

    def test_not_pseudotree(self):
        # K4 has m > n: the leaf stripping refuses it, and so does what reads it
        k4 = parse_graph6("C~")
        for read in (hanging_trees, distance_matrix, profile):
            with pytest.raises(NotPseudotree, match=r"^m=6 > n=4: not a pseudotree$"):
                read(k4)

    def test_cycle_is_closed_walk(self, unicyclic_classes_by_n):
        for g in unicyclic_classes_by_n[8]:
            cyc = hanging_trees(g)[0]
            length = len(cyc)
            assert length == profile(g).girth
            for i, v in enumerate(cyc):
                assert cyc[(i + 1) % length] in g.adjacency[v]
            assert cyc[0] == min(cyc)
            assert cyc[1] == min(w for w in g.adjacency[cyc[0]] if w in set(cyc))


def decomposition_readers(g):
    """Everything read off the leaf stripping of g, by name, in call order."""
    key = tree_canonical_key if g.m < g.n else unicyclic_canonical_key
    return {
        "gamma": lambda: domination_number(g),
        "profile": lambda: profile_json(g),
        "distances": lambda: distance_matrix(g),
        "sr_graph": lambda: boundary_and_sr_graph(g),
        "key": lambda: key(g),
    }


class TestPseudotreeGate:
    """One rule refuses m > n, with one message, at every entry point."""

    @pytest.mark.parametrize(
        "g", [parse_graph6("C~")] + twin_free_bicyclic_graphs(), ids=["K4", "bicyclic9", "bicyclic10"]
    )
    def test_every_entry_point_refuses_m_above_n(self, g):
        readers = (
            hanging_trees, distance_matrix, profile, domination_number, boundary_and_sr_graph, k_dimensional_value
        )
        calls = [functools.partial(read, g) for read in readers]
        # every parameter, and dimk at k = 3, above K4's k-dimensional value of 2
        for param, k in [(p, None) for p in PARAMETER_NAMES if p != "dimk"] + [("dimk", 2), ("dimk", 3)]:
            calls += [
                functools.partial(cover_problem, g, param, k),
                functools.partial(is_locating_set, g, (0,), param, k),
                functools.partial(brute_force_dimension, g, param, k),
                functools.partial(closed_result, g, param, k),
            ]
            calls += [functools.partial(compute_parameter, g, param, k, m) for m in ("auto", "closed", "brute")]
        for call in calls:
            with pytest.raises(NotPseudotree, match=rf"^m={g.m} > n={g.n}: not a pseudotree$"):
                call()


class TestHangingTrees:
    GRAPHS = random_pseudotrees(64, 20) + [path_graph(1), path_graph(2), path_graph(5), cycle_graph(7)]

    def test_one_decomposition_of_tuples_per_graph(self):
        for g in self.GRAPHS:
            parts = hanging_trees(g)
            assert hanging_trees(g) is parts
            assert len(parts) == 5 and all(type(p) is tuple for p in parts)
            fresh = parse_graph6(encode_graph6(g))
            assert fresh == g and hash(fresh) == hash(g)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_readers_agree_in_any_order(self, reverse):
        # each reader on a fresh parse, then all of them on one shared graph:
        # a reader that wrote into the shared decomposition would show
        for g in self.GRAPHS:
            line = encode_graph6(g)
            expected = {name: read() for name, read in decomposition_readers(parse_graph6(line)).items()}
            shared = parse_graph6(line)
            readers = list(decomposition_readers(shared).items())
            for name, read in readers[::-1] if reverse else readers:
                assert read() == expected[name], name
            assert hanging_trees(shared) == hanging_trees(parse_graph6(line))


class TestKept:
    def test_entries_leave_eq_and_hash(self):
        # verify_graph keeps the matrix, the profile, the SR graph, the
        # k-dimensional value and the shared masks on the graph
        for g in random_pseudotrees(10, 8) + [path_graph(2), cycle_graph(5)]:
            fields = set(vars(parse_graph6(encode_graph6(g))))
            verify_graph(g, PARAMETER_NAMES)
            assert len(vars(g)) > len(fields) + 5
            assert kept(g, profile) is kept(g, profile)
            fresh = parse_graph6(encode_graph6(g))
            assert g == fresh and fresh == g and hash(g) == hash(fresh)
            assert set(vars(fresh)) == fields


class TestBipartite:
    def test_even_cycle(self, c6):
        assert is_bipartite(c6)

    def test_paw(self, paw):
        assert not is_bipartite(paw)

    def test_trees(self, tree_classes_by_n):
        assert all(is_bipartite(t) for t in tree_classes_by_n[7])
