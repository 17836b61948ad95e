"""The oracle's per-graph constraints against the definitional builder in
conftest; one oracle search for dim2 and dimk[2]; one distance matrix, one
profile and one k-dimensional value per `auto` request that falls through
to the oracle, per graph across the closed form, the oracle and the set
predicate, and per verified graph; one canonical key and one canonical form
per class of a corpus."""

from __future__ import annotations

from pseudoloc import (
    PARAMETER_NAMES,
    CorpusSpec,
    closed_result,
    compute_parameter,
    cover_problem,
    enumerate_trees,
    enumerate_unicyclic,
    from_edge_list,
    is_locating_set,
    oracle_result,
    verify_graph,
)
from pseudoloc import corpus

from conftest import (
    constraint_masks_by_definition,
    count_calls,
    path_graph,
    random_pseudotrees,
)

# (parameter, k) of the problems whose masks gather the nonzero fields of
# XORed packed rows, those on vertex pairs first (the reference keeps its last
# pair table); sdim and dmd read the fields of row_x + d(x, y) * ONES - row_y,
# and their reference takes about a second per graph at n = 64
PACKED = (("dim", None), ("dimk", 2), ("dimk", 3), ("ddim", None), ("ldim", None),
          ("edim", None), ("mdim", None))
PARAMS = PACKED + (("sdim", None), ("dmd", None))

# C4 with legs: an 8-vertex unicyclic graph where dimk is an interval
C4_WITH_LEGS = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (1, 6), (2, 7)]


def assert_constraints_match(g, params=PARAMS):
    for param, k in params:
        masks, need = cover_problem(g, param, k)
        assert (sorted(masks), need) == constraint_masks_by_definition(g, param, k), (
            param,
            k,
            g.edges,
        )


class TestAgainstDefinition:
    def test_all_trees_up_to_9(self, tree_classes_by_n):
        for n in range(2, 10):
            for g in tree_classes_by_n[n]:
                assert_constraints_match(g)

    def test_all_unicyclic_up_to_8(self, unicyclic_classes_by_n):
        for n in range(3, 9):
            for g in unicyclic_classes_by_n[n]:
                assert_constraints_match(g)

    def test_random_pseudotrees_n64(self):
        graphs = random_pseudotrees(64, 40)
        for g in graphs:
            assert_constraints_match(g, PACKED)
        for g in graphs[:2]:  # one tree, one unicyclic graph
            assert_constraints_match(g, (("sdim", None), ("dmd", None)))

    def test_longest_distances_at_the_cap(self):
        # P64 holds distance 63, where a field of row_x + d * ONES - row_y
        # reaches 2 * 63 = 126: still one byte
        assert_constraints_match(path_graph(64))


class TestSharedOracle:
    def test_dim2_and_dimk2_records_equal_separate_oracle_calls(self):
        graphs = list(enumerate_trees(7, dedup=True)) + list(enumerate_unicyclic(7, dedup=True))
        for g in graphs:
            records = {r.parameter: r for r in verify_graph(g, PARAMETER_NAMES)}
            assert records["dim2"].oracle == oracle_result(g, "dim2")
            assert records["dimk[2]"].oracle == oracle_result(g, "dimk", k=2)
            for param in ("dmd", "dim", "sdim", "ddim", "edim", "mdim", "ldim"):
                assert records[param].oracle == oracle_result(g, param), (param, g.edges)

    def test_one_k2_search_per_graph(self, monkeypatch):
        calls = []
        real = corpus.oracle_result

        def counting(g, param, **kwargs):
            calls.append((param, kwargs.get("k")))
            return real(g, param, **kwargs)

        monkeypatch.setattr(corpus, "oracle_result", counting)
        records = verify_graph(from_edge_list(8, C4_WITH_LEGS), PARAMETER_NAMES)
        assert len(calls) == len(records) - 1
        assert ("dim2", None) in calls and ("dimk", 2) not in calls


# every module that binds each function
DISTANCE_MODULES = ("resolvers", "graph")
PROFILE_MODULES = ("structure", "closed_form")
KERNEL_MODULES = ("resolvers", "corpus")

# C5 with a leg: odd girth, so its sdim closed form reads the SR graph, and
# the SR graph reads the profile, no distances
C5_WITH_A_LEG = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5)]


class TestOneDistanceMatrix:
    def test_auto_dimk_falling_through_to_the_oracle(self, monkeypatch):
        g = from_edge_list(8, C4_WITH_LEGS)
        matrices = count_calls(monkeypatch, "distance_matrix", DISTANCE_MODULES)
        profiles = count_calls(monkeypatch, "profile", PROFILE_MODULES)
        kernel = count_calls(monkeypatch, "k_dimensional_value", KERNEL_MODULES)
        result = compute_parameter(g, "dimk", k=2)
        assert result.method == "brute_force"  # the closed form gave an interval
        assert matrices == profiles == [g]
        assert kernel == []  # every pair is resolved by its own two ends
        # k = 3 reads the k-dimensional value off the masks that k = 2 kept
        assert compute_parameter(g, "dimk", k=3).method == "brute_force"
        assert matrices == profiles == kernel == [g]

    def test_sdim_closed_oracle_and_predicate_share_one(self, monkeypatch):
        # nothing is passed between the three calls: the closed form builds no
        # matrix, the oracle builds one and keeps it on g for the predicate
        g = from_edge_list(6, C5_WITH_A_LEG)
        matrices = count_calls(monkeypatch, "distance_matrix", DISTANCE_MODULES)
        closed = closed_result(g, "sdim")
        assert closed.theorem_tag == "SDIM_PARTALPHA" and matrices == []
        witness = oracle_result(g, "sdim").witness
        assert matrices == [g]
        assert is_locating_set(g, witness, "sdim") and len(witness) == closed.value
        assert matrices == [g]

    def test_brute_then_closed(self, monkeypatch):
        # the closed form reads the matrix the oracle built; brute builds no profile
        matrices = count_calls(monkeypatch, "distance_matrix", DISTANCE_MODULES)
        profiles = count_calls(monkeypatch, "profile", PROFILE_MODULES)
        for param, k in (("sdim", None), ("dimk", 2), ("dimk", 3)):
            g = from_edge_list(6, C5_WITH_A_LEG)  # a new graph keeps nothing yet
            matrices.clear()
            profiles.clear()
            brute = compute_parameter(g, param, k=k, method="brute")
            assert matrices == [g] and profiles == []
            assert closed_result(g, param, k=k).contains(brute.value)
            assert matrices == profiles == [g], (param, k)


class TestOnePerVerifiedGraph:
    def test_one_distance_matrix_and_one_profile(self, monkeypatch, tree_classes_by_n, unicyclic_classes_by_n):
        matrices = count_calls(monkeypatch, "distance_matrix", DISTANCE_MODULES)
        profiles = count_calls(monkeypatch, "profile", PROFILE_MODULES)
        for g in tree_classes_by_n[7] + unicyclic_classes_by_n[7]:
            matrices.clear()
            profiles.clear()
            verify_graph(g, PARAMETER_NAMES)
            assert matrices == profiles == [g], g.edges


class TestTreeClassLevels:
    def count(self, monkeypatch, name):
        calls = []
        real = getattr(corpus, name)

        def counting(g):
            calls.append(g.n)
            return real(g)

        monkeypatch.setattr(corpus, name, counting)
        return calls

    def test_corpus_grows_each_level_once(self, monkeypatch):
        keys = self.count(monkeypatch, "tree_canonical_key")
        forms = self.count(monkeypatch, "tree_canonical_form")
        graphs = list(corpus.corpus_graphs(CorpusSpec(family="tree", max_n=10)))
        # one key and one form per class: no candidate graph is built
        classes = (1, 1, 2, 3, 6, 11, 23, 47, 106)  # on 2..10 vertices
        assert len(keys) == len(forms) == len(graphs) == sum(classes) == 200
        assert [g.edges for g in graphs] == [
            g.edges for n in range(2, 11) for g in enumerate_trees(n, dedup=True)
        ]

    def test_unicyclic_corpus_matches_per_order_enumeration(self, monkeypatch):
        graphs = list(corpus.corpus_graphs(CorpusSpec(family="unicyclic", max_n=8)))
        assert [g.edges for g in graphs] == [
            g.edges for n in range(3, 9) for g in enumerate_unicyclic(n, dedup=True)
        ]
        tree_keys = self.count(monkeypatch, "tree_canonical_key")
        keys = self.count(monkeypatch, "unicyclic_canonical_key")
        forms = self.count(monkeypatch, "unicyclic_canonical_form")
        list(corpus.corpus_graphs(CorpusSpec(family="unicyclic", max_n=8)))
        classes = (1, 2, 5, 13, 33, 89)  # on 3..8 vertices
        assert tree_keys == [] and len(keys) == len(forms) == sum(classes) == 143
