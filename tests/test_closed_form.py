"""Closed-form dispatchers against the oracles, witnesses, and tags."""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pseudoloc import (
    PARAMETER_NAMES,
    FamilyKind,
    KOutOfRange,
    SizeCapExceeded,
    brute_force_dimension,
    boundary_and_sr_graph,
    closed_result,
    compute_parameter,
    cover_problem,
    distance_matrix,
    encode_graph6,
    from_edge_list,
    hanging_trees,
    is_locating_set,
    k_dimensional_value,
    kept,
    oracle_result,
    parse_graph6,
    profile,
    profile_json,
    random_pseudotree,
    sdim_even_fast,
    sdim_sr_formula,
)
from pseudoloc.corpus import prufer_decode
from pseudoloc.resolvers import METHOD_BOUNDED, METHOD_BRUTE_FORCE

from conftest import cycle_graph, dimension_by_enumeration, path_graph, thread_gap_c14_graph, tree_zeta, unpacked

UNICYCLIC_14 = "M?C_??bt?A_GO?_??"


def c8_pendants_0_to_6():
    edges = [(i, (i + 1) % 8) for i in range(8)]
    nxt = 8
    for i in range(7):
        edges.append((i, nxt))
        nxt += 1
    return from_edge_list(nxt, edges)


class TestDmd:
    def test_spider(self, spider122):
        res = closed_result(spider122, "dmd")
        assert res.value == 3 and res.theorem_tag == "DMD_TREE"
        assert oracle_result(spider122, "dmd").value == 3

    def test_c5p13_antipodal_roots(self, c5p13):
        res = closed_result(c5p13, "dmd")
        assert res.value == 2 and res.theorem_tag == "DMD_UNIC_ODD_ANTIPODAL"
        assert oracle_result(c5p13, "dmd").value == 2

    def test_c4pp_two_roots_no_triple(self, c4pp):
        res = closed_result(c4pp, "dmd")
        assert res.value == 3 and res.theorem_tag == "DMD_UNIC_EVEN_AUGMENT"
        assert oracle_result(c4pp, "dmd").value == 3

    def test_c4p_single_root(self, c4p):
        res = closed_result(c4p, "dmd")
        assert res.value == 3 and res.theorem_tag == "DMD_UNIC_EVEN_SINGLE_ROOT"
        assert oracle_result(c4p, "dmd").value == 3

    def test_cycles(self, c5, c6):
        assert closed_result(c5, "dmd").value == 2
        assert closed_result(c6, "dmd").value == 3

    def test_witnesses_satisfy_predicate(self, paw, c4p, c4pp, c5p13, spider122, c5, c6):
        for g in (paw, c4p, c4pp, c5p13, spider122, c5, c6):
            res = closed_result(g, "dmd")
            assert len(res.witness) == res.value
            assert is_locating_set(g, res.witness, "dmd")


class TestDim:
    def test_paw_odd_rho0(self, paw):
        res = closed_result(paw, "dim")
        assert res.value == 2 and res.theorem_tag == "DIM_ODD_RHO0"
        assert oracle_result(paw, "dim").value == 2

    def test_c8_with_pendants_few_trivial(self):
        g = c8_pendants_0_to_6()
        res = closed_result(g, "dim")
        assert res.value == 3 and res.theorem_tag == "DIM_EVEN_FEW_TRIVIAL"
        assert oracle_result(g, "dim").value == 3

    def test_thread_gap_interval_with_oracle_pin(self, monkeypatch, thread_gap_c14):
        res = closed_result(thread_gap_c14, "dim")
        assert not res.is_exact and res.bounds == (2, 3)
        assert res.method == METHOD_BOUNDED
        monkeypatch.setenv("PSEUDOLOC_MAX_N", str(thread_gap_c14.n))
        assert oracle_result(thread_gap_c14, "dim").value == 2

    def test_tree_witness(self, spider122):
        res = closed_result(spider122, "dim")
        assert res.value == 2
        assert is_locating_set(spider122, res.witness, "dim")


class TestSdim:
    def test_c4p(self, c4p):
        res = closed_result(c4p, "sdim")
        assert res.value == 2 and res.theorem_tag == "SDIM_EVEN_EXACT"
        assert oracle_result(c4p, "sdim").value == 2

    def test_c5p13_sr_route(self, c5p13):
        res = closed_result(c5p13, "sdim")
        assert res.value == 3 and res.theorem_tag == "SDIM_PARTALPHA"
        assert oracle_result(c5p13, "sdim").value == 3

    def test_spider(self, spider122):
        res = closed_result(spider122, "sdim")
        assert res.value == 2 and res.theorem_tag == "SDIM_TREE"
        assert is_locating_set(spider122, res.witness, "sdim")

    def test_cycle_witness(self, c5, c6):
        for g in (c5, c6):
            res = closed_result(g, "sdim")
            assert is_locating_set(g, res.witness, "sdim")
            assert len(res.witness) == res.value

    def test_even_girth_routes_agree_to_n64(self):
        # compute answers even girth by the formula alone; the SR route
        # (Oellermann & Peters-Fransen) checks it where no oracle runs
        checked = 0
        for seed in range(602):
            g = random_pseudotree("unicyclic", 16 + seed % 49, random.Random(seed))
            prof = kept(g, profile)
            if prof.kind is FamilyKind.PROPER_UNICYCLIC and prof.girth % 2 == 0:
                assert sdim_sr_formula(kept(g, boundary_and_sr_graph)).value == sdim_even_fast(prof).value, seed
                checked += 1
        assert checked == 300


class TestDdim:
    def test_path(self):
        assert closed_result(path_graph(6), "ddim").value == 2

    def test_c5p13(self, c5p13):
        res = closed_result(c5p13, "ddim")
        assert res.value == 2 and res.theorem_tag == "DDIM_G_NOT_346"
        assert oracle_result(c5p13, "ddim").value == 2

    def test_paw_interval(self, paw):
        res = closed_result(paw, "ddim")
        assert res.bounds == (1, 2)
        assert oracle_result(paw, "ddim").value == 2

    def test_cycle_c6_interval(self, c6):
        res = closed_result(c6, "ddim")
        assert res.bounds == (2, 3)
        assert oracle_result(c6, "ddim").value == 3


class TestDim2:
    def test_examples(self, spider122):
        assert closed_result(spider122, "dim2").value == 3
        assert closed_result(cycle_graph(7), "dim2").value == 3
        assert closed_result(path_graph(9), "dim2").value == 2

    def test_c4_exception(self, c4):
        # antipodal pairs of the 4-cycle are resolved only by themselves
        assert closed_result(c4, "dim2").value == 4
        assert oracle_result(c4, "dim2").value == 4

    def test_strong_leaf_witness(self, spider122, k13):
        for g in (spider122, k13):
            res = closed_result(g, "dim2")
            assert is_locating_set(g, res.witness, "dimk", 2)

    def test_unicyclic_interval(self, c5p13):
        res = closed_result(c5p13, "dim2")
        assert not res.is_exact
        assert res.contains(oracle_result(c5p13, "dim2").value)


class TestDimk:
    def test_path(self):
        assert closed_result(path_graph(5), "dimk", k=3).value == 4

    def test_even_cycle_window(self, c6):
        assert closed_result(c6, "dimk", k=3).value == 5
        assert oracle_result(c6, "dimk", k=3).value == 5

    def test_spider(self, spider122):
        res = closed_result(spider122, "dimk", k=3)
        assert res.value == 5 and res.theorem_tag == "DIMK_TREE"
        assert oracle_result(spider122, "dimk", k=3).value == 5

    def test_zeta(self, spider122):
        assert tree_zeta(profile(spider122), unpacked(distance_matrix(spider122))) == 3
        assert k_dimensional_value(spider122) == 3

    def test_k_out_of_range(self, c5):
        with pytest.raises(KOutOfRange):
            closed_result(path_graph(5), "dimk", k=99)
        with pytest.raises(KOutOfRange):
            closed_result(c5, "dimk", k=1)
        with pytest.raises(KOutOfRange):
            closed_result(c5, "dimk")

    @pytest.mark.parametrize("method", ["closed", "brute", "auto"])
    def test_k_rule_under_every_method(self, method):
        # dimk needs an integer k >= 2, and no other parameter takes a k
        p3 = path_graph(3)
        for param, k in (("dim", 7), ("dim2", 2), ("sdim", 0), ("dimk", None), ("dimk", 1), ("dimk", 2.0)):
            with pytest.raises(KOutOfRange):
                compute_parameter(p3, param, k=k, method=method)
        assert compute_parameter(p3, "dimk", k=2, method=method).value == 2

    def test_oracle_k_out_of_range(self, c5, spider122):
        for g, k in ((c5, 1), (path_graph(5), 99), (spider122, 4)):
            with pytest.raises(KOutOfRange):
                oracle_result(g, "dimk", k=k)
        # k is checked before the oracle cap, as the closed form checks it
        with pytest.raises(KOutOfRange):
            oracle_result(path_graph(20), "dimk", k=99)


class TestEdim:
    def test_spider(self, spider122):
        res = closed_result(spider122, "edim")
        assert res.value == 2 and res.theorem_tag == "EDIM_TREE"
        assert is_locating_set(spider122, res.witness, "edim")

    def test_paw_pinned_by_dim(self, paw):
        # dim(PAW)=2 exactly and the girth is odd, so edim is in [2,3]
        res = closed_result(paw, "edim")
        assert res.contains(oracle_result(paw, "edim").value)
        assert oracle_result(paw, "edim").value == 2

    def test_cycle(self, c6):
        res = closed_result(c6, "edim")
        assert res.value == 2
        assert is_locating_set(c6, res.witness, "edim")


class TestMdim:
    def test_examples(self, paw, c5p13, spider122):
        assert closed_result(paw, "mdim").value == 3
        assert oracle_result(paw, "mdim").value == 3
        assert closed_result(c5p13, "mdim").value == 3
        assert oracle_result(c5p13, "mdim").value == 3
        assert closed_result(spider122, "mdim").value == 3

    def test_leaf_witness(self, spider122, k13):
        for g in (spider122, k13):
            res = closed_result(g, "mdim")
            assert is_locating_set(g, res.witness, "mdim")


class TestLdim:
    def test_examples(self, spider122, paw):
        assert closed_result(spider122, "ldim").value == 1
        c6p = from_edge_list(7, [(i, (i + 1) % 6) for i in range(6)] + [(0, 6)])
        assert closed_result(c6p, "ldim").value == 1
        res = closed_result(paw, "ldim")
        assert res.value == 2 and oracle_result(paw, "ldim").value == 2

    def test_witnesses(self, paw, c5p13, spider122):
        for g in (paw, c5p13, spider122):
            res = closed_result(g, "ldim")
            assert is_locating_set(g, res.witness, "ldim")


class TestComputeParameter:
    def test_auto_upgrades_interval(self, paw):
        res = compute_parameter(paw, "ddim", method="auto")
        assert res.is_exact and res.value == 2
        assert res.method == METHOD_BRUTE_FORCE

    def test_closed_keeps_interval(self, paw):
        res = compute_parameter(paw, "ddim", method="closed")
        assert not res.is_exact

    def test_auto_respects_cap(self, monkeypatch, thread_gap_c14):
        res = compute_parameter(thread_gap_c14, "dim", method="auto")
        assert not res.is_exact  # n=26 exceeds the default oracle cap
        monkeypatch.setenv("PSEUDOLOC_MAX_N", "26")
        res = compute_parameter(thread_gap_c14, "dim", method="auto")
        assert res.value == 2

    def test_auto_exact_dim2_at_14(self):
        # `gen --kind unicyclic --n 14 --seed 3`: the k-metric oracle has the
        # cap of 16 every parameter has, so auto settles the closed-form interval
        g = parse_graph6(UNICYCLIC_14)
        assert closed_result(g, "dim2").theorem_tag == "DIM2_UNIC_BOUNDS"
        res = compute_parameter(g, "dim2", method="auto")
        assert res.is_exact and res.method == METHOD_BRUTE_FORCE
        assert (res.value, res.witness) == (5, (0, 1, 2, 3, 11))
        assert dimension_by_enumeration(g, "dimk", 2) == (5, (0, 1, 2, 3, 11))

    def test_singleton(self):
        g = from_edge_list(1, [])
        for param in ("dmd", "dim", "sdim", "ddim", "edim", "mdim", "ldim"):
            assert compute_parameter(g, param).value == 1
        # dim2 is the k-metric dimension at k = 2, undefined without a vertex pair
        for method in ("auto", "closed", "brute"):
            with pytest.raises(KOutOfRange):
                compute_parameter(g, "dim2", method=method)
            with pytest.raises(KOutOfRange):
                compute_parameter(g, "dimk", k=2, method=method)


class TestParameterNames:
    """One vocabulary, one unknown-name rule and one k rule on every entry
    point: the closed forms, the oracle and the set predicate."""

    def entry_points(self, g):
        calls = [
            lambda p, k: closed_result(g, p, k=k),
            lambda p, k: oracle_result(g, p, k=k),
            lambda p, k: brute_force_dimension(g, p, k),
            lambda p, k: is_locating_set(g, [0], p, k),
            lambda p, k: cover_problem(g, p, k),
        ]
        return calls + [
            lambda p, k, m=method: compute_parameter(g, p, k=k, method=m)
            for method in ("closed", "auto", "brute")
        ]

    def test_unknown_name_is_a_value_error(self):
        for call in self.entry_points(path_graph(4)):
            for param, k in (("foo", None), ("foo", 2), ("kmetric", 2), ("doubly", None)):
                with pytest.raises(ValueError, match="unknown parameter"):
                    call(param, k)

    def test_unknown_method_is_a_value_error(self):
        with pytest.raises(ValueError, match="unknown method 'fast'"):
            compute_parameter(path_graph(4), "dim", method="fast")

    def test_k_rule(self):
        for call in self.entry_points(path_graph(4)):
            for param, k in (("dim", 7), ("dim2", 2), ("dimk", None), ("dimk", 1), ("dimk", 2.0)):
                with pytest.raises(KOutOfRange):
                    call(param, k)

    def test_oracle_cap_names_the_parameter(self):
        p17 = path_graph(17)
        for param, k, label in (("sdim", None, "sdim"), ("dimk", 3, "dimk[3]"), ("dim2", None, "dim2")):
            for call in (brute_force_dimension, oracle_result):
                with pytest.raises(SizeCapExceeded, match=re.escape(f"oracle cap 16 for {label}") + "$"):
                    call(p17, param, k=k)

    def test_dim2_is_the_dimk_problem_at_2(self, tree_classes_by_n, unicyclic_classes_by_n):
        for g in tree_classes_by_n[7] + unicyclic_classes_by_n[7]:
            assert cover_problem(g, "dim2") == cover_problem(g, "dimk", 2)


class TestCorpusAgreement:
    def test_exact_forms_match_oracle_n7(self, tree_classes_by_n, unicyclic_classes_by_n):
        graphs = [t for n in range(2, 8) for t in tree_classes_by_n[n]]
        graphs += [u for n in range(3, 8) for u in unicyclic_classes_by_n[n]]
        for g in graphs:
            for param in ("dmd", "dim", "sdim", "ddim", "dim2", "edim", "mdim", "ldim"):
                closed = closed_result(g, param)
                oracle = oracle_result(g, param)
                if closed.is_exact:
                    assert closed.value == oracle.value, (g.edges, param)
                else:
                    assert closed.contains(oracle.value), (g.edges, param)
            for k in range(2, k_dimensional_value(g) + 1):
                closed = closed_result(g, "dimk", k=k)
                oracle = oracle_result(g, "dimk", k=k)
                if closed.is_exact:
                    assert closed.value == oracle.value
                else:
                    assert closed.contains(oracle.value)


@st.composite
def relabelled_pseudotrees(draw):
    """A pseudotree on up to 64 vertices, a Prüfer sequence plus an optional
    chord, and a permutation of its labels; half of them on 62-64 vertices,
    where graph6 writes the order in its one-character and "~" forms."""
    n = draw(st.integers(1, 61) | st.integers(62, 64))
    edges = []
    if n > 1:
        seq = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
        edges = list(prufer_decode(tuple(seq), n).edges)
    non_edges = sorted({(u, v) for v in range(n) for u in range(v)} - set(edges))
    if non_edges and draw(st.booleans()):
        edges.append(draw(st.sampled_from(non_edges)))
    return n, edges, draw(st.permutations(range(n)))


def closed_answers(g) -> list:
    """Value or interval and tag of all nine closed forms, dimk at k = 2 and
    3, or the KOutOfRange message."""
    answers = []
    for param, k in [(p, None) for p in PARAMETER_NAMES if p != "dimk"] + [("dimk", 2), ("dimk", 3)]:
        try:
            result = closed_result(g, param, k=k)
        except KOutOfRange as exc:
            answers.append(str(exc))
        else:
            answers.append((result.value, result.bounds, result.theorem_tag))
    return answers


# twin-free, so kappa >= 3 (here 4), which random draws seldom reach
TWIN_FREE_64 = random_pseudotree("unicyclic", 64, random.Random(606))


class TestRelabellingThroughGraph6:
    # two twin-free graphs, so that dimk[3] is answered, not only refused
    @example((64, list(TWIN_FREE_64.edges), random.Random(0).sample(range(64), 64)))
    @example((63, [(i, (i + 1) % 63) for i in range(63)], random.Random(1).sample(range(63), 63)))
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(relabelled_pseudotrees())
    def test_same_answers_after_a_permutation(self, drawn):
        n, edges, perm = drawn
        g = parse_graph6(encode_graph6(from_edge_list(n, edges)))
        h = parse_graph6(encode_graph6(from_edge_list(n, [(perm[u], perm[v]) for u, v in edges])))
        answers = closed_answers(g)
        assert answers == closed_answers(h)
        # dimk[3] exists iff kappa >= 3; dim2 and dimk[2] iff n >= 2
        assert isinstance(answers[-1], str) == (k_dimensional_value(g) < 3)
        assert [i for i, a in enumerate(answers) if isinstance(a, str)] == (
            [4, 8, 9] if n == 1 else [9] if isinstance(answers[-1], str) else []
        )


def at_most(a, b) -> bool:
    """Whether a <= b can hold for some values in the two results: on
    intervals it fails iff lo(a) > hi(b)."""
    return a.lo <= b.hi


def below(a, b) -> bool:
    """Whether a < b can hold: it fails iff lo(a) >= hi(b)."""
    return a.lo < b.hi


class TestInequalityChain:
    """Facts of every graph, by definition, on the closed answers at n up
    to 64: ldim <= dim; dim <= dmd, sdim, ddim and mdim; edim <= mdim;
    dim < dim2, and dim2 < dimk[3] when kappa >= 3; and dim2 is dimk[2]."""

    # C5: odd girth with dim 2, where ldim = dim; a twin-free graph at the
    # cap, so that dimk[3] is answered
    @example((5, [(i, (i + 1) % 5) for i in range(5)], list(range(5))))
    @example((64, list(TWIN_FREE_64.edges), list(range(64))))
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(relabelled_pseudotrees())
    def test_chain(self, drawn):
        n, edges, perm = drawn
        g = from_edge_list(n, [(perm[u], perm[v]) for u, v in edges])
        r = {p: closed_result(g, p) for p in PARAMETER_NAMES if p not in ("dim2", "dimk")}
        dim = r["dim"]
        assert at_most(r["ldim"], dim)
        for param in ("dmd", "sdim", "ddim", "mdim"):
            assert at_most(dim, r[param]), param
        assert at_most(r["edim"], r["mdim"])
        if n == 1:
            return  # a single vertex has no pair: no dim2 or dimk
        dim2, dimk2 = closed_result(g, "dim2"), closed_result(g, "dimk", k=2)
        assert (dim2.value, dim2.bounds) == (dimk2.value, dimk2.bounds)
        assert below(dim, dim2)
        if k_dimensional_value(g) >= 3:
            assert below(dim2, closed_result(g, "dimk", k=3))


class TestCorpusLemmas:
    def test_edim_edge_deletion_bound(self, unicyclic_classes_by_n):
        # removing any cycle edge lowers the edge dimension by at most one
        for n in range(3, 9):
            for g in unicyclic_classes_by_n[n]:
                edim_g = oracle_result(g, "edim").value
                cycle = hanging_trees(g)[0]
                for i, u in enumerate(cycle):
                    v = cycle[(i + 1) % len(cycle)]
                    e = (u, v) if u < v else (v, u)
                    tree = from_edge_list(g.n, [x for x in g.edges if x != e])
                    assert edim_g <= oracle_result(tree, "edim").value + 1

    def test_ddim_equals_gamma_forbids_strong_supports(
        self, tree_classes_by_n, unicyclic_classes_by_n
    ):
        from pseudoloc import domination_number

        for g in tree_classes_by_n[7] + unicyclic_classes_by_n[7]:
            if oracle_result(g, "ddim").value == domination_number(g):
                assert profile_json(g)["strong_supports"] == []


class TestDoublyCycleResolvesThreads:
    def test_cycle_doubly_sets_resolve_threads(self, unicyclic_classes_by_n):
        # a doubly locating set of the cycle's vertices resolves the cycle
        # together with every thread vertex
        import itertools

        from pseudoloc import FamilyKind, classify

        for g in unicyclic_classes_by_n[7]:
            if classify(g) is not FamilyKind.PROPER_UNICYCLIC:
                continue
            prof = profile(g)
            dm = unpacked(distance_matrix(g))
            cycle = prof.cycle
            targets = list(cycle) + [v for path in profile_json(g)["threads"].values() for v in path]
            for size in (2, 3):
                for combo in itertools.combinations(sorted(cycle), size):
                    doubly_on_cycle = all(
                        any(
                            dm[x][u] - dm[x][v] != dm[y][u] - dm[y][v]
                            for u in combo
                            for v in combo
                            if u != v
                        )
                        for x, y in itertools.combinations(cycle, 2)
                    )
                    if not doubly_on_cycle:
                        continue
                    for x, y in itertools.combinations(targets, 2):
                        assert any(dm[x][s] != dm[y][s] for s in combo)
