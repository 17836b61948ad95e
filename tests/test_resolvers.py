"""Resolution predicates, set predicates, and the brute-force oracles."""

from __future__ import annotations

import dataclasses
import itertools
import pickle
import random

import pytest

from pseudoloc import (
    KOutOfRange,
    ParameterResult,
    SizeCapExceeded,
    boundary_and_sr_graph,
    brute_force_dimension,
    cover_problem,
    distance_matrix,
    encode_graph6,
    from_edge_list,
    independence_number,
    is_locating_set,
    k_dimensional_value,
    lex_first_cover,
)
from pseudoloc.corpus import random_pseudotree
from pseudoloc.resolvers import LATTICE_MAX_N

from conftest import (
    cycle_graph,
    dimension_by_enumeration,
    distance_rows_by_bfs,
    doubly_resolves,
    edge_distance,
    pairs_of_rows,
    path_graph,
    random_pseudotrees,
    resolves,
    strong_resolves,
    twin_pairs_by_definition,
    unpacked,
)

# (parameter, k) of each cover problem, dim2 as dimk at k = 2
NO_K_PARAMS = tuple((p, None) for p in ("dim", "dmd", "sdim", "edim", "mdim", "ldim", "ddim"))
ALL_PARAMS = NO_K_PARAMS + (("dimk", 2),)
CAP_PARAMS = ALL_PARAMS + (("dimk", 3),)


def cap_cases(n: int) -> list:
    """(graph, param, k) over 12 random pseudotrees of order n, every pair
    of CAP_PARAMS whose k, if any, the graph's k-dimensional value admits."""
    cases = []
    for g in random_pseudotrees(n, 12):
        kmax = k_dimensional_value(g)
        cases += [(g, p, k) for p, k in CAP_PARAMS if k is None or k <= kmax]
    assert {(p, k) for _, p, k in cases} == set(CAP_PARAMS)
    return cases


class TestPredicates:
    def test_resolves(self, p4, c4, paw):
        assert resolves(unpacked(distance_matrix(p4)), 0, 1, 2)
        assert not resolves(unpacked(distance_matrix(c4)), 0, 1, 3)
        assert not resolves(unpacked(distance_matrix(paw)), 3, 1, 2)

    def test_doubly_resolves(self, c5, c6):
        assert doubly_resolves(unpacked(distance_matrix(c5)), 0, 2, 1, 3)
        dm6 = unpacked(distance_matrix(c6))
        # (2,3) sit at lockstep distances from the pair (0,1); (3,4) do not
        assert not doubly_resolves(dm6, 0, 1, 2, 3)
        assert doubly_resolves(dm6, 0, 1, 3, 4)

    def test_doubly_resolves_own_pair(self, c6):
        dm = unpacked(distance_matrix(c6))
        for u, v in itertools.combinations(range(6), 2):
            assert doubly_resolves(dm, u, v, u, v)

    def test_strong_resolves(self, paw, c4, p4):
        assert strong_resolves(unpacked(distance_matrix(paw)), 3, 0, 1)
        assert not strong_resolves(unpacked(distance_matrix(c4)), 0, 1, 3)
        assert strong_resolves(unpacked(distance_matrix(p4)), 1, 1, 3)  # w == x

    def test_edge_distance(self, p4, paw):
        assert edge_distance(unpacked(distance_matrix(p4)), 0, (2, 3)) == 2
        assert edge_distance(unpacked(distance_matrix(paw)), 3, (1, 2)) == 2
        assert edge_distance(unpacked(distance_matrix(paw)), 0, (0, 1)) == 0


class TestParameterResult:
    """An exact value or a nonempty interval, never both or neither."""

    @pytest.mark.parametrize(
        "fields",
        [{}, {"value": 3, "bounds": (3, 3)}, {"bounds": (4, 3)}],
        ids=["neither", "both", "lo above hi"],
    )
    def test_rejects(self, fields):
        with pytest.raises(ValueError):
            ParameterResult(**fields)

    def test_to_json_value_or_interval(self):
        exact = ParameterResult(value=3, witness=(0, 2, 5), theorem_tag="T")
        assert exact.to_json() == {"value": 3, "witness": [0, 2, 5], "method": "closed_form", "theorem_tag": "T"}
        interval = ParameterResult(bounds=(2, 4), theorem_tag="B")
        assert interval.to_json() == {"value": [2, 4], "method": "closed_form", "theorem_tag": "B"}
        assert (interval.lo, interval.hi, interval.is_exact) == (2, 4, False)
        assert ParameterResult(bounds=(3, 3)).to_json()["value"] == [3, 3]

    def test_frozen_replace_eq_hash_repr_pickle(self):
        exact = ParameterResult(value=3, witness=(0, 2, 5), theorem_tag="T")
        interval = ParameterResult(bounds=(2, 4), method="bounded_by_theorem", theorem_tag="B")
        with pytest.raises(dataclasses.FrozenInstanceError):
            exact.value = 4
        # replace builds a new result, so it validates as a build does
        with pytest.raises(ValueError, match=r"^empty interval \(4, 3\)$"):
            dataclasses.replace(interval, bounds=(4, 3))
        with pytest.raises(ValueError, match="^exactly one of value/bounds must be set$"):
            dataclasses.replace(exact, bounds=(3, 3))
        assert dataclasses.replace(interval, bounds=(3, 3)) == ParameterResult(
            bounds=(3, 3), method="bounded_by_theorem", theorem_tag="B"
        )
        twin = ParameterResult(3, None, (0, 2, 5), "closed_form", "T")  # positional, in field order
        assert twin == exact and hash(twin) == hash(exact)
        assert twin != interval and twin != dataclasses.replace(exact, theorem_tag="U")
        assert repr(exact) == (
            "ParameterResult(value=3, bounds=None, witness=(0, 2, 5), method='closed_form', theorem_tag='T')"
        )
        assert repr(interval) == (
            "ParameterResult(value=None, bounds=(2, 4), witness=None, method='bounded_by_theorem', theorem_tag='B')"
        )
        assert interval.to_json() == {"value": [2, 4], "method": "bounded_by_theorem", "theorem_tag": "B"}
        assert [f.name for f in dataclasses.fields(ParameterResult)] == [
            "value", "bounds", "witness", "method", "theorem_tag"
        ]
        for result in (exact, interval):  # verify --jobs sends results between processes
            again = pickle.loads(pickle.dumps(result))
            assert again == result and hash(again) == hash(result) and repr(again) == repr(result)


class TestIsLocatingSet:
    def test_examples(self, c5, paw, k13):
        assert is_locating_set(c5, [0, 2], "dmd")
        assert is_locating_set(paw, [3, 1], "sdim")
        assert is_locating_set(k13, [1, 2], "dim")
        assert not is_locating_set(k13, [1], "dim")

    def test_rejects_empty_and_out_of_range_sets(self, k13):
        with pytest.raises(ValueError, match="nonempty"):
            is_locating_set(k13, [], "dim")
        for s in ([0, 4], [-1]):
            with pytest.raises(ValueError, match="out-of-range"):
                is_locating_set(k13, s, "dim")

    def test_doubly_needs_two(self, c5):
        assert not is_locating_set(c5, [0], "dmd")

    def test_non_antipodal_cycle_pair_fails_doubly(self, c5):
        assert not is_locating_set(c5, [0, 1], "dmd")

    def test_empty_rejected(self, c5):
        with pytest.raises(ValueError):
            is_locating_set(c5, [], "dim")

    def test_mld_requires_domination(self, c6):
        assert not is_locating_set(c6, [0, 1, 2], "ddim") or True
        # {0,1,3}: dominating and locating
        assert is_locating_set(c6, [0, 1, 3], "ddim")
        # {0,3}: dominating but not locating
        assert not is_locating_set(c6, [0, 3], "ddim")


class TestBruteForce:
    def test_examples(self, paw, c6, p4):
        assert brute_force_dimension(paw, "dim").value == 2
        assert brute_force_dimension(c6, "dmd").value == 3
        assert brute_force_dimension(p4, "sdim").value == 1

    def test_witness_is_first_in_order(self, paw):
        res = brute_force_dimension(paw, "dim")
        assert res.witness == (0, 1)
        # every earlier pair fails
        for combo in itertools.combinations(range(4), 2):
            if combo == res.witness:
                break
            assert not is_locating_set(paw, combo, "dim")

    def test_witness_reproducible(self, c5p13):
        a = brute_force_dimension(c5p13, "dmd")
        b = brute_force_dimension(
            from_edge_list(c5p13.n, list(c5p13.edges)), "dmd"
        )
        assert a == b

    def test_single_vertex(self):
        k1 = from_edge_list(1, [])
        for param, _ in NO_K_PARAMS:
            assert brute_force_dimension(k1, param).witness == (0,)
        with pytest.raises(KOutOfRange):
            brute_force_dimension(k1, "dimk", 2)
        assert k_dimensional_value(k1) == 0  # no vertex pair

    def test_cap(self, monkeypatch):
        # one oracle cap of 16 for every parameter, the k-metric ones included
        for g, param, k in cap_cases(16):
            res = brute_force_dimension(g, param, k)
            assert res.value == len(res.witness)
            assert is_locating_set(g, res.witness, param, k)
        for g, param, k in cap_cases(17):
            with pytest.raises(SizeCapExceeded):
                brute_force_dimension(g, param, k)
        with pytest.raises(SizeCapExceeded):
            brute_force_dimension(path_graph(17), "dim")
        monkeypatch.setenv("PSEUDOLOC_MAX_N", "17")
        assert brute_force_dimension(path_graph(17), "dim").value == 1

    def test_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("PSEUDOLOC_MAX_N", "17")
        assert brute_force_dimension(path_graph(17), "dim").value == 1
        # the raised cap runs the same search the cap would otherwise refuse
        for g, param, k in cap_cases(17):
            res = brute_force_dimension(g, param, k)
            assert res.witness == lex_first_cover(g.n, *cover_problem(g, param, k))

    def test_kmetric_2_equals_fault_tolerant_definition(self, tree_classes_by_n, unicyclic_classes_by_n):
        # the two definitions are the same predicate; spot-check set agreement
        for g in tree_classes_by_n[6] + unicyclic_classes_by_n[6]:
            dm = unpacked(distance_matrix(g))
            for size in range(1, g.n + 1):
                for combo in itertools.combinations(range(g.n), size):
                    expected = all(
                        sum(1 for s in combo if dm[x][s] != dm[y][s]) >= 2
                        for x, y in itertools.combinations(range(g.n), 2)
                    )
                    assert is_locating_set(g, combo, "dimk", 2) == expected


class TestExactSearch:
    """lex_first_cover against direct enumeration in itertools.combinations
    order, on both sides of LATTICE_MAX_N: the lattice up to it, the DFS above."""

    def test_random_masks(self):
        # need 1..6; about half the masks get a vertex on each side of the
        # lattice's n // 2 split where n >= 2, the rest are drawn as they
        # come and may lie in one half; a fifth of the draws add one mask
        # with fewer than `need` vertices, which no set meets often enough
        rng = random.Random(7)
        short = one_sided = 0
        for n in range(1, LATTICE_MAX_N + 3):
            half = n // 2
            for _ in range(25):
                need = rng.randint(1, 6)
                masks = [rng.getrandbits(n) for _ in range(rng.randint(0, 8))]
                if half:
                    masks = [
                        m | 1 << rng.randrange(half) | 1 << rng.randrange(half, n) if rng.random() < 0.5 else m
                        for m in masks
                    ]
                    one_sided += sum(
                        1 for m in masks if m.bit_count() >= need and not (m & (1 << half) - 1 and m >> half)
                    )
                if rng.random() < 0.2:
                    masks.append(sum(1 << v for v in rng.sample(range(n), min(n, need - 1))))
                    short += 1
                if any(m.bit_count() < need for m in masks):
                    expected = None  # no set meets a mask more often than it has vertices
                else:
                    expected = next(
                        (
                            combo
                            for size in range(1, n + 1)
                            for combo in itertools.combinations(range(n), size)
                            if all(sum(1 for v in combo if m >> v & 1) >= need for m in masks)
                        ),
                        None,
                    )
                assert lex_first_cover(n, masks, need) == expected, (n, masks, need)
        assert short >= 50 and one_sided >= 15

    def test_edge_cases(self):
        for n in (1, 2, LATTICE_MAX_N, LATTICE_MAX_N + 1):
            full = (1 << n) - 1
            assert lex_first_cover(n, []) == (0,)
            assert lex_first_cover(n, [full, 0]) is None  # nothing meets the zero mask
            assert lex_first_cover(n, [full], need=n) == tuple(range(n))
            assert lex_first_cover(n, [full], need=n + 1) is None
            assert lex_first_cover(n, [], need=5000) == (0,)  # nothing to meet
            assert lex_first_cover(n, [full], need=5000) is None
            assert lex_first_cover(n, [full, 1], need=0) == (0,)
            last = 1 << (n - 1)
            assert lex_first_cover(n, [last, full, last]) == (n - 1,)

    def test_oracle_equals_enumeration_at_lattice_max_n(self, monkeypatch):
        # the largest order the lattice serves; k-metric at k = 2 and 3 counts
        # meetings; the cap is pinned to this order
        monkeypatch.setenv("PSEUDOLOC_MAX_N", str(LATTICE_MAX_N))
        for g in random_pseudotrees(LATTICE_MAX_N, 2):
            params = list(NO_K_PARAMS)
            params += [("dimk", k) for k in range(2, min(k_dimensional_value(g), 3) + 1)]
            for param, k in params:
                res = brute_force_dimension(g, param, k)
                expected = dimension_by_enumeration(g, param, k)
                assert (res.value, res.witness) == expected, (encode_graph6(g), param, k)

    def test_oracle_equals_enumeration_to_n8(self, tree_classes_by_n, unicyclic_classes_by_n):
        # every parameter and every k of the k-range: same value and same witness
        graphs = [g for n in range(2, 9) for g in tree_classes_by_n[n]]
        graphs += [g for n in range(3, 9) for g in unicyclic_classes_by_n[n]]
        checked = 0
        for g in graphs:
            params = list(NO_K_PARAMS)
            params += [("dimk", k) for k in range(2, k_dimensional_value(g) + 1)]
            for param, k in params:
                res = brute_force_dimension(g, param, k)
                expected = dimension_by_enumeration(g, param, k)
                assert (res.value, res.witness) == expected, (encode_graph6(g), param, k)
                checked += 1
        assert checked == 1629


class TestKDimensionalValue:
    def test_examples(self, c6, k13):
        assert k_dimensional_value(path_graph(5)) == 4
        assert k_dimensional_value(c6) == 4
        assert k_dimensional_value(k13) == 2

    def test_path_and_cycle_families(self):
        for n in range(3, 10):
            assert k_dimensional_value(path_graph(n)) == n - 1
            expected = n - 1 if n % 2 else n - 2
            assert k_dimensional_value(cycle_graph(n)) == expected

    def test_twin_characterization_on_trees(self, tree_classes_by_n):
        for n in range(3, 9):
            for t in tree_classes_by_n[n]:
                has_twins = bool(twin_pairs_by_definition(t))
                assert (k_dimensional_value(t) == 2) == has_twins


def _sample_sets(g, rng_seed=7):
    import random

    rng = random.Random(rng_seed)
    sets = []
    for _ in range(12):
        size = rng.randint(2, g.n)
        sets.append(tuple(sorted(rng.sample(range(g.n), size))))
    return sets


class TestStructuralProperties:
    def test_monotonicity(self):
        for seed in range(15):
            g = random_pseudotree("unicyclic", 8, random.Random(seed))
            for param, k in ALL_PARAMS:
                res = brute_force_dimension(g, param, k)
                grown = set(res.witness)
                for extra in range(g.n):
                    grown.add(extra)
                    assert is_locating_set(g, grown, param, k)

    def test_implication_chain(self):
        for seed in range(15):
            g = random_pseudotree("unicyclic", 8, random.Random(seed + 100))
            for s in _sample_sets(g, seed):
                if is_locating_set(g, s, "dmd"):
                    assert is_locating_set(g, s, "dim")
                if is_locating_set(g, s, "sdim"):
                    assert is_locating_set(g, s, "dim")
                if is_locating_set(g, s, "mdim"):
                    assert is_locating_set(g, s, "dim")
                    assert is_locating_set(g, s, "edim")
                if len(s) >= 3 and is_locating_set(g, s, "dimk", 3):
                    assert is_locating_set(g, s, "dimk", 2)

    def test_mmd_hitting(self):
        for seed in range(15):
            g = random_pseudotree("unicyclic", 8, random.Random(seed + 200))
            sr = boundary_and_sr_graph(g)
            witness = set(brute_force_dimension(g, "sdim").witness)
            for u, v in pairs_of_rows(sr.rows):
                assert witness & {u, v}
            for s in _sample_sets(g, seed):
                if is_locating_set(g, s, "sdim"):
                    for u, v in pairs_of_rows(sr.rows):
                        assert set(s) & {u, v}

    def test_vertex_cover_identity_to_n9(self, tree_classes_by_n, unicyclic_classes_by_n):
        graphs = [t for n in (7, 9) for t in tree_classes_by_n[n]]
        graphs += [u for n in (7, 9) for u in unicyclic_classes_by_n[n]]
        for g in graphs:
            sr = boundary_and_sr_graph(g)
            alpha = independence_number(sr.rows, sr.boundary_mask)
            assert brute_force_dimension(g, "sdim").value == sr.order - alpha


def toggled_distance_rows(g, u, v):
    """Distance rows of g with edge uv toggled, by BFS, or None if
    disconnected: an added edge can close a second cycle."""
    from pseudoloc import Disconnected

    edges = set(g.edges)
    e = (u, v) if u < v else (v, u)
    if e in edges:
        edges.discard(e)
    else:
        edges.add(e)
    try:
        toggled = from_edge_list(g.n, sorted(edges))
    except Disconnected:
        return None
    return distance_rows_by_bfs(toggled)


class TestMatrixDetermination:
    """Sound halves of the matrix-determination equivalence.

    Deleting an edge whose endpoints a set fails to strong-resolve leaves the
    set's distance rows unchanged; conversely a strong locating set notices
    every single-edge change.  The full toggle equality is false for edge
    additions (see the test below); the acceptance suite's toggle test asserts
    its two true halves: a removed edge whose endpoints S does not
    strong-resolve changes no row of S, and an added edge whose endpoints S
    strong-resolves changes some row of S.
    """

    def _masks(self, g):
        dm = unpacked(distance_matrix(g))
        strong_masks = {}
        for x, y in itertools.combinations(range(g.n), 2):
            mask = 0
            for w in range(g.n):
                if strong_resolves(dm, w, x, y):
                    mask |= 1 << w
            strong_masks[(x, y)] = mask
        return dm, strong_masks

    def test_edge_removal_invisible_to_non_resolvers(self, tree_classes_by_n, unicyclic_classes_by_n):
        graphs = [u for n in range(3, 8) for u in unicyclic_classes_by_n[n]]
        for g in graphs:
            dm, strong_masks = self._masks(g)
            for x, y in g.edges:
                rows = toggled_distance_rows(g, x, y)
                if rows is None:
                    continue
                changed = [w for w in range(g.n) if rows[w] != dm[w]]
                for w in changed:
                    assert strong_masks[(x, y)] >> w & 1

    def test_locating_set_of_both_versions_sees_the_toggle(self, tree_classes_by_n, unicyclic_classes_by_n):
        graphs = [t for n in range(2, 6) for t in tree_classes_by_n[n]]
        graphs += [u for n in range(3, 6) for u in unicyclic_classes_by_n[n]]
        for g in graphs:
            dm = unpacked(distance_matrix(g))
            for x, y in itertools.combinations(range(g.n), 2):
                dmh = toggled_distance_rows(g, x, y)
                if dmh is None:
                    continue
                for size in range(1, g.n + 1):
                    for combo in itertools.combinations(range(g.n), size):
                        if not is_locating_set(g, combo, "sdim"):
                            continue
                        # the toggled graph may have two cycles: strong location by definition
                        if not all(
                            any(strong_resolves(dmh, w, p, q) for w in combo)
                            for p, q in itertools.combinations(range(g.n), 2)
                        ):
                            continue
                        assert any(dmh[w] != dm[w] for w in combo)

    def test_addition_toggle_can_change_unresolved_rows(self):
        # the path 2-1-0-3-4 with S={1}: pair (2,4) is unresolved, yet
        # adding the edge 2-4 shortcuts 1-2-4 and changes row 1
        g = from_edge_list(5, [(0, 1), (0, 3), (1, 2), (3, 4)])
        dm = unpacked(distance_matrix(g))
        assert not strong_resolves(dm, 1, 2, 4)
        rows = toggled_distance_rows(g, 2, 4)
        assert rows[1] != dm[1]
