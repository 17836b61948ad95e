"""Generators, canonical forms, and the verification pipeline."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import pickle
import random

import pytest

from pseudoloc import (
    FamilyKind,
    SizeCapExceeded,
    classify,
    enumerate_trees,
    enumerate_unicyclic,
    from_edge_list,
    verify_corpus,
    verify_graph,
)
from pseudoloc.corpus import (
    CorpusSpec,
    STATUS_IN_BOUNDS,
    STATUS_VIOLATION,
    corpus_graphs,
    prufer_decode,
    random_pseudotree,
    tree_canonical_form,
    tree_canonical_key,
    unicyclic_canonical_form,
    unicyclic_canonical_key,
)

from conftest import (
    cycle_graph,
    path_graph,
    random_pseudotrees,
    reference_tree_classes,
    reference_tree_form,
    reference_tree_key,
    reference_unicyclic_classes,
    reference_unicyclic_form,
    reference_unicyclic_key,
)

# OEIS A000055 (trees) and A001429 (connected unicyclic graphs) up to the
# enumeration caps
A000055 = dict(zip(range(2, 13), (1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551)))
A001429 = dict(zip(range(3, 11), (1, 2, 5, 13, 33, 89, 240, 657)))


def relabel(g, perm):
    return from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges])


class TestTreeEnumeration:
    def test_labeled_counts_cayley(self):
        for n in range(2, 9):
            assert sum(1 for _ in enumerate_trees(n)) == n ** max(n - 2, 0)

    def test_labeled_trees_pairwise_distinct(self):
        # the Prüfer correspondence is a bijection
        for n in range(2, 8):
            seen = {g.edges for g in enumerate_trees(n)}
            assert len(seen) == n ** max(n - 2, 0)

    def test_small_examples(self):
        assert sum(1 for _ in enumerate_trees(3)) == 3
        assert sum(1 for _ in enumerate_trees(4)) == 16
        assert sum(1 for _ in enumerate_trees(5, dedup=True)) == 3

    def test_class_counts(self):
        assert {n: len(list(enumerate_trees(n, dedup=True))) for n in A000055} == A000055

    def test_all_are_trees(self):
        for g in enumerate_trees(6):
            assert g.m == g.n - 1

    def test_cap(self):
        with pytest.raises(SizeCapExceeded):
            list(enumerate_trees(13))
        with pytest.raises(SizeCapExceeded):
            list(enumerate_trees(1))

    def test_prufer_lex_order_deterministic(self):
        first = list(enumerate_trees(5))
        second = list(enumerate_trees(5))
        assert [g.edges for g in first] == [g.edges for g in second]

    def test_prufer_decode_known(self):
        # sequence (0,0) gives the star at 0
        assert prufer_decode((0, 0), 4).edges == ((0, 1), (0, 2), (0, 3))


class TestUnicyclicEnumeration:
    def test_n3_only_triangle(self):
        graphs = list(enumerate_unicyclic(3))
        assert len(graphs) == 1 and graphs[0].m == 3

    def test_labeled_counts(self):
        # sum over girth g of C(n,g) * (g-1)!/2 * g * n^(n-g-1), last term (n-1)!/2
        assert sum(1 for _ in enumerate_unicyclic(4)) == 15
        assert sum(1 for _ in enumerate_unicyclic(5)) == 222

    def test_class_counts(self):
        assert {n: len(list(enumerate_unicyclic(n, dedup=True))) for n in A001429} == A001429

    def test_every_graph_unicyclic_and_classified(self, unicyclic_classes_by_n):
        for g in unicyclic_classes_by_n[8]:
            assert g.m == g.n
            assert classify(g) in (FamilyKind.CYCLE, FamilyKind.PROPER_UNICYCLIC)

    def test_cap(self):
        with pytest.raises(SizeCapExceeded):
            list(enumerate_unicyclic(11))


class TestLabelledCaps:
    """The labelled corpora stop at 8 (trees) and 7 (unicyclic) vertices,
    below the class caps, and PSEUDOLOC_MAX_N does not raise them."""

    @pytest.mark.parametrize("value", [None, "20"])
    def test_checked_on_the_call(self, monkeypatch, value):
        if value:
            monkeypatch.setenv("PSEUDOLOC_MAX_N", value)
        for family, enumerate_, cap in (("tree", enumerate_trees, 8), ("unicyclic", enumerate_unicyclic, 7)):
            assert next(enumerate_(cap)).n == cap
            assert next(enumerate_(cap + 1, dedup=True)).n == cap + 1
            with pytest.raises(SizeCapExceeded, match=f"labelled {family} enumeration supports"):
                next(enumerate_(cap + 1))
            with pytest.raises(SizeCapExceeded, match=f"<= n <= {cap}, got {cap + 1}"):
                corpus_graphs(CorpusSpec(family=family, max_n=cap + 1, dedup=False))

    def test_the_variable_can_lower_them(self, monkeypatch):
        monkeypatch.setenv("PSEUDOLOC_MAX_N", "5")
        with pytest.raises(SizeCapExceeded, match="2 <= n <= 5, got 6"):
            next(enumerate_trees(6))


class TestCanonicalForms:
    def test_tree_key_is_isomorphism_invariant(self, tree_classes_by_n):
        rng = random.Random(5)
        for g in tree_classes_by_n[8]:
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert tree_canonical_key(relabel(g, perm)) == tree_canonical_key(g)

    def test_unicyclic_key_is_isomorphism_invariant(self, unicyclic_classes_by_n):
        rng = random.Random(6)
        for g in unicyclic_classes_by_n[8]:
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert unicyclic_canonical_key(relabel(g, perm)) == unicyclic_canonical_key(g)

    def test_keys_equal_the_reference_keys(self):
        """Random relabellings at n = 64, paths, cycles, and stars and
        double stars, where the centre rule picks one centre or two."""
        rng = random.Random(16)
        graphs = []
        for g in random_pseudotrees(64, 100):
            for _ in range(3):
                perm = list(range(g.n))
                rng.shuffle(perm)
                graphs.append(relabel(g, perm))
        graphs += [path_graph(n) for n in range(1, 13)] + [cycle_graph(n) for n in range(3, 13)]
        graphs += [from_edge_list(s + 1, [(0, v) for v in range(1, s + 1)]) for s in range(1, 9)]
        for a, b in itertools.product(range(1, 5), repeat=2):
            edges = [(0, 1)] + [(0, 2 + i) for i in range(a)] + [(1, 2 + a + i) for i in range(b)]
            graphs.append(from_edge_list(2 + a + b, edges))
        for g in graphs:
            if g.m < g.n:
                assert tree_canonical_key(g) == reference_tree_key(g), g.edges
            else:
                assert unicyclic_canonical_key(g) == reference_unicyclic_key(g), g.edges

    def test_keys_reject_the_other_family(self):
        with pytest.raises(ValueError, match=r"^m=3 != n=4: not a unicyclic graph$"):
            unicyclic_canonical_key(path_graph(4))
        with pytest.raises(ValueError, match=r"^m=4 != n-1=3: not a tree$"):
            tree_canonical_key(cycle_graph(4))

    def test_keys_separate_classes(self, tree_classes_by_n, unicyclic_classes_by_n):
        keys = {tree_canonical_key(g) for g in tree_classes_by_n[9]}
        assert len(keys) == len(tree_classes_by_n[9])
        ukeys = {unicyclic_canonical_key(g) for g in unicyclic_classes_by_n[9]}
        assert len(ukeys) == len(unicyclic_classes_by_n[9])


@pytest.fixture(scope="module")
def reference_classes() -> tuple[dict, dict]:
    trees = reference_tree_classes(12)
    unicyclic = {n: reference_unicyclic_classes(n, trees[n]) for n in range(3, 11)}
    return trees, unicyclic


class TestClassGeneration:
    """The generated classes against the candidate-and-dedup reference."""

    def test_trees_equal_the_reference(self, reference_classes):
        trees, _ = reference_classes
        for n in range(2, 13):
            got = [g.edges for g in enumerate_trees(n, dedup=True)]
            assert got == [g.edges for g in trees[n]], n

    def test_unicyclic_equal_the_reference(self, reference_classes):
        _, unicyclic = reference_classes
        for n in range(3, 11):
            got = [g.edges for g in enumerate_unicyclic(n, dedup=True)]
            assert got == [g.edges for g in unicyclic[n]], n

    def test_forms_equal_the_reference_form(self):
        rng = random.Random(12)
        for family, max_n, form, reference in (
            ("tree", 11, tree_canonical_form, reference_tree_form),
            ("unicyclic", 9, unicyclic_canonical_form, reference_unicyclic_form),
        ):
            for g in corpus_graphs(CorpusSpec(family=family, max_n=max_n)):
                for _ in range(3):
                    perm = list(range(g.n))
                    rng.shuffle(perm)
                    h = relabel(g, perm)
                    assert form(h).edges == reference(h).edges == g.edges, (family, h.edges)


class TestRandomGeneration:
    def test_deterministic(self):
        draw = lambda: random_pseudotree("tree", 8, random.Random(1))  # noqa: E731
        assert draw().edges == draw().edges

    def test_unicyclic_has_n_edges(self):
        g = random_pseudotree("unicyclic", 8, random.Random(1))
        assert g.m == g.n

    def test_two_vertex_tree(self):
        assert random_pseudotree("tree", 2, random.Random(9)).edges == ((0, 1),)

    def test_family_names_are_lowercase(self):
        # as the CLI spells them; nothing folds case
        with pytest.raises(ValueError, match="unknown family 'Tree'"):
            random_pseudotree("Tree", 5, random.Random(1))
        with pytest.raises(ValueError, match="unknown family 'Tree'"):
            CorpusSpec(family="Tree", max_n=5)

    def test_requires_seed(self):
        # the one way to seed a draw is the rng the caller passes
        with pytest.raises(TypeError):
            random_pseudotree("tree", 5)


class TestVerifyCorpus:
    def test_trees_dim_no_violations(self):
        records, violations = verify_corpus(
            CorpusSpec(family="tree", max_n=7), parameters=("dim",)
        )
        assert violations == 0
        assert all(r.status != STATUS_VIOLATION for r in records)

    def test_unicyclic_exact_theorems(self):
        _, violations = verify_corpus(
            CorpusSpec(family="unicyclic", max_n=7),
            parameters=("dmd", "mdim", "ldim", "sdim"),
        )
        assert violations == 0

    def test_unicyclic_interval_theorems_in_bounds(self):
        records, violations = verify_corpus(
            CorpusSpec(family="unicyclic", max_n=7), parameters=("dim", "edim")
        )
        assert violations == 0
        assert any(r.status == STATUS_IN_BOUNDS for r in records)

    def test_report_stream_and_footer(self, tmp_path):
        path = tmp_path / "report.jsonl"
        records, violations = verify_corpus(
            CorpusSpec(family="tree", max_n=5), parameters=("dmd",), report_path=path
        )
        lines = path.read_text().splitlines()
        assert len(lines) == len(records) + 1
        for line in lines[:-1]:
            payload = json.loads(line)
            assert payload["status"] in ("Agree", "InBounds")
            assert payload["graph6"]
        footer = json.loads(lines[-1])
        assert footer["summary"]["violations"] == violations == 0

    def test_record_frozen_replace_eq_hash_repr_pickle(self):
        g = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])
        (record,) = verify_graph(g, ("dim",))
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.status = STATUS_VIOLATION
        (again,) = verify_graph(g, ("dim",))
        assert again == record and hash(again) == hash(record)
        assert dataclasses.replace(record, status=STATUS_VIOLATION) != record
        assert dataclasses.replace(record, status="Agree") == record
        assert repr(record) == (
            "VerificationRecord(graph6='Dl_', parameter='dim', closed=ParameterResult(value=2, bounds=None, "
            "witness=None, method='closed_form', theorem_tag='DIM_EVEN_G4'), oracle=ParameterResult(value=2, "
            "bounds=None, witness=(1, 2), method='brute_force', theorem_tag='BRUTE_FORCE'), status='Agree')"
        )
        assert json.dumps(record.to_json()) == (
            '{"graph6": "Dl_", "parameter": "dim", "closed": {"value": 2, "method": "closed_form", '
            '"theorem_tag": "DIM_EVEN_G4"}, "oracle": {"value": 2, "witness": [1, 2], "method": "brute_force", '
            '"theorem_tag": "BRUTE_FORCE"}, "status": "Agree", "theorem_tag": "DIM_EVEN_G4"}'
        )
        # verify --jobs sends records between processes
        copied = pickle.loads(pickle.dumps(record))
        assert copied == record and hash(copied) == hash(record) and repr(copied) == repr(record)

    def test_jobs_byte_identical(self, tmp_path):
        p1, p4 = tmp_path / "r1.jsonl", tmp_path / "r4.jsonl"
        spec = CorpusSpec(family="unicyclic", max_n=6)
        verify_corpus(spec, parameters=("dmd", "dim", "sdim"), jobs=1, report_path=p1)
        verify_corpus(spec, parameters=("dmd", "dim", "sdim"), jobs=4, report_path=p4)
        assert hashlib.sha256(p1.read_bytes()).digest() == hashlib.sha256(p4.read_bytes()).digest()
