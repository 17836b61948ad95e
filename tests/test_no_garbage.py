"""The package leaves no reference cycles: a recursive search recurses
through a module function, never through a closure that refers to itself,
so the cyclic garbage collector finds nothing to free after a request and
never runs inside a later one."""

from __future__ import annotations

import gc
import random

from pseudoloc import (
    PARAMETER_NAMES,
    CorpusSpec,
    closed_result,
    cover_problem,
    lex_first_cover,
    profile,
    random_pseudotree,
    verify_corpus,
)
from pseudoloc.resolvers import LATTICE_MAX_N


def unicyclic_by_girth_parity(n: int, count: int) -> list:
    """The first `count` unicyclic graphs of odd girth and of even girth among
    the seeded random ones on n vertices."""
    graphs = [random_pseudotree("unicyclic", n, random.Random(seed)) for seed in range(60)]
    odd = [g for g in graphs if profile(g).girth % 2]
    even = [g for g in graphs if not profile(g).girth % 2]
    assert len(odd) >= count and len(even) >= count
    return odd[:count] + even[:count]


def test_no_cyclic_garbage():
    graphs = unicyclic_by_girth_parity(64, 3)
    graphs.append(random_pseudotree("tree", 64, random.Random(1)))
    small = [random_pseudotree("unicyclic", 16, random.Random(seed)) for seed in range(2)]
    assert 16 > LATTICE_MAX_N  # so lex_first_cover runs its depth-first search
    gc.collect()
    gc.disable()
    try:
        for g in graphs:
            for param in PARAMETER_NAMES:
                assert closed_result(g, param, k=2 if param == "dimk" else None).theorem_tag
        for g in small:
            for param in ("dim", "sdim", "dimk"):
                assert lex_first_cover(g.n, *cover_problem(g, param, 2 if param == "dimk" else None))
        for family in ("tree", "unicyclic"):
            assert verify_corpus(CorpusSpec(family=family, max_n=6))[1] == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
