"""The closed answers and the profiles at the 64-vertex cap, pinned by digest.

Every closed form's JSON for all nine parameters (dimk at every k from 2 to
the k-dimensional value) over a seeded sample of 64-vertex pseudotrees.  The
sample holds twin-free graphs, where the k-dimensional value exceeds 2, and
proper unicyclic graphs of odd girth, where sdim reads the strong resolving
graph.  The profiles' JSON over that sample and the small class corpora is
pinned the same way.  A change that alters these answers on purpose updates
the digest and says why.  The closed answers of the paths and cycles up to
the cap, some with shuffled labels, are pinned the same way, and every
closed witness of these graphs and the small class corpora is checked to
certify its value.
"""

from __future__ import annotations

import hashlib
import json
import random

from pseudoloc import (
    PARAMETER_NAMES,
    FamilyKind,
    compute_parameter,
    encode_graph6,
    enumerate_trees,
    enumerate_unicyclic,
    is_locating_set,
    k_dimensional_value,
    profile,
    profile_json,
    random_pseudotree,
)
from pseudoloc.resolvers import parameter_label

from conftest import paths_and_cycles, random_pseudotrees, twin_pairs_by_definition

# seeds whose 64-vertex tree, and that tree plus its chord, have no twins;
# at 606 both have k-dimensional value 4, at the others 3
TWIN_FREE_SEEDS = (143, 193, 333, 606)

CAP_ANSWERS_DIGEST = "fc8c1f28beb6d8e0eedb80630771d9db2268f79fee4fe356889fbf4b757b4095"
PROFILE_DIGEST = "a03c12f87f5803ac1d479fc4a1040d0652fa347631cf5fe0d329129d45cc9ffc"
CYCLE_ANSWERS_DIGEST = "cadc823702eb5b6e85397cd3188ef68e397e176555c0d5ef77991bb2ea025300"


def cap_sample():
    graphs = random_pseudotrees(64, 40)
    graphs += [
        random_pseudotree(family, 64, random.Random(seed))
        for seed in TWIN_FREE_SEEDS
        for family in ("tree", "unicyclic")
    ]
    return graphs


def closed_results(g):
    """(param, k, closed result) for all nine parameters, dimk at every k
    from 2 to the k-dimensional value."""
    for param in PARAMETER_NAMES:
        ks = range(2, k_dimensional_value(g) + 1) if param == "dimk" else (None,)
        for k in ks:
            yield param, k, compute_parameter(g, param, k=k, method="closed")


def closed_answer_lines(graphs):
    for g in graphs:
        g6 = encode_graph6(g)
        for param, k, result in closed_results(g):
            answer = {"graph6": g6, "param": param, "k": k, "result": result.to_json()}
            yield json.dumps(answer, sort_keys=True)


def test_sample_covers_twin_free_and_odd_girth():
    graphs = cap_sample()
    assert sum(not twin_pairs_by_definition(g) for g in graphs) >= len(TWIN_FREE_SEEDS) * 2
    profiles = [profile(g) for g in graphs]
    assert any(p.kind is FamilyKind.PROPER_UNICYCLIC and p.girth % 2 for p in profiles)


def test_closed_answers_at_the_cap():
    text = "\n".join(closed_answer_lines(cap_sample()))
    assert hashlib.sha256(text.encode()).hexdigest() == CAP_ANSWERS_DIGEST


def test_profiles_at_the_cap_and_of_the_small_classes():
    graphs = cap_sample()
    graphs += [g for n in range(2, 11) for g in enumerate_trees(n, dedup=True)]
    graphs += [g for n in range(3, 9) for g in enumerate_unicyclic(n, dedup=True)]
    text = "\n".join(json.dumps(profile_json(g), sort_keys=True) for g in graphs)
    assert hashlib.sha256(text.encode()).hexdigest() == PROFILE_DIGEST


def test_closed_answers_of_paths_and_cycles():
    text = "\n".join(closed_answer_lines(paths_and_cycles()))
    assert hashlib.sha256(text.encode()).hexdigest() == CYCLE_ANSWERS_DIGEST


def test_every_closed_witness_certifies_its_value():
    graphs = [g for n in range(2, 11) for g in enumerate_trees(n, dedup=True)]
    graphs += [g for n in range(3, 10) for g in enumerate_unicyclic(n, dedup=True)]
    graphs += paths_and_cycles() + cap_sample()
    bad = []
    for g in graphs:
        for param, k, result in closed_results(g):
            w = result.witness
            if w is None:
                continue
            if not (len(set(w)) == len(w) == result.value and is_locating_set(g, w, param, k)):
                bad.append((encode_graph6(g), parameter_label(param, k), w))
    assert not bad, bad[:10]
