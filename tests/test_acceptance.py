"""Acceptance suite: one test per criterion, zero tolerance everywhere.

Each test prints a single summary line.  Three statements of the reference
table are false, and the suite asserts their corrected forms (each with its
proof in the README and next to the assertion):

- ``dim2`` of the 4-cycle is 4, not 3: each antipodal pair of C4 is resolved
  only by its own two members, so resolving every pair twice needs all four.
- ``ddim`` of the 6-cycle is 3, not 2: a dominating 2-set of C6 is an
  antipodal pair, which leaves two vertices with equal distance vectors.
- The toggle-edge statement "if S fails to strong-resolve (x,y), toggling xy
  changes no row of S" is false for edge additions, which can create
  shortcuts.  It is asserted in two true halves: removing an edge whose
  endpoints S does not strong-resolve changes no row of S, and adding a
  non-edge whose endpoints S strong-resolves changes some row of S.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import time

import pytest

from pseudoloc import (
    Disconnected,
    FamilyKind,
    boundary_and_sr_graph,
    classify,
    distance_matrix,
    domination_number,
    closed_result,
    encode_graph6,
    from_edge_list,
    independence_number,
    k_dimensional_value,
    kept,
    oracle_result,
    profile,
    sdim_even_fast,
    sdim_sr_formula,
    verify_corpus,
)
from pseudoloc.corpus import CorpusSpec
from pseudoloc.resolvers import brute_force_dimension

from conftest import (
    antipodal_pairs_by_bfs,
    cycle_graph,
    distance_rows_by_bfs,
    geodesic_triples_by_bfs,
    path_graph,
    strong_resolves,
    thread_gap_c14_graph,
    tree_zeta,
    unpacked,
)


def report(criterion: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"[{criterion}] {state}{suffix}")


def oracle_value(g, param, k=None):
    return oracle_result(g, param, k=k).value


class TestCriterion1:
    """Path/cycle reference table, n in 4..12, all nine parameters."""

    def test_criterion_1(self):
        start = time.time()
        failures = []
        checked = 0

        def cell(g, param, expected, k=None):
            nonlocal checked
            checked += 1
            got = oracle_value(g, param, k=k)
            if got != expected:
                name = f"{param}" if k is None else f"{param}[k={k}]"
                failures.append(f"{g.n}-{'cycle' if g.m == g.n else 'path'} {name}: "
                                f"expected {expected}, oracle {got}")

        for n in range(4, 13):
            p, c = path_graph(n), cycle_graph(n)
            cell(p, "dmd", 2)
            cell(c, "dmd", 2 if n % 2 else 3)
            cell(p, "dim", 1)
            cell(c, "dim", 2)
            cell(p, "sdim", 1)
            cell(c, "sdim", (n + 1) // 2)
            cell(p, "ddim", (n + 2) // 3)
            # C6: a dominating 2-set is an antipodal pair such as {0,3}, and it
            # gives 1 and 5 the same vector (1,2); {0,1,3} dominates and resolves
            cell(c, "ddim", (n + 2) // 3 if n != 6 else 3)
            cell(p, "dim2", 2)
            # C4: the pair (0,2) is resolved only by 0 and 2, and (1,3) only by
            # 1 and 3, so resolving every pair twice needs all four vertices
            cell(c, "dim2", 3 if n != 4 else 4)
            cell(p, "edim", 1)
            cell(c, "edim", 2)
            cell(p, "mdim", 2)
            cell(c, "mdim", 3)
            cell(p, "ldim", 1)
            cell(c, "ldim", 2 if n % 2 else 1)
            for k in range(3, n):  # paths are (n-1)-dimensional
                cell(p, "dimk", k + 1, k=k)
            kmax_c = n - 1 if n % 2 else n - 2
            for k in range(3, kmax_c + 1):
                expected = k + 2 if n % 2 == 0 and n // 2 <= k <= n - 2 else k + 1
                cell(c, "dimk", expected, k=k)

        elapsed = time.time() - start
        ok = not failures and elapsed < 60
        report(
            "criterion 1",
            ok,
            f"{checked - len(failures)}/{checked} cells agree in {elapsed:.1f}s"
            + (f"; disagreements: {failures}" if failures else ""),
        )
        assert elapsed < 60
        assert not failures, f"table cells contradicted by exhaustive search: {failures}"


class TestCriterion2:
    """Tree theorems, exhaustive over all classes with n <= 9."""

    def test_criterion_2(self, tree_classes_by_n):
        start = time.time()
        bad = []
        for n in range(2, 10):
            for g in tree_classes_by_n[n]:
                prof, dm = kept(g, profile), unpacked(kept(g, distance_matrix))
                is_path = prof.kind is FamilyKind.PATH
                gamma = domination_number(g)
                expected = {
                    "dmd": prof.num_leaves if not is_path else 2,
                    "dim": 1 if is_path else prof.num_leaves - prof.num_exterior_major,
                    "sdim": prof.num_leaves - 1 if not is_path else 1,
                    "ddim": gamma + prof.num_leaves - prof.num_supports,
                    "dim2": 2 if is_path else prof.num_strong_leaves,
                    "edim": 1 if is_path else prof.num_leaves - prof.num_exterior_major,
                    "mdim": 2 if is_path else prof.num_leaves,
                    "ldim": 1,
                }
                for param, want in expected.items():
                    got = oracle_value(g, param)
                    if got != want:
                        bad.append((encode_graph6(g), param, want, got))
                    closed = closed_result(g, param)
                    if not closed.is_exact or closed.value != got:
                        bad.append((encode_graph6(g), param + "-closed", closed, got))
                # k-metric: zeta value and the I_r sum for every admissible r
                hi = k_dimensional_value(g)
                if not is_path and n >= 3:
                    if tree_zeta(prof, dm) != hi:
                        bad.append((encode_graph6(g), "zeta", tree_zeta(prof, dm), hi))
                for r in range(2, hi + 1):
                    closed = closed_result(g, "dimk", k=r)
                    got = oracle_value(g, "dimk", k=r)
                    if not closed.is_exact or closed.value != got:
                        bad.append((encode_graph6(g), f"dimk[{r}]", closed, got))
        elapsed = time.time() - start
        report("criterion 2", not bad and elapsed < 600, f"94 tree classes in {elapsed:.1f}s")
        assert elapsed < 600
        assert not bad, bad[:10]


class TestCriterion3:
    """Unicyclic exact theorems, exhaustive over all classes with n <= 9."""

    def test_criterion_3(self, unicyclic_classes_by_n):
        start = time.time()
        bad = []
        count = 0
        for n in range(3, 10):
            for g in unicyclic_classes_by_n[n]:
                count += 1
                prof = kept(g, profile)
                for param in ("dmd", "mdim", "ldim"):
                    closed = closed_result(g, param)
                    got = oracle_value(g, param)
                    if not closed.is_exact or closed.value != got:
                        bad.append((encode_graph6(g), param, closed, got))
                sdim_oracle = oracle_value(g, "sdim")
                sr = boundary_and_sr_graph(g)
                if prof.kind is FamilyKind.PROPER_UNICYCLIC:
                    if sdim_sr_formula(sr).value != sdim_oracle:
                        bad.append((encode_graph6(g), "sdim-sr", None, sdim_oracle))
                    if prof.girth % 2 == 0 and sdim_even_fast(prof).value != sdim_oracle:
                        bad.append((encode_graph6(g), "sdim-fast", None, sdim_oracle))
                else:
                    if closed_result(g, "sdim").value != sdim_oracle:
                        bad.append((encode_graph6(g), "sdim-cycle", None, sdim_oracle))
                if prof.girth not in (3, 4, 6):
                    closed = closed_result(g, "ddim")
                    got = oracle_value(g, "ddim")
                    if not closed.is_exact or closed.value != got:
                        bad.append((encode_graph6(g), "ddim", closed, got))
        elapsed = time.time() - start
        report("criterion 3", not bad and elapsed < 1800, f"{count} unicyclic classes in {elapsed:.1f}s")
        assert elapsed < 1800
        assert not bad, bad[:10]


class TestCriterion4:
    """Unicyclic interval theorems and characterized exact cases, n <= 9."""

    def test_criterion_4(self, unicyclic_classes_by_n):
        start = time.time()
        bad = []
        for n in range(3, 10):
            for g in unicyclic_classes_by_n[n]:
                prof = profile(g)
                base = prof.num_leaves - prof.num_exterior_major
                rho_hat = max(2 - prof.rho, 0)
                dim_o = oracle_value(g, "dim")
                edim_o = oracle_value(g, "edim")
                if not base + rho_hat <= dim_o <= base + rho_hat + 1:
                    bad.append((encode_graph6(g), "dim-interval", dim_o))
                if not base + rho_hat <= edim_o <= base + rho_hat + 1:
                    bad.append((encode_graph6(g), "edim-interval", edim_o))
                if abs(dim_o - edim_o) > 1:
                    bad.append((encode_graph6(g), "proximity", (dim_o, edim_o)))
                if prof.girth % 2 and dim_o > edim_o:
                    bad.append((encode_graph6(g), "parity-odd", (dim_o, edim_o)))
                if prof.girth % 2 == 0 and dim_o < edim_o:
                    bad.append((encode_graph6(g), "parity-even", (dim_o, edim_o)))
                if prof.girth in (3, 4, 6):
                    lo = domination_number(g) + prof.num_leaves - prof.num_supports
                    if not lo <= oracle_value(g, "ddim") <= lo + 1:
                        bad.append((encode_graph6(g), "ddim-interval", None))
                if prof.kind is FamilyKind.PROPER_UNICYCLIC:
                    sdim_o = oracle_value(g, "sdim")
                    lo = max((prof.girth + 1) // 2, prof.num_leaves - 1)
                    hi = prof.num_leaves + prof.c2 // 2
                    if not lo <= sdim_o <= hi:
                        bad.append((encode_graph6(g), "sdim-sandwich", sdim_o))
                # characterized cases pin dim to the lower end of the interval
                if prof.girth % 2:
                    applies = prof.rho <= 1 or bool(antipodal_pairs_by_bfs(g, prof.branch_active))
                else:
                    applies = (
                        (prof.rho == 0 and prof.girth >= 8 and prof.c2 >= 2)
                        or (prof.rho == 0 and prof.girth == 4)
                        or (prof.rho == 0 and prof.girth == 6 and prof.c2 != 0)
                        or (prof.rho >= 3 and bool(geodesic_triples_by_bfs(g, prof.branch_active)))
                    )
                if prof.kind is FamilyKind.PROPER_UNICYCLIC and applies and dim_o != base + rho_hat:
                    bad.append((encode_graph6(g), "characterized-case-exactness", dim_o))
        elapsed = time.time() - start
        report("criterion 4", not bad, f"383 unicyclic classes in {elapsed:.1f}s")
        assert not bad, bad[:10]


class TestCriterion5:
    """The 14-cycle with threads everywhere except one antipodal pair."""

    def test_criterion_5(self, monkeypatch):
        start = time.time()
        g = thread_gap_c14_graph()
        monkeypatch.setenv("PSEUDOLOC_MAX_N", str(g.n))
        value = oracle_value(g, "dim")
        elapsed = time.time() - start
        report("criterion 5", value == 2 and elapsed < 10, f"oracle dim={value} in {elapsed:.2f}s")
        assert elapsed < 10
        assert value == 2


class TestCriterion6:
    """Strong-dimension identities and the toggle-edge matrix statement.

    The reference states that toggling an edge xy changes no row of a set S
    that fails to strong-resolve (x,y).  Edge additions disprove it: in the
    path 2-1-0-3-4 the set {1} does not strong-resolve (2,4), yet the new
    edge 2-4 shortcuts 1-2-4.  The toggle test asserts the two true halves:

    - removal: if xy is an edge and S does not strong-resolve (x,y), then
      d(s,x) = d(s,y) for every s in S, so no s-geodesic uses xy and no row
      of S changes;
    - addition: if xy is a non-edge and S strong-resolves (x,y), some s in S
      has x on an s-y geodesic, so d(s,y) >= d(s,x) + 2 while the new edge
      gives d'(s,y) <= d(s,x) + 1, and row s changes.
    """

    def test_criterion_6_sr_identity(self, unicyclic_classes_by_n):
        start = time.time()
        bad = []
        for n in range(3, 9):
            for g in unicyclic_classes_by_n[n]:
                sr = boundary_and_sr_graph(g)
                expected = sr.order - independence_number(sr.rows, sr.boundary_mask)
                got = oracle_value(g, "sdim")
                if got != expected:
                    bad.append((encode_graph6(g), expected, got))
        report("criterion 6 (sdim identity)", not bad, f"n<=8 corpus in {time.time()-start:.1f}s")
        assert not bad, bad[:10]

    def test_criterion_6_toggle_matrix(self, tree_classes_by_n, unicyclic_classes_by_n):
        start = time.time()
        graphs = [t for n in range(2, 8) for t in tree_classes_by_n[n]]
        graphs += [u for n in range(3, 8) for u in unicyclic_classes_by_n[n]]
        violations = 0
        first = None
        removals = additions = shortcuts = 0
        for g in graphs:
            dm = unpacked(distance_matrix(g))
            edge_set = set(g.edges)
            pairs = list(itertools.combinations(range(g.n), 2))
            resolver_masks = {}
            changed_masks = {}
            for x, y in pairs:
                mask = 0
                for w in range(g.n):
                    if strong_resolves(dm, w, x, y):
                        mask |= 1 << w
                resolver_masks[(x, y)] = mask
                try:
                    toggled = from_edge_list(g.n, sorted(edge_set ^ {(x, y)}))
                except Disconnected:
                    changed_masks[(x, y)] = None
                    continue
                # an added edge can close a second cycle: BFS rows, not the package's
                dmt = distance_rows_by_bfs(toggled)
                changed = 0
                for w in range(g.n):
                    if dmt[w] != dm[w]:
                        changed |= 1 << w
                changed_masks[(x, y)] = changed
            for smask in range(1, 1 << g.n):
                for pair in pairs:
                    diff = changed_masks[pair]
                    if diff is None:
                        continue  # toggled graph disconnected
                    resolved = bool(resolver_masks[pair] & smask)
                    seen = bool(diff & smask)
                    if pair in edge_set:
                        if resolved:
                            continue
                        removals += 1
                        bad = seen  # removal changed a row of S
                    else:
                        if not resolved:
                            shortcuts += seen
                            continue
                        additions += 1
                        bad = not seen  # addition left every row of S as it was
                    if bad:
                        violations += 1
                        if first is None:
                            first = (encode_graph6(g), bin(smask), pair)
        elapsed = time.time() - start
        ok = violations == 0 and removals > 0 and additions > 0
        report(
            "criterion 6 (toggle matrix)",
            ok,
            f"{removals} removal and {additions} addition (set, pair) checks in {elapsed:.1f}s; "
            f"{shortcuts} additions change a row of a set that does not strong-resolve the pair"
            + (f"; {violations} violations, first={first}" if violations else ""),
        )
        assert removals > 0 and additions > 0
        assert violations == 0, (
            f"{violations} of {removals + additions} toggle checks broke a half of the "
            f"matrix statement (first counterexample {first})"
        )


class TestCriterion7:
    """Attainment characterizations as biconditionals over n <= 9."""

    def test_criterion_7(self, unicyclic_classes_by_n):
        start = time.time()
        bad = []
        for n in range(3, 10):
            for g in unicyclic_classes_by_n[n]:
                prof = profile(g)
                if prof.kind is not FamilyKind.PROPER_UNICYCLIC:
                    continue
                sdim_o = oracle_value(g, "sdim")
                gg, h, ell = prof.girth, prof.c2, prof.num_leaves
                half = gg // 2
                no_trivial_antipodal = prof.antipodal_pairs(prof.trivial_vertices) == 0
                roots = set(prof.root_vertices)
                positions = {v: i for i, v in enumerate(prof.cycle)}
                has_root_antipodal_triple = any(
                    prof.cycle[(positions[v] + half) % gg] in roots
                    and prof.cycle[(positions[v] + half + 1) % gg] in roots
                    for v in roots
                )
                cond_low = (gg == 3 and h == 0) or (
                    gg >= 4
                    and (
                        h <= 1
                        or (gg % 2 == 0 and 2 <= h <= half - 1 and no_trivial_antipodal)
                        or (
                            gg % 2 == 1
                            and 2 <= h <= half - 1
                            and no_trivial_antipodal
                            and has_root_antipodal_triple
                        )
                    )
                )
                if cond_low != (sdim_o == ell - 1):
                    bad.append((encode_graph6(g), "sdim=l-1", cond_low, sdim_o))
                cond_high = (gg % 2 == 0 and h == gg - 1) or (gg % 2 == 1 and gg - 2 <= h <= gg - 1)
                if cond_high != (sdim_o == ell + h // 2):
                    bad.append((encode_graph6(g), "sdim=l+h/2", cond_high, sdim_o))
                # observed implication for the even g/2 attainment statement
                if gg % 2 == 0 and prof.rho == 0 and prof.antipodal_pairs(prof.root_vertices) <= 1:
                    if sdim_o != gg // 2:
                        bad.append((encode_graph6(g), "sdim=g/2", None, sdim_o))
        elapsed = time.time() - start
        report("criterion 7", not bad, f"biconditionals over n<=9 in {elapsed:.1f}s")
        assert not bad, bad[:10]


class TestCriterion8:
    """Determinism: job-count independence and reproducible witnesses."""

    def test_criterion_8(self, tmp_path):
        start = time.time()
        spec = CorpusSpec(family="unicyclic", max_n=6)
        digests = []
        for jobs in (1, 4):
            path = tmp_path / f"report-{jobs}.jsonl"
            verify_corpus(spec, jobs=jobs, report_path=path)
            digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
        identical = digests[0] == digests[1]

        reproducible = True
        for seed in range(8):
            g = from_edge_list(
                *_random_unicyclic_edges(seed)
            )
            h = from_edge_list(g.n, list(g.edges))
            for param in ("dim", "dmd", "sdim"):
                if brute_force_dimension(g, param) != brute_force_dimension(h, param):
                    reproducible = False
        ok = identical and reproducible
        report(
            "criterion 8",
            ok,
            f"jobs 1/4 byte-identical={identical}, witnesses reproducible={reproducible}"
            f" in {time.time()-start:.1f}s",
        )
        assert identical and reproducible


def _random_unicyclic_edges(seed):
    from pseudoloc.corpus import random_pseudotree

    g = random_pseudotree("unicyclic", 9, random.Random(seed))
    return g.n, list(g.edges)
