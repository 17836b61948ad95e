"""Smoke test of the benchmark: every workload at a tiny size, traced and untraced.

Run from the root of the repository:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import gen6  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_workloads_and_metrics_match_benchmark_json():
    assert sorted(workloads.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])
    assert [name for name, _ in run.END_TO_END] == [m["name"] for m in SPEC["end_to_end"]]
    assert [name for name, _ in run.PER_LAYER] == [m["name"] for m in SPEC["per_layer"]]


def test_generator_emits_the_graph_it_drew():
    P = run.load_pseudoloc()
    rng = random.Random(7)
    for n in (2, 3, 12, 62, 63, 64):
        for unicyclic in (False, True) if n >= 3 else (False,):
            edges = gen6.random_pseudotree(rng, n, unicyclic)
            g = P.parse_graph6(gen6.encode_graph6(n, edges))
            assert g.edges == P.from_edge_list(n, edges).edges
            assert g.m == n - 1 + unicyclic


def test_traced_runs_find_every_target(tmp_path):
    called = set()
    for name in workloads.WORKLOADS:
        report = run.measure(name, seed=1, seconds=0.2, trace=True, tiny=True, span_dir=tmp_path)
        assert report.missing == [], name
        assert report.correct and report.failed == 0, (name, report.problems)
        assert report.attempted > 0
        assert (tmp_path / f"{name}.spans.json").exists()
        called |= {t for t in tracer.TARGET_NAMES if report.metrics[f"{t}.calls"][0] > 0}
    assert called == set(tracer.TARGET_NAMES)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(name):
    report = run.measure(name, seed=1, seconds=0.2, trace=False, tiny=True)
    assert report.correct and report.failed == 0, report.problems
    assert all(value > 0 for value, _ in report.metrics.values())


def test_reference_mismatches_are_failures():
    P = run.load_pseudoloc()
    wl = workloads.WORKLOADS["closed-n64"]
    reference, problems = workloads.load_reference(wl, workloads.DEFAULT_SEED)
    assert problems == [] and len(reference) == wl.pool * len(wl.params)
    requests = wl.requests(workloads.DEFAULT_SEED)[: len(wl.params)]
    answer = workloads.request_fn(P)
    good = workloads.run_requests(wl, answer, requests, reference, count=len(requests))
    assert good.failed == 0
    wrong = [[hi + 1, hi + 1, "0" * 12] for lo, hi, _ in reference]
    bad = workloads.run_requests(wl, answer, requests, wrong, count=len(requests))
    assert bad.failed == len(requests)

    tiny = workloads.workload("verify-exhaustive", tiny=True)
    records = workloads.pass_fn(P, tiny)()
    oracle = {workloads.oracle_key(r): workloads.oracle_entry(r) for r in records}
    checked = workloads.check_records(tiny, records, oracle)
    assert checked.failed == 0 and checked.problems == []
    key = next(k for k, (value, _) in oracle.items() if value >= 2)
    oracle[key] = [oracle[key][0], oracle[key][1][::-1]]
    assert workloads.check_records(tiny, records, oracle).failed == 1
    del oracle[key]
    uncovered = workloads.check_records(tiny, records, oracle)
    assert uncovered.failed == 0 and len(uncovered.problems) == 1


def test_missing_traced_target_fails_the_run(tmp_path, monkeypatch):
    monkeypatch.setattr(tracer, "TARGET_NAMES", tracer.TARGET_NAMES + ("graph.no_such_function",))
    report = run.measure("verify-exhaustive", seed=1, seconds=0.2, trace=True, tiny=True, span_dir=tmp_path)
    assert report.missing == ["graph.no_such_function"]
    assert not report.correct
