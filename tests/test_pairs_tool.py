"""The summary of tools/pairs.py: per-pair values, quartiles, wins and the RSS slope."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location("pairs", Path(__file__).resolve().parents[1] / "tools" / "pairs.py")
pairs_tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs_tool)

METRICS = [
    {"name": "requests_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]


def run(rate: float, rss: float, attempted: int) -> dict:
    metrics = {"requests_per_s": {"value": rate}, "peak_rss_mb": {"value": rss}}
    return {"correct": True, "attempted": attempted, "failed": 0, "metrics": metrics}


def test_wins_follow_better_and_ties_count_for_neither():
    pairs = [
        {"order": ["parent", "change"], "parent": run(100, 30, 5), "change": run(120, 31, 6)},
        {"order": ["change", "parent"], "parent": run(110, 30, 5), "change": run(110, 29, 5)},
        {"order": ["parent", "change"], "parent": run(90, 30, 4), "change": run(130, 30, 7)},
    ]
    summary = pairs_tool.summary(METRICS, pairs)
    rate, rss = summary["requests_per_s"], summary["peak_rss_mb"]
    assert rate["parent"]["values"] == [100, 110, 90] and rate["change"]["values"] == [120, 110, 130]
    assert rate["change_better_pairs"] == 2  # pair 2 is a tie
    assert rss["change_better_pairs"] == 1  # lower is better
    assert (rate["parent"]["q1"], rate["parent"]["median"], rate["parent"]["q3"]) == (95, 100, 105)
    assert pairs_tool.spread([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0}
    text = pairs_tool.report(
        {"workload": "w", "seed": 0, "seconds": 1, "revisions": {"parent": "a", "change": "b"},
         "metrics": summary, "pairs": pairs, "all_correct": True}
    )
    assert "change better in 2/3" in text and "requests per pair parent/change: 5/6 5/5 4/7" in text


def test_rejects_a_checkout_without_the_benchmark(tmp_path):
    with pytest.raises(SystemExit):
        pairs_tool.main([str(tmp_path), str(tmp_path), "--workload", "closed-n64", "--pairs", "1", "--seconds", "1"])


def test_rss_slope_per_side_and_the_change_at_the_parent_request_count():
    # r requests at b bytes each add b MiB: the parent runs 64 B per request,
    # the change 32 B per request and 1 MiB above the parent's line at the
    # parent's median request count, 2r
    r = 2**20
    parent = [(r, 10), (2 * r, 74), (3 * r, 138)]
    change = [(5 * r // 2, 91), (3 * r, 107), (7 * r // 2, 123)]
    pairs = [
        {"order": ["parent", "change"], "parent": run(1, p_rss, p_req), "change": run(1, c_rss, c_req)}
        for (p_req, p_rss), (c_req, c_rss) in zip(parent, change)
    ]
    rss = pairs_tool.rss_per_request(pairs)
    assert rss["parent"]["bytes_per_request"] == pytest.approx(64)
    assert rss["change"]["bytes_per_request"] == pytest.approx(32)
    assert rss["parent"]["median_requests"] == 2 * r and rss["change"]["median_requests"] == 3 * r
    assert rss["change"]["median_rss_mb_at_parent_requests"] == pytest.approx(75)
    assert "median_rss_mb_at_parent_requests" not in rss["parent"]
    one = pairs_tool.rss_per_request(pairs[:1])  # one run per side fits no line
    assert one["parent"]["bytes_per_request"] is None and "median_rss_mb_at_parent_requests" not in one["change"]


def test_cpu_share_of_a_busy_and_of_a_sleeping_run(tmp_path):
    # a stand-in perfbench/run.py: it spins or sleeps for the seconds it is
    # given and prints one JSON line; a sleeping run uses almost no CPU
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import json, sys, time\n"
        "seconds = float(sys.argv[sys.argv.index('--seconds') + 1])\n"
        "end = time.perf_counter() + seconds\n"
        "if sys.argv[sys.argv.index('--workload') + 1] == 'busy':\n"
        "    while time.perf_counter() < end:\n"
        "        pass\n"
        "else:\n"
        "    time.sleep(seconds)\n"
        "print(json.dumps({'correct': True}))\n"
    )
    busy, busy_share = pairs_tool.run_once(tmp_path, "busy", 0, 0.5)
    idle, idle_share = pairs_tool.run_once(tmp_path, "idle", 0, 0.5)
    assert busy == idle == {"correct": True}
    assert idle_share < 0.3 < busy_share


def test_pairs_with_a_low_cpu_share_on_either_side():
    shares = [(0.99, 0.95), (0.85, 0.97), (0.93, 0.89), (0.9, 0.9)]
    pairs = [
        {"order": ["parent", "change"], "cpu_share": {"parent": p, "change": c},
         "parent": run(100, 30, 5), "change": run(100, 30, 5)}
        for p, c in shares
    ]
    low = pairs_tool.low_cpu_share_pairs(pairs)
    assert low == [2, 3]  # a share of exactly 0.9 is not below it
    text = pairs_tool.report(
        {"workload": "w", "seed": 0, "seconds": 1, "revisions": {"parent": "a", "change": "b"},
         "metrics": pairs_tool.summary(METRICS, pairs), "pairs": pairs, "all_correct": True,
         "low_cpu_share_pairs": low}
    )
    assert "CPU share per pair parent/change: 0.99/0.95 0.85/0.97 0.93/0.89 0.90/0.90; pairs below 0.9: 2, 3" in text
