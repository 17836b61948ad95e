"""Alternating pairs of benchmark runs: a parent checkout against a change.

Usage, from anywhere:

    python3 tools/pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N --seconds S [--seed 0]

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout, the
parent first in odd pairs (1, 3, ...) and the change first in even ones, so a
drift in machine speed falls on both sides alike.  It reads each run's last
JSON line.  For every end-to-end metric of BENCHMARK.json (at the root of the
repository holding this script) it prints the per-pair values, each side's
median [Q1, Q3] and in how many pairs the change was better by the metric's
``better``, then every run's request count.  Since perfbench keeps a sample
per request, peak_rss_mb grows with the request count: per side it prints
the least-squares bytes per request of peak_rss_mb over the runs' request
counts, and the change's median peak_rss_mb moved along the change's line to
the parent's median request count.  It writes the same to
``BENCH_<workload>.json`` at the root of that repository.

Exits 1 if a run gives no JSON result or reports ``correct`` other than true,
after writing what it has.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def revision(checkout: Path) -> str:
    """The short commit of a checkout, with "+dirty" if its tracked files changed."""
    def git(*args):
        return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True).stdout.strip()

    head = git("rev-parse", "--short", "HEAD") or "unknown"
    return head + ("+dirty" if git("status", "--porcelain", "--untracked-files=no") else "")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """One benchmark run in checkout: the JSON object of its last stdout line, or None."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}  # run.py imports its own src/
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True).stdout
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method; one value is its own quartiles)."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summary(metrics: list[dict], pairs: list[dict]) -> dict:
    """Per metric: the values of each side, their spread, and the pairs the change won."""
    out = {}
    for m in metrics:
        name = m["name"]
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        sign = 1 if m["better"] == "higher" else -1
        better = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        out[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "bound": m["bound"],
            **{side: {"values": values[side], **spread(values[side])} for side in SIDES},
            "change_better_pairs": better,
        }
    return out


def rss_per_request(pairs: list[dict]) -> dict:
    """Per side, the least-squares slope of peak_rss_mb (MiB, as perfbench
    reads ru_maxrss) over the request count in bytes per request, None with
    fewer than two distinct counts; for the change, also its median
    peak_rss_mb with each run moved along that slope to the parent's median
    request count."""
    out = {}
    for side in SIDES:
        requests = [p[side]["attempted"] for p in pairs]
        rss = [p[side]["metrics"]["peak_rss_mb"]["value"] for p in pairs]
        slope = statistics.linear_regression(requests, rss).slope if len(set(requests)) > 1 else None
        out[side] = {
            "bytes_per_request": None if slope is None else slope * 2**20,
            "median_requests": statistics.median(requests),
            "median_rss_mb": statistics.median(rss),
        }
    if out["change"]["bytes_per_request"] is not None:
        at = out["parent"]["median_requests"]
        slope = out["change"]["bytes_per_request"] / 2**20
        moved = [p["change"]["metrics"]["peak_rss_mb"]["value"] - slope * (p["change"]["attempted"] - at) for p in pairs]
        out["change"]["median_rss_mb_at_parent_requests"] = statistics.median(moved)
    return out


def fmt(x: float) -> str:
    return f"{x:.4g}" if abs(x) < 1000 else f"{x:,.0f}"


def report(bench: dict) -> str:
    lines = [
        f"{bench['workload']}: {len(bench['pairs'])} pairs of {bench['seconds']} s at seed {bench['seed']}, "
        f"parent {bench['revisions']['parent']} -> change {bench['revisions']['change']}"
    ]
    for name, m in bench["metrics"].items():
        p, c = m["parent"], m["change"]
        per_pair = " ".join(f"{fmt(a)}/{fmt(b)}" for a, b in zip(p["values"], c["values"]))
        lines.append(
            f"  {name} ({m['unit']}, {m['better']} is better): parent {fmt(p['median'])} "
            f"[{fmt(p['q1'])}, {fmt(p['q3'])}] -> change {fmt(c['median'])} [{fmt(c['q1'])}, {fmt(c['q3'])}], "
            f"change better in {m['change_better_pairs']}/{len(p['values'])}; per pair parent/change: {per_pair}"
        )
    requests = " ".join(f"{p['parent']['attempted']}/{p['change']['attempted']}" for p in bench["pairs"])
    lines.append(f"  requests per pair parent/change: {requests}")
    rss = bench.get("rss_per_request")
    if rss:
        for side in SIDES:
            r, slope = rss[side], rss[side]["bytes_per_request"]
            lines.append(
                f"  peak_rss_mb over requests, {side}: {'n/a' if slope is None else fmt(slope)} B per request; "
                f"median {fmt(r['median_rss_mb'])} MB at {fmt(r['median_requests'])} requests"
                + (f"; at the parent's median requests {fmt(r['median_rss_mb_at_parent_requests'])} MB"
                   if "median_rss_mb_at_parent_requests" in r else "")
            )
    lines.append(f"  all correct: {bench['all_correct']}")
    return "\n".join(lines)


def run_pairs(checkouts: dict, args, metrics: list[dict]) -> list[dict]:
    """The complete pairs, in order; stops at the first run without a result."""
    pairs = []
    for i in range(1, args.pairs + 1):
        order = SIDES if i % 2 else SIDES[::-1]
        pair = {"order": list(order)}
        for side in order:
            result = run_once(checkouts[side], args.workload, args.seed, args.seconds)
            if result is None:
                print(f"pair {i}: the {side} run gave no JSON result", file=sys.stderr)
                return pairs
            pair[side] = result
            values = " ".join(f"{m['name']}={fmt(result['metrics'][m['name']]['value'])}" for m in metrics)
            print(f"pair {i} {side}: {values} requests={result['attempted']} correct={result['correct']}", flush=True)
        pairs.append(pair)
    return pairs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in checkouts.items():
        if not (path / "perfbench" / "run.py").is_file():
            parser.error(f"the {side} checkout {path} has no perfbench/run.py")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    pairs = run_pairs(checkouts, args, metrics)
    if not pairs:
        return 1
    bench = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "revisions": {side: revision(checkouts[side]) for side in SIDES},
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version()},
        "all_correct": all(p[side]["correct"] is True for p in pairs for side in SIDES),
        "metrics": summary(metrics, pairs),
        "rss_per_request": rss_per_request(pairs),
        "pairs": pairs,
    }
    (ROOT / f"BENCH_{args.workload}.json").write_text(json.dumps(bench, indent=1) + "\n")
    print(report(bench))
    return 0 if len(pairs) == args.pairs and bench["all_correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
