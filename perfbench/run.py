"""Benchmark of pseudoloc: one workload, end-to-end or per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the run measures the end-to-end metrics with tracing off.
With ``--trace 1`` it alternates untraced and traced runs of one fixed block
of the workload and reports the per-layer metrics per block and the tracing
overhead.  Human-readable lines come first; the last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  pseudoloc is imported from ``src/`` of the checkout only.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import setup_probe
import tracer as tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench"
SETUP_RUNS = 9

END_TO_END = (
    ("requests_per_s", "1/s"),
    ("request_ms_p50", "ms"),
    ("request_ms_tail", "ms"),
    ("exact_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
LAYER_STATS = (("calls", "count"), ("total_s", "s"), ("self_s", "s"), ("errors", "count"))
DERIVED = (
    ("graph.distance_matrix.per_graph", "count"),
    ("structure.profile.per_graph", "count"),
    ("corpus.dedup_kept_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)
PER_LAYER = tuple(
    (f"{target}.{stat}", unit) for target in tracing.TARGET_NAMES for stat, unit in LAYER_STATS
) + DERIVED


@dataclass
class Report:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    notes: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)

    def lines(self) -> list[str]:
        out = [f"  {name:<44} {value:>14.6g} {unit:<6} {self.notes.get(name, '')}".rstrip()
               for name, (value, unit) in self.metrics.items()]
        out += [f"  failed_ratio {self.failed / self.attempted:.6g} ratio ({self.failed} of {self.attempted})"]
        out += [f"  problem: {p}" for p in self.problems]
        return out

    def result(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in self.metrics.items()},
        }


def load_pseudoloc():
    """Import pseudoloc from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import pseudoloc
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import pseudoloc from {SRC}: {exc}")
    if not Path(pseudoloc.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: pseudoloc came from {pseudoloc.__file__}, not {SRC}")
    return pseudoloc


def measure_setup(runs: int) -> list[float]:
    """Import + warm-up seconds of `runs` fresh processes, one after another."""
    times = []
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(SRC)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.split()[-1]))
    return times


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it.
    Below 21 samples that percentile would not exceed the median, so the
    maximum is reported instead."""
    ordered = sorted(samples)
    if len(ordered) < 21:
        return ordered[-1], 100.0
    return ordered[-11], 100.0 * (len(ordered) - 10) / len(ordered)


def block_median(samples, size: int) -> tuple[float, int]:
    """(mean over consecutive blocks of `size` samples of each block's median,
    number of blocks).  The machine's speed changes over seconds; a median
    over the whole run jumps with the share of time spent fast, while a
    mean of block medians moves with it smoothly.  A run shorter than one
    block gives the median of all its samples."""
    blocks = [samples[i:i + size] for i in range(0, len(samples) - size + 1, size)]
    if not blocks:
        return statistics.median(samples), 1
    return statistics.fmean(statistics.median(b) for b in blocks), len(blocks)


def run_phase(wl, fn, inputs, seconds=None, block=False) -> workloads.Outcome:
    """Time the workload for `seconds`, or one traced block of it."""
    if isinstance(wl, workloads.VerifyWorkload):
        return workloads.run_verify(wl, fn, inputs, seconds=seconds, passes=1 if block else None)
    requests, reference = inputs
    count = wl.block * len(wl.params) if block else None
    return workloads.run_requests(wl, fn, requests, reference, seconds=seconds, count=count)


def end_to_end(wl, out: workloads.Outcome, setup: list[float]) -> tuple[dict, dict]:
    verify = isinstance(wl, workloads.VerifyWorkload)
    unit = "record" if verify else "request"
    tail_value, pct = tail(out.latencies_s)
    samples = len(out.latencies_s)
    # a block is one traced block: 40 graphs' requests, or one verify pass
    p50, blocks = block_median(out.latencies_s, 1 if verify else wl.block * len(wl.params))
    metrics = {
        "requests_per_s": out.attempted / out.elapsed_s,
        "request_ms_p50": 1000 * p50,
        "request_ms_tail": 1000 * tail_value,
        "exact_ratio": out.exact / out.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup),
    }
    sample_kind = "passes, time per record" if verify else "requests"
    notes = {
        "requests_per_s": f"{out.attempted} {unit}s in {out.elapsed_s:.3f} CPU s"
        + (" (records_per_s)" if verify else ""),
        "request_ms_p50": f"mean over {samples} passes" if verify
        else f"p50 of each of {blocks} blocks of {wl.block * len(wl.params)}, mean over the blocks",
        "request_ms_tail": f"p{pct:.4g} of {samples} {sample_kind}",
        "exact_ratio": f"{out.exact} of {out.attempted} "
        + ("closed results exact" if verify else "answers exact"),
        "setup_s": f"median of {len(setup)} fresh processes: "
        + " ".join(f"{t:.4f}" for t in setup),
    }
    return {name: (metrics[name], u) for name, u in END_TO_END}, notes


def per_layer(summary: dict, blocks: int, overhead: float) -> tuple[dict, dict]:
    """Layer metrics per traced block; the block is the same work every time."""

    def stat(target, key):
        return summary.get(target, {}).get(key, 0) / blocks

    metrics = {f"{t}.{s}": stat(t, s) for t in tracing.TARGET_NAMES for s, _ in LAYER_STATS}
    graphs = stat("graph.parse_graph6", "calls") + stat("corpus.verify_graph", "calls")
    keys = stat("corpus.tree_canonical_key", "calls") + stat("corpus.unicyclic_canonical_key", "calls")
    forms = stat("corpus.tree_canonical_form", "calls") + stat("corpus.unicyclic_canonical_form", "calls")
    metrics["graph.distance_matrix.per_graph"] = stat("graph.distance_matrix", "calls") / max(graphs, 1)
    metrics["structure.profile.per_graph"] = stat("structure.profile", "calls") / max(graphs, 1)
    metrics["corpus.dedup_kept_ratio"] = forms / keys if keys else 0.0
    metrics["trace.overhead_ratio"] = overhead
    notes = {name: f"per block, mean of {blocks}" for name in metrics}
    notes.update({
        "graph.distance_matrix.per_graph": f"over {graphs:g} graphs per block",
        "structure.profile.per_graph": f"over {graphs:g} graphs per block",
        "corpus.dedup_kept_ratio": f"{forms:g} forms built / {keys:g} keys computed",
        "trace.overhead_ratio": f"traced / untraced time of the same {blocks} blocks",
    })
    return {name: (metrics[name], unit) for name, unit in PER_LAYER}, notes


def trace_blocks(wl, plain, inputs, seconds: float, spans: tracing.Tracer):
    """Alternate one untraced and one traced run of the block while another
    pair as long as the last still ends within `seconds` (at least one pair)."""
    traced_fn = spans.wrap(plain, "bench.pass" if isinstance(wl, workloads.VerifyWorkload) else "bench.request")
    untraced, traced = workloads.Outcome(), workloads.Outcome()
    blocks, start = 0, time.perf_counter()
    while True:
        t0 = time.perf_counter()
        untraced.add(run_phase(wl, plain, inputs, block=True))
        with spans:
            traced.add(run_phase(wl, traced_fn, inputs, block=True))
        blocks += 1
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return untraced, traced, blocks


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
            span_dir: Path = SPAN_DIR) -> Report:
    wl = workloads.workload(name, tiny)
    P = load_pseudoloc()
    reference, problems = workloads.load_reference(wl, seed)
    if isinstance(wl, workloads.RequestWorkload):
        inputs = (wl.requests(seed), reference)
        plain = workloads.request_fn(P)
    else:
        inputs = reference
        plain = workloads.pass_fn(P, wl)
    setup_probe.warm_up(P)

    missing: list[str] = []
    if not trace:
        out = run_phase(wl, plain, inputs, seconds=seconds)
        metrics, notes = end_to_end(wl, out, measure_setup(SETUP_RUNS))
    else:
        spans = tracing.Tracer()
        out, traced, blocks = trace_blocks(wl, plain, inputs, seconds, spans)
        missing = spans.missing
        if missing:
            # a layer that can no longer be traced would read 0; fail the run instead
            problems.append(f"traced targets missing: {', '.join(missing)}")
        span_dir.mkdir(parents=True, exist_ok=True)
        spans.dump(span_dir / f"{name}.spans.json")
        metrics, notes = per_layer(spans.summary(), blocks, traced.elapsed_s / out.elapsed_s)
        out.add(traced)
    problems += out.problems
    return Report(
        correct=out.failed == 0 and not problems,
        attempted=max(out.attempted, 1),
        failed=out.failed,
        metrics=metrics,
        notes=notes,
        problems=problems,
        missing=missing,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for line in report.lines():
        print(line)
    if args.trace:
        found = len(tracing.TARGET_NAMES) - len(report.missing)
        print(f"  traced targets found: {found} of {len(tracing.TARGET_NAMES)}"
              + (f"; missing: {', '.join(report.missing)}" if report.missing else ""))
    print(json.dumps(report.result()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
