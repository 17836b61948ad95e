"""Record the reference answers of the workloads.

Usage, from the root of a checkout:

    python3 perfbench/record_reference.py [WORKLOAD ...]

Writes ``perfbench/reference/<workload>.json``.  For a request workload:
one entry per request of one pass over the graph pool at the default seed,
as [lo, hi, digest of the answer's JSON].  For the verify workload: the
oracle's [value, witness] of every record of one pass, keyed by graph6 and
parameter.  Re-record only when a workload's definition changes, from a
commit whose answers are trusted.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def record(P, wl) -> None:
    compact = dict(separators=(",", ":"))
    if isinstance(wl, workloads.VerifyWorkload):
        records = workloads.pass_fn(P, wl)()
        entries = [
            f"{json.dumps(workloads.oracle_key(r))}:{json.dumps(workloads.oracle_entry(r), **compact)}"
            for r in records
        ]
        opening, closing = "{", "}"
    else:
        answer = workloads.request_fn(P)
        entries = [
            json.dumps(workloads.reference_entry(answer(*request)), **compact)
            for request in wl.requests(workloads.DEFAULT_SEED)
        ]
        opening, closing = "[", "]"
    header = json.dumps(workloads.reference_header(wl))[:-1]
    text = f'{header}, "answers": {opening}\n' + ",\n".join(entries) + f"\n{closing}}}\n"
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    workloads.reference_path(wl).write_text(text, encoding="utf-8")
    print(f"{wl.name}: {len(entries)} answers")


def main(names) -> None:
    P = run.load_pseudoloc()
    for name in names or workloads.WORKLOADS:
        record(P, workloads.WORKLOADS[name])


if __name__ == "__main__":
    main(sys.argv[1:])
