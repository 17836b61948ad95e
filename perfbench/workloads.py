"""The benchmark's workloads, the closed loop that drives them, and answer checks.

Every workload runs in one process and one thread.  The request workloads send
one request at a time and wait for its answer (a closed loop with one
client): a request is ``parse_graph6`` + ``compute_parameter`` + ``to_json``
of one (graph, parameter), the path ``pseudoloc compute`` takes.  The verify
workload runs whole ``verify_corpus(jobs=1)`` passes, the path of
``pseudoloc verify``.  Answers are checked as they return, outside the
timed region.
"""

from __future__ import annotations

import hashlib
import json
import time
from array import array
from dataclasses import dataclass, field, replace
from pathlib import Path

import gen6

DEFAULT_SEED = 0
DIMK_K = 2
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Requests and passes are timed in CPU time of the one thread that runs them,
# so time the process spends preempted does not count.  README.md, Noise.
CPU_CLOCK = time.thread_time

# every parameter but ddim, whose closed form does not finish at n = 64
CLOSED_PARAMS = ("dmd", "dim", "sdim", "dim2", "dimk", "edim", "mdim", "ldim")


@dataclass(frozen=True)
class RequestWorkload:
    name: str
    n: int
    params: tuple[str, ...]
    pool: int  # graphs drawn from the seed; the request stream cycles over them
    block: int  # graphs in one traced block: the first `block` graphs of the pool

    def requests(self, seed: int) -> list[tuple[str, str, int | None]]:
        """(graph6, parameter, k) in send order: every parameter of a graph, then the next graph."""
        return [
            (line, param, DIMK_K if param == "dimk" else None)
            for line in gen6.graph6_lines(seed, self.n, self.pool)
            for param in self.params
        ]


@dataclass(frozen=True)
class VerifyWorkload:
    name: str
    tree_max_n: int
    unicyclic_max_n: int
    records: int  # records one pass must produce


# The pool exceeds what one run uses at this commit.  README.md, Workloads, says
# why the ddim and large-oracle workloads were dropped.
WORKLOADS = {
    wl.name: wl
    for wl in (
        RequestWorkload("closed-n64", 64, CLOSED_PARAMS, pool=1600, block=40),
        VerifyWorkload("verify-exhaustive", tree_max_n=10, unicyclic_max_n=9, records=1886 + 3660),
    )
}

# the same workloads at a size that runs in well under a second, for smoke tests
TINY = {
    "closed-n64": dict(n=12, pool=4, block=2),
    "verify-exhaustive": dict(tree_max_n=5, unicyclic_max_n=5, records=66 + 75),
}


def workload(name: str, tiny: bool = False):
    wl = WORKLOADS[name]
    return replace(wl, **TINY[name]) if tiny else wl


@dataclass
class Outcome:
    """What one timed phase did, and what the checks after it found."""

    elapsed_s: float = 0.0
    latencies_s: array = field(default_factory=lambda: array("d"))  # 8 bytes a sample
    attempted: int = 0
    failed: int = 0
    exact: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, other: "Outcome") -> None:
        self.elapsed_s += other.elapsed_s
        self.latencies_s += other.latencies_s
        self.attempted += other.attempted
        self.failed += other.failed
        self.exact += other.exact
        self.problems += other.problems


# ---------------------------------------------------------------------------
# Request workloads


def request_fn(P):
    def answer(line: str, param: str, k: int | None) -> dict:
        return P.compute_parameter(P.parse_graph6(line), param, k=k, method="closed").to_json()

    return answer


def run_requests(wl: RequestWorkload, answer, requests, reference, seconds=None, count=None) -> Outcome:
    """Send requests in order, cycling, until `count` are answered or
    `seconds` of wall time have passed.  A request's latency is the CPU time
    of this thread inside it (see CPU_CLOCK).

    Each answer is checked as soon as it returns, outside the timed region,
    so memory does not grow with the number of requests.  A request that
    raises counts as failed.
    """
    clock = CPU_CLOCK
    per_pool = len(wl.params) * wl.pool
    out = Outcome()
    i = 0
    deadline = None if seconds is None else time.perf_counter() + seconds
    while count is None or i < count:
        line, param, k = requests[i % len(requests)]
        t0 = clock()
        try:
            result = answer(line, param, k)
        except Exception:  # a failed request is counted, not fatal
            result = None
        t1 = clock()
        out.latencies_s.append(t1 - t0)
        out.elapsed_s += t1 - t0
        ok = result is not None and _sane(result, wl.n)
        if ok and reference is not None:
            ok = _matches(result, reference[i % per_pool])
        out.failed += not ok
        out.exact += ok and isinstance(result["value"], int)
        i += 1
        if deadline is not None and time.perf_counter() >= deadline:
            break
    out.attempted = i
    return out


def digest(answer: dict) -> str:
    return hashlib.sha256(json.dumps(answer, sort_keys=True).encode()).hexdigest()[:12]


def reference_entry(answer: dict) -> list:
    """What the reference keeps of one answer: [lo, hi, digest of its JSON]."""
    value = answer["value"]
    lo, hi = (value, value) if isinstance(value, int) else value
    return [lo, hi, digest(answer)]


def reference_path(wl) -> Path:
    return REFERENCE_DIR / f"{wl.name}.json"


def reference_header(wl) -> dict:
    """The workload definition a reference file was recorded for."""
    if isinstance(wl, VerifyWorkload):
        return {"workload": wl.name, "tree_max_n": wl.tree_max_n, "unicyclic_max_n": wl.unicyclic_max_n}
    return {
        "workload": wl.name,
        "n": wl.n,
        "params": list(wl.params),
        "seed": DEFAULT_SEED,
        "pool": wl.pool,
    }


def load_reference(wl, seed: int) -> tuple[list | dict | None, list[str]]:
    """Reference answers when the run is the recorded one: a registered
    workload, at the default seed for a request workload (the verify corpus
    does not depend on the seed).  Otherwise (None, []); a missing or stale
    reference is a problem."""
    if wl != WORKLOADS[wl.name] or (isinstance(wl, RequestWorkload) and seed != DEFAULT_SEED):
        return None, []
    path = reference_path(wl)
    if not path.exists():
        return None, [f"reference {path.name} is missing"]
    ref = json.loads(path.read_text(encoding="utf-8"))
    if any(ref.get(key) != value for key, value in reference_header(wl).items()):
        return None, [f"reference {path.name} was recorded for another workload definition"]
    return ref["answers"], []


def _sane(answer: dict, n: int) -> bool:
    """Checks that hold on any seed: a value or interval inside [1, n], and
    every witness of distinct vertices, the size of its value."""
    value = answer.get("value")
    if isinstance(value, list):
        return len(value) == 2 and 1 <= value[0] <= value[1] <= n
    if not isinstance(value, int) or not 1 <= value <= n:
        return False
    witness = answer.get("witness")
    if witness is None:
        return True
    return len(set(witness)) == len(witness) == value and all(0 <= v < n for v in witness)


def _matches(answer: dict, ref: list) -> bool:
    """Equal to the reference, or exact and inside the recorded interval, so
    that a later tightening still passes."""
    lo, hi, ref_digest = ref
    value = answer["value"]
    return digest(answer) == ref_digest or (isinstance(value, int) and lo <= value <= hi)


# ---------------------------------------------------------------------------
# Verify workload


def pass_fn(P, wl: VerifyWorkload):
    def verify_pass() -> list:
        records = []
        for family, max_n in (("tree", wl.tree_max_n), ("unicyclic", wl.unicyclic_max_n)):
            spec = P.CorpusSpec(family=family, max_n=max_n)
            records += P.verify_corpus(spec, jobs=1)[0]
        return records

    return verify_pass


def oracle_key(rec) -> str:
    return f"{rec.graph6} {rec.parameter}"


def oracle_entry(rec) -> list:
    """What the reference keeps of one record: the oracle's value and witness."""
    return [rec.oracle.value, list(rec.oracle.witness)]


def check_records(wl: VerifyWorkload, records, reference: dict | None) -> Outcome:
    """One pass: no VIOLATION, every oracle record exact with a witness of its
    size, and the expected record count.  With a reference, the oracle's
    value and witness must equal the entry of the same graph6 and parameter
    (the witness is the lexicographically first set), and every record must
    have an entry, so that a change of canonical labelling fails the run
    instead of silently skipping the comparison."""
    out = Outcome(attempted=max(len(records), wl.records))
    matched = 0
    for rec in records:
        oracle = rec.oracle
        ok = (
            rec.status != "VIOLATION"
            and oracle.is_exact
            and oracle.witness is not None
            and len(set(oracle.witness)) == oracle.value
        )
        if reference is not None:
            ref = reference.get(oracle_key(rec))
            matched += ref is not None
            ok = ok and ref in (None, oracle_entry(rec))
        out.failed += not ok
        out.exact += rec.closed.is_exact
    if len(records) != wl.records:
        out.failed += abs(wl.records - len(records))
        out.problems.append(f"a verify pass gave {len(records)} records, expected {wl.records}")
    if reference is not None and matched < wl.records:
        out.problems.append(
            f"{matched} of {wl.records} records found in the reference; "
            "re-record it if the canonical labelling changed"
        )
    return out


def run_verify(wl: VerifyWorkload, verify_pass, reference, seconds=None, passes=None) -> Outcome:
    """Whole passes until `passes` are done, or while another pass as long as
    the last still ends within `seconds` of wall time (at least one pass).
    A latency sample is one pass's CPU time per record."""
    total = Outcome()
    start = time.perf_counter()
    while passes is None or len(total.latencies_s) < passes:
        t0, wall0 = CPU_CLOCK(), time.perf_counter()
        try:
            records = verify_pass()
        except Exception as exc:  # a failed pass counts all its records as failed
            records = []
            total.problems.append(f"verify pass raised {exc!r}")
        took, now = CPU_CLOCK() - t0, time.perf_counter()
        checked = check_records(wl, records, reference)
        checked.elapsed_s = took
        checked.latencies_s.append(took / max(len(records), 1))
        total.add(checked)
        if passes is None and now - start + (now - wall0) > seconds:
            break
    return total
