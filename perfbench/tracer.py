"""Span tracing of pseudoloc's public functions, from outside the library.

``Tracer.install`` rebinds each target function at every binding across the
``pseudoloc`` package, so calls made through ``from .graph import ...`` copies
are traced as well.  A span records its name, start, end, parent span and
whether the call raised.  Spans stay in memory until ``dump`` writes them.
A layer's self time is its span's duration minus its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time

TARGETS = {
    "graph": ("parse_graph6", "distance_matrix", "from_edge_list"),
    "structure": ("profile", "boundary_and_sr_graph", "independence_number", "domination_number"),
    "resolvers": ("brute_force_dimension", "k_dimensional_value"),
    "closed_form": ("compute_parameter", "closed_result", "oracle_result"),
    "corpus": (
        "verify_corpus",
        "verify_graph",
        "tree_canonical_key",
        "tree_canonical_form",
        "unicyclic_canonical_key",
        "unicyclic_canonical_form",
    ),
}

PACKAGE = "pseudoloc"

TARGET_NAMES = tuple(f"{module}.{fn}" for module, fns in TARGETS.items() for fn in fns)

# span fields
NAME, START, END, PARENT, RAISED = range(5)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack = [-1]
        self._wrappers: dict[str, object] = {}
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str):
        """fn wrapped so that each call records one span called name."""
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name_id, clock(), 0, stack[-1], False]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()

        return traced

    def install(self) -> list[str]:
        """Rebind every target; returns the targets that no longer exist.

        Installing again after ``uninstall`` reuses the same wrappers, so
        spans of every installation add up under one name each.
        """
        modules = [
            m
            for name, m in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        self.missing = []
        for target in TARGET_NAMES:
            module_name, fn_name = target.split(".")
            original = getattr(sys.modules.get(f"{PACKAGE}.{module_name}"), fn_name, None)
            if original is None:
                self.missing.append(target)
                continue
            if target not in self._wrappers:
                self._wrappers[target] = self.wrap(original, target)
            wrapper = self._wrappers[target]
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))
        return self.missing

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s, self_s and errors (calls that raised)."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_ns[span[PARENT]] += span[END] - span[START]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": 0} for name in self.names}
        for span, children in zip(self.spans, child_ns):
            row = out[self.names[span[NAME]]]
            duration = span[END] - span[START]
            row["calls"] += 1
            row["total_s"] += duration / 1e9
            row["self_s"] += (duration - children) / 1e9
            row["errors"] += span[RAISED]
        return out

    def dump(self, path) -> None:
        """Write names and spans as JSON: span = [name index, start ns, end ns, parent, raised]."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh, separators=(",", ":"))
