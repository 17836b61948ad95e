"""One fresh-process set-up: import pseudoloc, then run the benchmark's warm-up.

Usage: python3 setup_probe.py SRC_DIR
Prints the seconds from just before ``import pseudoloc`` to the end of the
warm-up.  ``run.py`` starts several of these and reports their median as
``setup_s``; it runs the same ``warm_up`` in its own process before timing.
"""

from __future__ import annotations

import sys
import time

import gen6

# one tree and one unicyclic graph on 8 vertices
WARM_GRAPH6 = tuple(gen6.graph6_lines(seed=0, n=8, count=2))


def warm_up(P) -> None:
    """Touch every code path the workloads use once, on small inputs."""
    for line in WARM_GRAPH6:
        g = P.parse_graph6(line)
        for param in P.PARAMETER_NAMES:
            k = 2 if param == "dimk" else None
            P.compute_parameter(g, param, k=k, method="closed").to_json()
    P.verify_corpus(P.CorpusSpec(family="tree", max_n=5), jobs=1)
    P.verify_corpus(P.CorpusSpec(family="unicyclic", max_n=5), jobs=1)


def main() -> None:
    start = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    import pseudoloc

    warm_up(pseudoloc)
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()
