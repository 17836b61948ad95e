"""Closed-form dispatch for the nine location parameters.

Each closed form takes a pseudotree and returns the exact value when a
characterization covers the instance, and the certified interval otherwise.
The profile and the SR graph they read are kept on the graph
(graph.kept).  Only dimk at k >= 3 on a twin-free graph reads distances:
its k-range rule, resolvers.check_k_range, counts the oracle's vertex-pair
masks, which the oracle reads again.  The engine never guesses: interval
results carry the bounded-by-theorem method and can be upgraded to the
oracle on request.

The unicyclic theorems of dmd, dim and mdim ask the profile's two tests of
a set of cycle vertices, antipodal_pairs and has_geodesic_triple, and
even-girth sdim counts the antipodal pairs of trivial and of root vertices.
"""

from __future__ import annotations

from itertools import combinations

from .errors import SizeCapExceeded
from .graph import Graph, kept
from .resolvers import (
    METHOD_BOUNDED,
    METHOD_CLOSED_FORM,
    METHOD_SR_FORMULA,
    ParameterResult,
    brute_force_dimension,
    check_k,
    check_k_range,
)
from .structure import (
    FamilyKind,
    PseudotreeProfile,
    StrongResolvingGraph,
    boundary_and_sr_graph,
    domination_number,
    independence_number,
    profile,
)


def _exact(value, tag, witness=None, method=METHOD_CLOSED_FORM) -> ParameterResult:
    return ParameterResult(value=value, witness=witness, method=method, theorem_tag=tag)


def _interval(lo, hi, tag) -> ParameterResult:
    return ParameterResult(bounds=(lo, hi), method=METHOD_BOUNDED, theorem_tag=tag)


def _rho_hat(prof: PseudotreeProfile) -> int:
    return max(2 - prof.rho, 0)


# ---------------------------------------------------------------------------
# Doubly metric dimension


# dmd's tag by girth parity and the number e of trivial vertices it adds;
# e reaches the size of a spread set only on a cycle, which has no roots
_DMD_TAGS = {
    1: ("DMD_UNIC_ODD_ANTIPODAL", "DMD_UNIC_ODD_AUGMENT", "DMD_CYCLE_ODD"),
    0: ("DMD_UNIC_EVEN_GEODESIC", "DMD_UNIC_EVEN_AUGMENT", "DMD_UNIC_EVEN_SINGLE_ROOT", "DMD_CYCLE_EVEN"),
}


def dmd_closed(g: Graph) -> ParameterResult:
    """Doubly metric dimension; always exact, with a constructive witness.

    A tree needs its leaves.  A cycle or unicyclic graph needs its leaves
    and a spread set of cycle vertices, each a root (the leaves behind it
    stand for it) or an added trivial vertex.  A spread set is a pair at
    cycle distance floor(g/2) when the girth g is odd, and a geodesic triple
    when g is even.  The value is l + e for the least e such that some
    e-subset X of the trivial vertices makes one with size - e roots, and
    the witness is the leaves and the first such X in combinations order.
    """
    prof = kept(g, profile)
    kind = prof.kind
    if kind is FamilyKind.PATH:
        return _exact(2, "DMD_PATH", witness=prof.leaves)
    if kind is FamilyKind.TREE:
        return _exact(prof.num_leaves, "DMD_TREE", witness=prof.leaves)
    odd = prof.girth % 2
    holds_spread_set, size = (prof.antipodal_pairs, 2) if odd else (prof.has_geodesic_triple, 3)
    roots = prof.root_vertices
    for e in range(max(size - len(roots), 0), size + 1):
        for extra in combinations(prof.trivial_vertices, e):
            # at the least e, a spread set of X and the roots holds all of X
            if holds_spread_set(roots + extra):
                witness = tuple(sorted(prof.leaves + extra)) if extra else prof.leaves
                return _exact(prof.num_leaves + e, _DMD_TAGS[odd][e], witness=witness)
    raise AssertionError("unreachable: the whole cycle holds a spread set")


# ---------------------------------------------------------------------------
# Metric dimension


def _tree_metric_basis(prof: PseudotreeProfile) -> tuple[int, ...]:
    # all terminal vertices except the largest one of each exterior major vertex
    picked: list[int] = []
    for w in prof.exterior_major:
        picked.extend(prof.terminal_map[w][:-1])
    return tuple(sorted(picked))


def dim_closed(g: Graph) -> ParameterResult:
    """Metric dimension: exact where characterized, else the width-1 interval."""
    prof = kept(g, profile)
    kind = prof.kind
    if kind is FamilyKind.PATH:
        return _exact(1, "DIM_PATH", witness=(prof.leaves[0],))
    if kind is FamilyKind.TREE:
        return _exact(
            prof.num_leaves - prof.num_exterior_major, "DIM_TREE", witness=_tree_metric_basis(prof)
        )
    if kind is FamilyKind.CYCLE:
        return _exact(2, "DIM_CYCLE", witness=(prof.cycle[0], prof.cycle[1]))
    base = prof.num_leaves - prof.num_exterior_major
    rho = prof.rho
    if prof.girth % 2 == 1:
        if rho == 0:
            return _exact(2, "DIM_ODD_RHO0")
        if rho == 1:
            return _exact(base + 1, "DIM_ODD_RHO1")
        if prof.antipodal_pairs(prof.branch_active):
            return _exact(base, "DIM_ODD_ANTIPODAL")
    else:
        if rho == 0:
            if prof.girth == 4:
                return _exact(2, "DIM_EVEN_G4")
            if prof.girth == 6:
                return _exact(2 if prof.c2 != 0 else 3, "DIM_EVEN_G6")
            if prof.c2 <= 1:
                return _exact(3, "DIM_EVEN_FEW_TRIVIAL")
        elif prof.has_geodesic_triple(prof.branch_active):
            return _exact(base, "DIM_EVEN_GEODESIC_TRIPLE")
    rho_hat = _rho_hat(prof)
    return _interval(base + rho_hat, base + rho_hat + 1, "DIM_UNIC_INTERVAL")


# ---------------------------------------------------------------------------
# Strong metric dimension


def sdim_sr_formula(sr: StrongResolvingGraph) -> ParameterResult:
    """sdim = |boundary| - alpha(strong resolving graph); exact for any graph."""
    alpha = independence_number(sr.rows, sr.boundary_mask)
    return _exact(sr.order - alpha, "SDIM_PARTALPHA", method=METHOD_SR_FORMULA)


def sdim_even_fast(prof: PseudotreeProfile) -> ParameterResult:
    """Even-girth fast path: l + r - 1 when an antipodal root pair exists, else l + r."""
    value = prof.num_leaves + prof.antipodal_pairs(prof.trivial_vertices)
    if prof.antipodal_pairs(prof.root_vertices):
        value -= 1
    return _exact(value, "SDIM_EVEN_EXACT")


def sdim_closed(g: Graph) -> ParameterResult:
    prof = kept(g, profile)
    kind = prof.kind
    if kind is FamilyKind.PATH:
        return _exact(1, "SDIM_PATH", witness=(prof.leaves[0],))
    if kind is FamilyKind.TREE:
        return _exact(prof.num_leaves - 1, "SDIM_TREE", witness=prof.leaves[:-1])
    if kind is FamilyKind.CYCLE:
        half = (prof.girth + 1) // 2
        return _exact(half, "SDIM_CYCLE", witness=tuple(sorted(prof.cycle[:half])))
    if prof.girth % 2 == 0:
        # the tests check the SR route against this formula, so no SR graph here
        return sdim_even_fast(prof)
    return sdim_sr_formula(kept(g, boundary_and_sr_graph))


# ---------------------------------------------------------------------------
# Dominating metric dimension


def ddim_closed(g: Graph) -> ParameterResult:
    prof = kept(g, profile)
    kind = prof.kind
    if kind is FamilyKind.CYCLE:
        gamma_c = (prof.girth + 2) // 3
        if prof.girth not in (3, 4, 6):
            return _exact(gamma_c, "DDIM_CYCLE")
        return _interval(gamma_c, gamma_c + 1, "DDIM_G346_INTERVAL")
    base = domination_number(g) + prof.num_leaves - prof.num_supports
    if kind.is_tree:
        return _exact(base, "DDIM_TREE")
    if prof.girth not in (3, 4, 6):
        return _exact(base, "DDIM_G_NOT_346")
    return _interval(base, base + 1, "DDIM_G346_INTERVAL")


# ---------------------------------------------------------------------------
# Fault-tolerant (2-metric) dimension


def dim2_closed(g: Graph) -> ParameterResult:
    prof = kept(g, profile)
    kind = prof.kind
    if kind is FamilyKind.PATH:
        return _exact(2, "DIM2_PATH", witness=prof.leaves)
    if kind is FamilyKind.CYCLE:
        if prof.girth == 4:
            # every pair of antipodal vertices is its own sole resolver set
            return _exact(4, "DIM2_CYCLE")
        return _exact(3, "DIM2_CYCLE")
    if kind is FamilyKind.TREE:
        return _exact(prof.num_strong_leaves, "DIM2_TREE", witness=prof.strong_leaves)
    return _interval(3, prof.n, "DIM2_UNIC_BOUNDS")


# ---------------------------------------------------------------------------
# k-metric dimension


def _i_r(ter: int, low: int, r: int) -> int:
    if low <= r // 2:
        return (ter - 1) * (r - low) + low
    return (ter - 1) * ((r + 1) // 2) + r // 2


def dimk_closed(g: Graph, k: int) -> ParameterResult:
    """k-metric dimension, for 2 <= k <= the k-dimensional value, the
    range closed_result checks."""
    prof = kept(g, profile)
    kind = prof.kind
    if kind is FamilyKind.PATH:
        # k = 2 is the fault-tolerant case: both ends already resolve every pair twice
        return _exact(2 if k == 2 else k + 1, "DIMK_PATH")
    if kind is FamilyKind.CYCLE:
        n = prof.girth
        if n % 2 == 0 and n // 2 <= k <= n - 2:
            return _exact(k + 2, "DIMK_CYCLE")
        return _exact(k + 1, "DIMK_CYCLE")
    if kind is FamilyKind.TREE:
        total = 0
        for w in prof.strong_exterior_major:
            dists = sorted([prof.leg_lengths[u] for u in prof.terminal_map[w]])
            total += _i_r(len(dists), dists[0], k)
        return _exact(total, "DIMK_TREE")
    return _interval(k + 1, prof.n, "DIMK_UNIC_BOUNDS")


# ---------------------------------------------------------------------------
# Edge metric dimension


def edim_closed(g: Graph) -> ParameterResult:
    prof = kept(g, profile)
    kind = prof.kind
    if kind is FamilyKind.PATH:
        return _exact(1, "EDIM_PATH", witness=(prof.leaves[0],))
    if kind is FamilyKind.TREE:
        return _exact(
            prof.num_leaves - prof.num_exterior_major, "EDIM_TREE", witness=_tree_metric_basis(prof)
        )
    if kind is FamilyKind.CYCLE:
        return _exact(2, "EDIM_CYCLE", witness=(prof.cycle[0], prof.cycle[1]))
    rho_hat = _rho_hat(prof)
    base = prof.num_leaves - prof.num_exterior_major + rho_hat
    lo, hi = base, base + 1
    dim_value = dim_closed(g).value
    if dim_value is not None:
        # |dim - edim| <= 1, dim <= edim for odd girth, dim >= edim for even
        if prof.girth % 2 == 1:
            lo, hi = max(lo, dim_value), min(hi, dim_value + 1)
        else:
            lo, hi = max(lo, dim_value - 1), min(hi, dim_value)
        if lo > hi:
            raise RuntimeError(f"edim interval emptied by dim={dim_value} on girth {prof.girth}")
        if lo == hi:
            return _exact(lo, "EDIM_UNIC_PINNED")
    return _interval(lo, hi, "EDIM_UNIC_INTERVAL")


# ---------------------------------------------------------------------------
# Mixed metric dimension


def mdim_closed(g: Graph) -> ParameterResult:
    prof = kept(g, profile)
    kind = prof.kind
    if kind is FamilyKind.PATH:
        return _exact(2, "MDIM_PATH", witness=prof.leaves)
    if kind is FamilyKind.TREE:
        return _exact(prof.num_leaves, "MDIM_TREE", witness=prof.leaves)
    if kind is FamilyKind.CYCLE:
        return _exact(3, "MDIM_CYCLE")
    t = prof.c3
    # a geodesic triple of roots at either parity
    eps = 1 if t >= 3 and not prof.has_geodesic_triple(prof.root_vertices) else 0
    return _exact(prof.num_leaves + max(3 - t, 0) + eps, "MDIM_UNIC")


# ---------------------------------------------------------------------------
# Local metric dimension


def ldim_closed(g: Graph) -> ParameterResult:
    prof = kept(g, profile)
    if prof.kind.is_tree:
        return _exact(1, "LDIM_BIPARTITE", witness=(0,))
    if prof.girth % 2 == 0:  # a unicyclic graph is bipartite iff its girth is even
        return _exact(1, "LDIM_PARITY", witness=(0,))
    return _exact(2, "LDIM_PARITY", witness=(prof.cycle[0], prof.cycle[1]))


# ---------------------------------------------------------------------------
# Umbrella dispatch


# the closed form of each parameter but dimk, which also takes its k
_CLOSED_FORMS = {
    "dmd": dmd_closed,
    "dim": dim_closed,
    "sdim": sdim_closed,
    "ddim": ddim_closed,
    "dim2": dim2_closed,
    "edim": edim_closed,
    "mdim": mdim_closed,
    "ldim": ldim_closed,
}


def closed_result(g: Graph, param: str, k: int | None = None) -> ParameterResult:
    """Closed-form (or certified-interval) result; never calls the oracle.

    Only dimk at k >= 3 on a twin-free graph reads the distance matrix,
    through the oracle's vertex-pair masks that its k-range rule counts.
    The profile, and the SR graph of odd-girth sdim, are read off the leaf
    stripping.
    """
    check_k(param, k)
    check_k_range(g, param, k)  # a single vertex has no pair: no dim2 or dimk
    if g.n == 1:
        return _exact(1, "SINGLETON", witness=(0,))
    return dimk_closed(g, k) if param == "dimk" else _CLOSED_FORMS[param](g)


def oracle_result(g: Graph, param: str, k: int | None = None) -> ParameterResult:
    """Exact-search ground truth for the same parameter."""
    return brute_force_dimension(g, param, k=k)


def compute_parameter(g: Graph, param: str, k: int | None = None, method: str = "auto") -> ParameterResult:
    """CLI-facing dispatch: closed forms, oracle, or closed-with-oracle-upgrade.
    Under every method a graph that is no pseudotree raises NotPseudotree,
    by the rule of graph.check_pseudotree that both routes apply."""
    if method not in ("auto", "closed", "brute"):
        raise ValueError(f"unknown method {method!r}")
    if method == "brute":
        return oracle_result(g, param, k=k)
    # the oracle reuses what the closed form kept on the graph
    result = closed_result(g, param, k=k)
    if method == "closed" or result.is_exact:
        return result
    try:
        return oracle_result(g, param, k=k)
    except SizeCapExceeded:
        return result
