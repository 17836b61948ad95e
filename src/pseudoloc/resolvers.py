"""The nine location parameters as cover problems, and the exact oracle.

The oracle takes the parameter names the closed forms, the CLI and the
reports use (PARAMETER_NAMES), with a k for dimk only.  check_name holds
the one unknown-name rule (ValueError) and check_k the one k rule
(KOutOfRange); every entry point applies them.  check_k_range holds the one
k-range rule (KOutOfRange), which the closed forms and the oracle apply.

Every parameter is a cover problem over vertex bitmasks: a set locates iff
it meets each constraint mask of the graph at least `need` times (one mask
per pair it must tell apart, plus the closed neighbourhoods for ddim and
each vertex's complement for dmd); dim2 is the dimk problem at k = 2.
`cover_problem` builds them from the packed distance rows, one bit per
big-endian byte (_NONZERO, _STRONG, _OFF_LEVEL), read by int(..., 2); each
vertex pair is gathered once, for dim, sdim and dmd alike (_pair_diffs).
What several parameters share is kept on the graph (graph.kept), so each
is built once per graph.
The oracle, the ground truth every closed form is verified against, solves
that problem with one exact search, `lex_first_cover`, which the tests also
check the domination number against.

Witness contract: the oracle's witness is the lexicographically first
locating set of minimum size, the set that enumerating subsets by increasing
size in `itertools.combinations` order would find first.  The tests keep
that direct enumerator, with the definitional resolving predicates it tests
each set by, as the reference; the oracle shares no code with it.

`lex_first_cover` keeps that one contract with two solvers.  Up to
LATTICE_MAX_N vertices, the measured crossover, it evaluates all 2**n subsets
at once, one bit each of a Python integer (broadword evaluation, Knuth,
TAOCP 4A, 7.1.3); above it a depth-first search runs.  For every `need`, a
subset meets a mask `need` times iff, for some i, it meets the mask's low
half i times and its high half need - i times: per-half table lookups.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations

from .errors import KOutOfRange, SizeCapExceeded
from .graph import Graph, check_pseudotree, closed_neighbourhoods, distance_matrix, kept, pack_row, size_cap

ORACLE_CAP = 16

METHOD_CLOSED_FORM = "closed_form"
METHOD_BOUNDED = "bounded_by_theorem"
METHOD_BRUTE_FORCE = "brute_force"
METHOD_SR_FORMULA = "sr_graph_formula"

TAG_BRUTE_FORCE = "BRUTE_FORCE"

# the nine parameters, in report order; dimk takes a k, every other name none
PARAMETER_NAMES = ("dmd", "dim", "sdim", "ddim", "dim2", "dimk", "edim", "mdim", "ldim")


def check_name(param: str) -> None:
    """The one unknown-name rule: a parameter is one of PARAMETER_NAMES."""
    if param not in PARAMETER_NAMES:
        raise ValueError(f"unknown parameter {param!r}")


def check_k(param: str, k) -> None:
    """The one k rule, after the name rule: dimk needs an integer k >= 2,
    and no other parameter takes a k."""
    check_name(param)
    if param != "dimk":
        if k is not None:
            raise KOutOfRange(f"{param} takes no k, got k={k}")
    elif k is None:
        raise KOutOfRange("dimk requires k")
    elif not isinstance(k, int) or k < 2:
        raise KOutOfRange(f"k must be an integer >= 2, got {k}")


def check_k_range(g: Graph, param: str, k) -> None:
    """The one k-range rule, after check_k: a k-locating set exists iff k is
    at most the k-dimensional value.  Every pair is resolved by its own two
    ends, so dim2 and dimk at k = 2 read no value on two or more vertices."""
    need = 2 if param == "dim2" else k
    if need is not None and (need > 2 or g.n < 2):
        kmax = kept(g, k_dimensional_value)
        if need > kmax:
            raise KOutOfRange(f"no {need}-locating set exists (k-dimensional value {kmax})")


def parameter_label(param: str, k: int | None = None) -> str:
    """How reports and messages name a parameter: dimk with its k, as dimk[3]."""
    return f"dimk[{k}]" if param == "dimk" else param


@dataclass(frozen=True, slots=True, init=False)
class ParameterResult:
    """Exact value or certified interval, with provenance.  `__init__`
    validates on every build, `dataclasses.replace` included, then fills the
    frozen slots, with no `__post_init__` round trip."""

    value: int | None = None
    bounds: tuple[int, int] | None = None
    witness: tuple[int, ...] | None = None
    method: str = METHOD_CLOSED_FORM
    theorem_tag: str | None = None

    def __init__(self, value=None, bounds=None, witness=None, method=METHOD_CLOSED_FORM, theorem_tag=None):
        if (value is None) == (bounds is None):
            raise ValueError("exactly one of value/bounds must be set")
        if bounds is not None and bounds[0] > bounds[1]:
            raise ValueError(f"empty interval {bounds}")
        fill = object.__setattr__
        fill(self, "value", value)
        fill(self, "bounds", bounds)
        fill(self, "witness", witness)
        fill(self, "method", method)
        fill(self, "theorem_tag", theorem_tag)

    @property
    def is_exact(self) -> bool:
        return self.value is not None

    @property
    def lo(self) -> int:
        return self.value if self.value is not None else self.bounds[0]

    @property
    def hi(self) -> int:
        return self.value if self.value is not None else self.bounds[1]

    def contains(self, v: int) -> bool:
        return self.lo <= v <= self.hi

    def to_json(self) -> dict:
        out: dict = {"value": self.value if self.is_exact else [self.lo, self.hi]}
        if self.witness is not None:
            out["witness"] = list(self.witness)
        out["method"] = self.method
        out["theorem_tag"] = self.theorem_tag
        return out


# byte value -> ASCII "0" or "1", to gather one bit per field of a packed row:
# "1" if nonzero; for each value, at every other value; for each d, at 63 +- d
_NONZERO = b"0" + b"1" * 255
_OFF_LEVEL = [b"1" * b + b"0" + b"1" * (255 - b) for b in range(128)]
_STRONG = {d: b"0" * (63 - d) + b"1" + b"0" * (2 * d - 1) + b"1" + b"0" * (192 - d) for d in range(1, 64)}


def _masks(n: int, diffs: list[int]) -> tuple[int, ...]:
    """For each packed row difference, the mask of its nonzero fields."""
    return tuple([int(d.to_bytes(n, "big").translate(_NONZERO), 2) for d in diffs])


def _pair_diffs(g: Graph) -> tuple[bytes, ...]:
    """For each vertex pair x < y in lexicographic order, the packed
    row_x + 63 * ONES - row_y as big-endian bytes: byte n - 1 - w holds field
    w, d(x, w) - d(y, w) + 63, in 0..126 since no distance passes 63 at the
    graph cap, so no field borrows.  The fields other than 63 resolve x and
    y, and field y is 63 + d(x, y)."""
    rows, n = kept(g, distance_matrix), g.n
    offset = pack_row([63] * n)
    return tuple([(rx + offset - ry).to_bytes(n, "big") for x, rx in enumerate(rows) for ry in rows[x + 1 :]])


def _vertex_pairs(g: Graph) -> tuple[int, ...]:
    """Resolvers of each vertex pair x < y, in lexicographic pair order."""
    return tuple([int(t.translate(_OFF_LEVEL[63]), 2) for t in kept(g, _pair_diffs)])


def _edge_rows(g: Graph) -> tuple[int, ...]:
    """Packed distances to each edge, in edge order: the fieldwise minimum
    of its endpoint rows.  Adjacent rows differ by at most 1 per field, so
    bit 1 of each field of row_u + ONES - row_v marks where row_u is larger."""
    packed = kept(g, distance_matrix)
    ones = pack_row([1] * g.n)
    return tuple([packed[u] - ((packed[u] + ones - packed[v]) >> 1 & ones) for u, v in g.edges])


def _edge_pairs(g: Graph) -> tuple[int, ...]:
    rows = kept(g, _edge_rows)
    return _masks(g.n, [ei ^ ej for i, ei in enumerate(rows) for ej in rows[i + 1 :]])


def cover_problem(g: Graph, param: str, k: int | None = None) -> tuple[tuple[int, ...], int]:
    """(masks, need) of the cover problem for param: a set locates iff it
    meets every mask at least `need` times; dim2 is the dimk problem at k = 2.

    The vertex-pair masks (dim, dim2, dimk, ddim with the closed
    neighbourhoods, mdim), the edge rows and the edge-pair masks (edim,
    mdim) are kept on the graph, so every parameter of one graph reads the
    same ones, tuples that no caller can change.  A vertex-pair mask gathers
    the fields of the kept pair gather other than 63, an edge-pair mask the
    nonzero fields of two XORed packed rows.
    """
    check_k(param, k)
    need = 2 if param == "dim2" else k or 1
    if param in ("dim", "dim2", "dimk"):
        masks = kept(g, _vertex_pairs)
    elif param == "ddim":
        masks = kept(g, _vertex_pairs) + tuple(closed_neighbourhoods(g))
    elif param == "ldim":
        # m gathers: cheaper than all n(n-1)/2 pairs when ldim runs alone
        packed = kept(g, distance_matrix)
        masks = _masks(g.n, [packed[x] ^ packed[y] for x, y in g.edges])
    elif param == "edim":
        masks = kept(g, _edge_pairs)
    elif param == "mdim":
        edge_rows = kept(g, _edge_rows)
        to_edges = _masks(g.n, [px ^ e for px in kept(g, distance_matrix) for e in edge_rows])
        masks = kept(g, _vertex_pairs) + to_edges + kept(g, _edge_pairs)
    elif param == "sdim":
        # w strongly resolves x and y iff d(x, w) = d(y, w) +- d(x, y), iff
        # its field is 63 +- d(x, y)
        pairs = zip(combinations(range(g.n), 2), kept(g, _pair_diffs))
        masks = tuple([int(t.translate(_STRONG[t[g.n - 1 - y] - 63]), 2) for (_, y), t in pairs])
    else:
        # a level is the vertices v of one d(x, v) - d(y, v), one byte value; two
        # or more vertices fail the pair iff they sit inside one level, so a set
        # meets the complement of each level of two or more; one vertex doubly
        # resolves no pair, so a set also meets the complement of each vertex
        full = (1 << g.n) - 1
        masks = tuple([
            int(t.translate(_OFF_LEVEL[b]), 2)
            for t in kept(g, _pair_diffs)
            for b in set(t)  # each level once
            if t.count(b) >= 2
        ] + ([full ^ 1 << v for v in range(g.n)] if g.n >= 2 else []))
    return masks, need


# Orders up to this one are solved on the subset lattice, above it by the DFS.
# The lattice pays O(2**n) bits per mask, the DFS some microseconds per search
# node.  Per-call means over 16-32 random pseudotrees per order and parameter,
# six runs on three seed sets: up to 15 the lattice was faster for every
# parameter in every run (at 15 by 1.1x at least); at 16 it lost one in
# one run, at 17 four.  Its tables for n = 15 take about 1.5 ms, once per
# process, and 1.8 MB, most of it level 1 of the lattice's levels: (2**7 + 2**8)
# entries of 2**15 bits, about 1.5 MB.  `need` = k builds levels 1..k, each
# smaller than the last, up to 8 at n = 15, the larger half's size; CI's
# largest k, 14 on the path of order 15 in the path verify step, builds
# those 8 levels: 6.5 MB in all, kept for the process, in about 5 ms.
LATTICE_MAX_N = 15


def _minimal_masks(masks) -> list[int]:
    """The distinct masks with no proper subset among them, fewest bits first:
    meeting a kept subset of m often enough meets m."""
    cons: list[int] = []
    for m in sorted(set(masks), key=int.bit_count):
        if all(c & ~m for c in cons):
            cons.append(m)
    return cons


def _at_least(rows: tuple[int, ...], fewer) -> tuple[int, ...]:
    """table[x]: the codes in at least i of the rows[t] over the bits t of x,
    given fewer, the same table at i - 1.  Adding bit t to x adds the codes
    in rows[t] that were in i - 1 of x's rows."""
    table = [0]
    for row in rows:
        table += [t | f & row for t, f in zip(table, fewer)]
    return tuple(table)


@cache
def _subset_lattice(n: int) -> tuple[tuple[int, ...], tuple[int, ...], int, list]:
    """Tables over the 2**n subsets of vertices 0..n-1, one bit of an integer
    each.  Subset code p holds vertex v iff bit n-1-v of p is set: vertex 0 is
    the most significant bit, so of the sets of one size the lexicographically
    first has the highest code.

    Returns (contains, members, half, levels): bit p of contains[v] is set iff
    p holds v, and of members[k] iff p has k members.  A mask m splits at half
    into its low vertices 0..half-1 and its high vertices half..n-1.
    levels[i] is (low, high): the codes holding at least i vertices of m's
    low half, low[m & (2**half - 1)], and of its high half, high[m >> half].
    Level 0, every code, is built here; _lattice_rule appends the others.
    """
    contains = []
    for v in range(n):
        run = 1 << (n - 1 - v)  # runs of `run` codes without v, then `run` with it
        row, width = ((1 << run) - 1) << run, 2 * run
        while width < 1 << n:
            row |= row << width
            width *= 2
        contains.append(row)
    members = [1]
    for j in range(n):  # codes below 2**(j+1): those below 2**j, and those plus 2**j
        members = [
            (members[k] if k <= j else 0) | (members[k - 1] << (1 << j) if k else 0)
            for k in range(j + 2)
        ]
    every = [(1 << (1 << n)) - 1] * (1 << (n - n // 2))
    return tuple(contains), tuple(members), n // 2, [(every, every)]


@cache
def _lattice_rule(n: int, need: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple]:
    """(low_need, high_need, between) for _lattice_cover: the level tables at
    need on each half, and the (low level i, high level need - i) pairs for
    0 < i < need.  Each level is built on first use and shared by every need
    at n.  Neither half has more than top vertices, so a level above top is
    all zeros and is not built; a need below 1 is met by every code."""
    contains, _, half, levels = _subset_lattice(n)
    top = n - half
    while len(levels) <= min(need, top):
        fewer = levels[-1]
        levels.append((_at_least(contains[:half], fewer[0]), _at_least(contains[half:], fewer[1])))
    low_need, high_need = levels[max(need, 0)] if need <= top else ((0,) * (1 << top),) * 2
    return low_need, high_need, tuple(
        (levels[i][0], levels[need - i][1]) for i in range(max(1, need - top), min(need - 1, top) + 1)
    )


def _lattice_cover(n: int, masks, need: int) -> tuple[int, ...] | None:
    """lex_first_cover on the subset lattice: the codes meeting every mask at
    least `need` times, then the highest code of the smallest nonzero size.
    A code meets mask c at least `need` times iff for some i = 0..need it
    holds at least i of c's low half and need - i of its high half."""
    _, members, half, _ = _subset_lattice(n)
    low_need, high_need, between = _lattice_rule(n, need)
    feasible = (1 << (1 << n)) - 1
    low = (1 << half) - 1
    for c in set(masks):
        a, b = c & low, c >> half
        meets = low_need[a] | high_need[b]  # i = need and i = 0
        for low_i, high_rest in between:
            meets |= low_i[a] & high_rest[b]
        feasible &= meets
    for size in range(1, n + 1):
        hits = feasible & members[size]
        if hits:
            code, witness = hits.bit_length() - 1, []
            while code:  # its top bit is the smallest vertex left
                witness.append(n - code.bit_length())
                code ^= 1 << code.bit_length() - 1
            return tuple(witness)
    return None


def _cover_search(
    n: int, need: int, clashes: dict[int, int], start: int, chosen: int, open_: list[int], budget: int
) -> int | None:
    """The first set, as a bitmask, that adds `budget` vertices from `start`
    on to `chosen` and meets every open mask `need` times, or None: one
    branch of lex_first_cover's depth-first search."""
    if not open_:
        return chosen | (((1 << budget) - 1) << start) if start + budget <= n else None
    allowed = -1 << start
    top = n - budget  # the last first pick that leaves room for the others
    rows = []
    for c in open_:
        cand = c & allowed
        deficit = need - (c & chosen).bit_count()
        slack = cand.bit_count() - deficit
        if deficit > budget or slack < 0:
            return None
        top = min(top, cand.bit_length() - 1)  # picks only grow: c needs one by here
        rows.append((slack, clashes[c], cand, deficit))
    rows.sort()
    used = packed = 0
    for _, _, cand, deficit in rows:
        if not cand & used:  # pairwise disjoint masks need separate picks
            used |= cand
            packed += deficit
    if packed > budget:
        return None
    picks = allowed & ((2 << top) - 1)
    while picks:
        b = picks & -picks
        picks ^= b
        # a skipped smaller vertex that lies in every open mask holding b
        # could replace b: a lexicographically smaller set of the same size
        inside = -1
        for c in open_:
            if c & b:
                inside &= c
        if inside & (b - 1) & ~chosen:
            continue
        hit = chosen | b
        still_open = [c for c in open_ if (c & hit).bit_count() < need]
        found = _cover_search(n, need, clashes, b.bit_length(), hit, still_open, budget - 1)
        if found is not None:
            return found
    return None


def lex_first_cover(n: int, masks, need: int = 1) -> tuple[int, ...] | None:
    """The lexicographically first of the smallest nonempty sets S of
    vertices 0..n-1 with |S & m| >= need for every mask m; None if none exists.

    Two solvers give that one answer.  Up to LATTICE_MAX_N vertices every
    subset is evaluated at once, as one bit of a 2**n-bit integer
    (_lattice_cover).  Above it a DFS deepens over |S| from 1; a size
    below the disjoint-packing bound fails at the root.  At each size the DFS
    adds vertices in increasing order and cuts only branches that hold no
    solution or only solutions that a lexicographically smaller set of the
    same size beats, so the first set it meets is the one
    itertools.combinations would meet first.  It recurses through a module
    function, not a closure that refers to itself, so a call leaves no
    reference cycle to collect.
    """
    if n <= LATTICE_MAX_N:
        return _lattice_cover(n, masks, need)
    cons = _minimal_masks(masks) if need > 0 else []  # a need below 1 is met by every set
    if cons and cons[0].bit_count() < need:
        return None
    # the packing takes tight masks first, and of those the ones that meet fewest others
    clashes = {c: sum(1 for d in cons if c & d) for c in cons}
    for size in range(1, n + 1):
        found = _cover_search(n, need, clashes, 0, 0, cons, size)
        if found is not None:
            return tuple(v for v in range(n) if found >> v & 1)
    return None


def is_locating_set(g: Graph, s, param: str, k: int | None = None) -> bool:
    """Whether s locates for the parameter: the exact set predicate."""
    members = sorted(set(s))
    if not members:
        raise ValueError("locating set must be nonempty")
    if any(not 0 <= v < g.n for v in members):
        raise ValueError("locating set contains out-of-range vertices")
    constraints, need = cover_problem(g, param, k)
    mask = 0
    for v in members:
        mask |= 1 << v
    return all((c & mask).bit_count() >= need for c in constraints)


def brute_force_dimension(g: Graph, param: str, k: int | None = None) -> ParameterResult:
    """Minimum locating-set size by exact search, with a reproducible witness:
    the lexicographically first locating set of that size (lex_first_cover).

    The rules go in order: a pseudotree (NotPseudotree), the name and k
    (check_k), k within the k-dimensional value (check_k_range), then the
    oracle cap, ORACLE_CAP or its PSEUDOLOC_MAX_N override (SizeCapExceeded).
    The distances, the shared masks and the k-dimensional value are kept on
    the graph, for every parameter and for the closed forms.
    """
    check_pseudotree(g)
    check_k(param, k)
    check_k_range(g, param, k)
    cap = size_cap(ORACLE_CAP)
    if g.n > cap:
        raise SizeCapExceeded(f"n={g.n} exceeds oracle cap {cap} for {parameter_label(param, k)}")
    witness = lex_first_cover(g.n, *cover_problem(g, param, k))
    if witness is None:
        raise RuntimeError(f"no locating set found for {parameter_label(param, k)} (unreachable)")
    return ParameterResult(
        value=len(witness),
        witness=witness,
        method=METHOD_BRUTE_FORCE,
        theorem_tag=TAG_BRUTE_FORCE,
    )


def k_dimensional_value(g: Graph) -> int:
    """Largest k admitting a k-locating set of a pseudotree: the fewest
    resolvers of any vertex pair, 0 on a single vertex, which has no pair.

    Every pair is resolved by its own two ends, and by no other vertex iff
    the two are twins (equal open or equal closed neighbourhoods), so a
    graph with twins has value 2, read off the adjacency.  A twin-free graph
    counts the bits of the oracle's vertex-pair masks, kept on the graph for
    dim, dim2, dimk, ddim and mdim.  Raises NotPseudotree when m > n, before
    the twin test.
    """
    check_pseudotree(g)
    n = g.n
    if n < 2:
        return 0  # no vertex pair, so no k
    if len(set(g.adjacency)) < n or len(set(closed_neighbourhoods(g))) < n:
        return 2
    return min(map(int.bit_count, kept(g, _vertex_pairs)))
