"""Exhaustive backtracking over hexagon and prism placements.

Branching rule: at each node pick the unmet edge whose endpoints have the
least remaining degree, ties lexicographic, and branch over every block of
the allowed shapes through that edge whose edges are still available.
Candidate generation emits every qualifying block exactly once, so an
exhausted run is a complete-enumeration certificate.  Each child is counted
and cut before it is placed, so nodes counts every child the cuts examined,
placed or not.  Every child is judged one way: per node and shape, from its
parent's state and its block's six vertices, by forward checking (Haralick
and Elliott, Artif. Intell. 14, 1980), as SAT propagation looks only at what
an assignment changes (Moskewicz et al., Chaff, DAC 2001), and each run of
children cut for one reason is counted at once.  Runs are deterministic:
identical inputs give identical statistics and designs, and the reported
design is the one on the first branch, in generation order, that completes,
collected block by block as the search unwinds from it.

The engine state is plain ints and lists, as in a bitset exact cover
(Knuth, Dancing Links, arXiv cs/0011047): an int mask of unmet edges and an
int neighbour mask per vertex, over dense indices in sorted-label order, so
walking mask bits upwards visits labels in ascending order.  Candidate
vertex tuples are generated lazily and only survivors get edge ids and a
mask, so node_budget bounds time as well as nodes; in covering mode the
blocks through each branch edge are listed once and judged per node in bulk.

Different block orders reach the same placed state, whose subtree depends on
the state alone, so a state met again after its subtree exhausted adds what
that subtree counted instead of being placed and expanded, as component
caching in model counting (Sang et al., SAT 2004) and transposition tables in
game-tree search reuse a solved subproblem; counts stay those of the full tree.

That holds whoever counted the subtree, so a long run takes a helper process
under the Young Brothers Wait rule of parallel game-tree search (Feldmann,
Monien, Mysliwietz and Vornberger, ICCA J. 12(2), 1989): only after one child
of a node has exhausted are its younger children exhausted in parallel.  The
calling process kills the helper once its own claiming stops, and the ordinary
in-order loop then replays the counts the helper left in a shared table, so
every count, design and budget stop is that of the sequential run.
"""

from __future__ import annotations

import _signal
import _thread
import itertools
import math
import os
from enum import Enum
from functools import lru_cache, reduce
from operator import and_, or_
from time import perf_counter

from .core import (
    EDGE_POSITIONS,
    Block,
    Complete,
    CompleteBipartite,
    Design,
    Hexagon,
    Host,
    Kind,
    Prism,
    Value,
    host_edges,
    host_vertices,
)
from .feasibility import EXCEPTIONAL_ORDERS, UNBUDGETED_VERTEX_LIMIT, _analytic_eliminations
from .feasibility import block_count_solutions, degree_solutions


class MultigraphHostError(ValueError):
    """The search only accepts simple hosts."""


class InfeasibleBoundError(ValueError):
    """An extremal bound already ruled out by the block-count equation."""


class Status(Enum):
    FOUND = "found"
    EXHAUSTED = "exhausted"
    BUDGET = "budget"


class SearchConfig(Value):
    """Knobs for one search run.

    target_counts pins the exact (hexagons, prisms) block counts; the minima
    only set lower bounds.  A disabled shape caps its count at 0, even under
    target_counts, so a target that asks for a disabled shape, like one
    below a minimum, exhausts at the root.  node_budget bounds nodes, every
    child the cuts examined, placed or not; unbounded, the default, is only
    permitted on hosts with at most UNBUDGETED_VERTEX_LIMIT vertices.
    symmetry_breaking fixes the block covering the smallest edge to one
    canonical placement; on complete and complete bipartite hosts every
    design can be relabeled onto such a placement, so the reduction keeps
    existence answers intact.  degree_prunes turns the per-vertex incidence
    feasibility cuts off, leaving only the plain edge-count arithmetic; runs
    meant to certify exhaustion by raw placement enumeration use that.
    """

    __slots__ = ("hexagons", "prisms", "min_hexagons", "min_prisms", "target_counts",
                 "node_budget", "symmetry_breaking", "degree_prunes")

    def __init__(self, hexagons: bool = True, prisms: bool = True, min_hexagons: int = 0,
                 min_prisms: int = 0, target_counts: tuple[int, int] | None = None,
                 node_budget: int | None = None, symmetry_breaking: bool = False,
                 degree_prunes: bool = True):
        self._assign(hexagons, prisms, min_hexagons, min_prisms, target_counts, node_budget,
                     symmetry_breaking, degree_prunes)
        if node_budget is not None and node_budget < 0:
            raise ValueError(f"node_budget must be non-negative, got {node_budget}")


class SearchStats(Value):
    """nodes counts the root and every child the cuts examined, including
    children cut before placement, which are never built.  placements is
    nodes less one per run, the state the run starts from.  pruned_* count
    nodes cut by the block-count equation, the odd-degree bound and the
    per-vertex degree bound; skipped_padding_budget counts covering
    candidates that would overspend the padding budget.  elapsed_s is wall
    time in the engine, in the calling process, without leave-class
    enumeration.  A packing's runs, one per leave class, add up: max_depth
    is the deepest, the rest sum.  All count the full tree, as a repeat of
    an exhausted state adds what its first expansion counted.  They change
    in place, so stats are neither frozen nor hashable."""

    __slots__ = ("nodes", "placements", "max_depth", "pruned_block_count", "pruned_odd_degree",
                 "pruned_vertex_degree", "skipped_padding_budget", "elapsed_s")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, nodes: int = 0, placements: int = 0, max_depth: int = 0,
                 pruned_block_count: int = 0, pruned_odd_degree: int = 0,
                 pruned_vertex_degree: int = 0, skipped_padding_budget: int = 0,
                 elapsed_s: float = 0.0):
        self._assign(nodes, placements, max_depth, pruned_block_count, pruned_odd_degree,
                     pruned_vertex_degree, skipped_padding_budget, elapsed_s)


class SearchOutcome(Value):
    __slots__ = ("status", "design", "stats")

    def __init__(self, status: Status, design: Design | None, stats: SearchStats):
        self._assign(status, design, stats)


# ---------------------------------------------------------------------------
# candidate enumeration

@lru_cache(maxsize=1 << 14)
def _bits(m: int) -> tuple[int, ...]:
    """Indices of the set bits of a vertex mask, ascending."""
    return tuple(i for i in range(m.bit_length()) if m >> i & 1)


def _index(edges):
    """Vertex labels in sorted order, their dense indices, a neighbour mask
    per index and an edge-id table (-1 off the edges) for a sorted simple
    edge list."""
    labels = sorted({x for e in edges for x in e})
    idx = {x: i for i, x in enumerate(labels)}
    nbr = [0] * len(labels)
    eid = [[-1] * len(labels) for _ in labels]
    for i, (a, b) in enumerate(edges):
        a, b = idx[a], idx[b]
        nbr[a] |= 1 << b
        nbr[b] |= 1 << a
        eid[a][b] = eid[b][a] = i
    return labels, idx, nbr, eid


# the counters a repeat of an exhausted state replays, and the most it keeps
_REPLAYED = ("nodes", "pruned_block_count", "pruned_odd_degree", "pruned_vertex_degree",
             "skipped_padding_budget")
_REPLAY_CAP = 1 << 15
# the nodes a run counts before a node may share its later children with a helper
_HELP_AFTER = 2000
_TAKEN, _IN_SLOT = 1, 2  # a child's byte in the helper's table once claimed, once in its slot
_WORD = 8  # bytes of each count in a slot, which holds an entry of exhausted
_SLOT = (len(_REPLAYED) + 1) * _WORD

_BIT = (1).__lshift__  # i -> 1 << i
_ODD = (1).__and__  # d -> d & 1


def _candidate(shape, vs, eid):
    ids = tuple([eid[vs[i]][vs[j]] for i, j in EDGE_POSITIONS[shape]])
    return shape, vs, ids, sum(map(_BIT, ids))


def _at_least(cols, top: int, most: int) -> list:
    """levels[k]: the bits of top set in at least k of the bitsets cols."""
    levels, down = [top] + [0] * most, range(most, 0, -1)
    for col in cols:
        for k in down:
            levels[k] |= levels[k - 1] & col
    return levels


def _block(shape, vs, labels) -> Block:
    vs = tuple(labels[v] for v in vs)
    return Hexagon(vs) if shape is Hexagon else Prism(vs[:3], vs[3:])


def _hexagons(nbr: list, u: int, v: int, ok: int, need: int):
    """Walk the hexagons (u, v, a, b, c, d) through edge (u, v) inside the
    neighbour masks, each vertex ascending, and yield (skipped, vs) for each
    whose vertices lie in the vertex mask ok and cover the mask need, then
    (skipped, None); skipped counts, by int.bit_count, those passed over since
    the last yield.  The caller must restore any mask it changes to resume."""
    skipped, bu, bv, every = 0, 1 << u, 1 << v, (1 << len(nbr)) - 1
    for a in _bits(nbr[v] & ~bu):
        prefix = bu | bv | 1 << a
        if (prefix | need) & ~ok or (need & ~prefix).bit_count() > 3:
            # count per c the (b, d) with b in N(c) & x, d in N(c) & y and b != d
            x, y = nbr[a] & ~(bu | bv), nbr[u] & ~(bv | 1 << a)
            for nc in map(nbr.__getitem__, _bits(every & ~prefix)):
                skipped += (nc & x).bit_count() * (nc & y).bit_count() - (nc & x & y).bit_count()
            continue
        for b in _bits(nbr[a] & ~(bu | bv)):
            prefix = bu | bv | 1 << a | 1 << b
            for c in _bits(nbr[b] & ~prefix):
                ds, rest = nbr[c] & nbr[u] & ~prefix, need & ~(full := prefix | 1 << c)
                keep = ds & ok & (rest or -1) if not (full & ~ok or rest & rest - 1) else 0
                while keep:  # the survivors, ascending; ds drops each d it passes
                    d = (keep & -keep).bit_length() - 1
                    yield skipped + (ds & (1 << d) - 1).bit_count(), (u, v, a, b, c, d)
                    skipped, ds, keep = 0, ds >> d + 1 << d + 1, keep & keep - 1
                skipped += ds.bit_count()
    yield skipped, None


def _through(shape, nbr: list, u: int, v: int):
    """Yield the vertex indices of every block of the shape through edge
    (u, v) inside the neighbour masks, exactly once, read as _hexagons reads
    them: its hexagons, none excluded, or the prisms with (u, v) in a
    triangle, [u, v, c; d, e2, f] with rung partners in matching order, then
    as a rung, [u, b, c; v, e2, f] with b < c, each vertex ascending."""
    bu, bv = 1 << u, 1 << v
    if shape is Hexagon:
        yield from (vs for _, vs in _hexagons(nbr, u, v, -1, 0) if vs)
        return
    for c in _bits(nbr[u] & nbr[v]):
        for d in _bits(nbr[u] & ~(bv | 1 << c)):
            for e2 in _bits(nbr[v] & nbr[d] & ~(bu | 1 << c)):
                for f in _bits(nbr[c] & nbr[d] & nbr[e2] & ~(bu | bv)):
                    yield u, v, c, d, e2, f
    for b in _bits(nbr[u] & ~bv):
        for c in _bits(nbr[u] & nbr[b] & ~((2 << b) - 1 | bv)):
            for e2 in _bits(nbr[v] & nbr[b] & ~(bu | 1 << c)):
                for f in _bits(nbr[v] & nbr[c] & nbr[e2] & ~(bu | 1 << b)):
                    yield u, b, c, v, e2, f


# ---------------------------------------------------------------------------
# the engine


def _degree_ok(rd: int, a_max: int, b_max: int, slack: int) -> bool:
    """Can rd unmet edges at a vertex be met by at most a_max hexagons
    (2 each) and b_max prisms (3 each), overshooting by at most slack?"""
    return any(
        p <= a_max and q <= b_max
        for d in range(rd, rd + slack + 1)
        for p, q in degree_solutions(d)
    )


def _simple_edges(host: Host):
    """The host's edge multiset, or MultigraphHostError if it repeats one."""
    multiset = host_edges(host)
    if any(m > 1 for m in multiset.values()):
        raise MultigraphHostError("host has repeated edges; the search needs a simple host")
    return multiset


def needs_budget(host: Host) -> bool:
    """Whether a search on the host must carry a node_budget."""
    return len(host_vertices(host)) > UNBUDGETED_VERTEX_LIMIT


def _claim(table, n: int):
    """Mark the first unclaimed of the table's n children taken and return its
    index, or None once claiming has stopped or none is left.  A child two
    processes take at once is exhausted twice, which costs time, not counts."""
    i = 0 if table[0] else table.find(b"\0", 1, n + 1)
    if i > 0:
        table[i] = _TAKEN
        return i - 1
    return None


class _Engine:
    """A simple host indexed once, and backtracking runs over it, each from
    the host less a leave, whose edges start met, to the SearchOutcome for a
    design of the kind, in plain ints and lists.  A vertex the leave isolates
    keeps its index at remaining degree 0, where no block reaches.  A run
    reads nothing of the run before it but stats, which adds up, and the
    caches _cuts, memo and exhausted, which only the host and the config fix.

    Bit i of avail is set while edge i is unmet, and nbr[v] has bit w set
    while edge vw is unmet, so the remaining degree of v is
    nbr[v].bit_count(); flips[i] holds the endpoints of edge i and their
    bits.  _node places and lifts each block but run's root; solution
    collects the found design's (candidate, newly met edge mask) pairs as
    the search unwinds, so the edges a block reuses are the bits of
    mask ^ new; Hexagon and Prism objects are built only for it.

    padding_budget > 0 switches to covering mode: blocks may reuse edges
    whose requirement is already met, (mask & ~avail).bit_count() of them,
    spending one unit of budget per reuse.  Candidates are then the blocks
    in the host's full adjacency, which never changes, listed once per
    branch edge in memo, hexagons then prisms.  _fold folds the met edges
    once per node, lws[w] those at w at most once, for both shapes, and
    _judged_covers walks one shape's bits; exact mode walks the live masks.
    Either judge counts each run of children it cuts through _count and
    yields the survivors as (shape, vertex indices), and only those that
    _expand hands _node get edge ids and a mask.

    The config's counts become one range, lo <= (hexagons, prisms) <= hi:
    a target sets hi and raises lo to itself, a disabled shape gets hi = 0,
    and otherwise hi is the edge-use total, which no count can reach.

    exhausted maps each state whose subtree exhausted, keyed by avail
    packed over pad_used, hex_placed and prism_placed (nbr and rd follow from
    avail), to what that subtree added to the _REPLAYED counters, then the
    deepest depth it reached, which a replay raises max_depth to, since a
    helper's subtree was never expanded here.  _node completes a state with
    no unmet edge and replays an entry only if its nodes fit the budget, so
    a budget stop lands where expansion puts it, and keeps no subtree that
    found a design or hit the budget, nor any past _REPLAY_CAP, which
    changes speed, never a count.  Leave-class runs share it, keyed by one
    unmet-edge mask.

    Once a run has counted _HELP_AFTER nodes, a node one of whose children
    has just exhausted calls _share, and becomes the split node if it is
    shallower than every earlier one of the run.  If a helper can run and
    exhausted has room, _share forks one, and each process runs _claimed: it
    claims the split node's later children in order in a shared table and
    exhausts each into its own exhausted, on a copy of stats; the helper
    writes each child's own counts into the child's slot of the table.
    Claiming stops at the first child that does not exhaust, or once no
    entry can be kept; main then kills and reaps the helper, stores each
    finished slot under its child's key and resumes its loop, which replays
    or expands every child as before.
    """

    def __init__(self, host: Host, kind: Kind, cfg: SearchConfig, padding_budget: int = 0):
        self.host, self.kind, self.cfg = host, kind, cfg
        self.pad_budget = padding_budget
        self.order = sorted(_simple_edges(host))
        cap = len(self.order) + padding_budget
        hi = cfg.target_counts or (cap, cap)
        self.lo = tuple(map(max, (cfg.min_hexagons, cfg.min_prisms), cfg.target_counts or (0, 0)))
        self.hi = tuple(h if on else 0 for h, on in zip(hi, (cfg.hexagons, cfg.prisms)))
        self.labels, self.idx, self.host_nbr, self.eid = _index(self.order)
        if cfg.node_budget is None and needs_budget(host):
            raise ValueError("an explicit node_budget is required for hosts on more than "
                             f"{UNBUDGETED_VERTEX_LIMIT} vertices")
        idx = self.idx
        self.flips = [(idx[a], 1 << idx[b], idx[b], 1 << idx[a]) for a, b in self.order]
        self.memo: dict = {}
        self.exhausted: dict = {}
        self.width = cap.bit_length()  # of each packed count in an exhausted key
        self.stats = SearchStats()
        self._cuts: dict = {}

    # -- state updates

    def _toggle(self, cand, new: int, sign: int) -> None:
        """Meet (sign 1) or unmeet (sign -1) the edges in new; the rest of
        the candidate's edges are reuses."""
        shape, _, ids, mask = cand
        if shape is Hexagon:
            self.hex_placed += sign
        else:
            self.prism_placed += sign
        self.avail ^= new
        if new != mask:
            self.pad_used += sign * (mask ^ new).bit_count()
            ids = [i for i in ids if new >> i & 1]
        nbr, flips = self.nbr, self.flips
        for i in ids:
            x, by, y, bx = flips[i]
            nbr[x] ^= by
            nbr[y] ^= bx

    # -- pruning

    def _cut(self, key: tuple):
        """None when no (hexagons, prisms) still to be placed solves the
        block-count equation for the unmet edges inside the range, else the
        largest prism count among those that do and the remaining degrees
        _degree_ok rejects; kept in _cuts per key."""
        if key not in self._cuts:
            unmet, *placed, pad_used = key
            lo, hi = ([b - p for b, p in zip(bounds, placed)] for bounds in (self.lo, self.hi))
            slack = self.pad_budget - pad_used
            pairs = [(a, b) for total in range(unmet, unmet + slack + 1)
                     for a, b in block_count_solutions(total, False)
                     if lo[0] <= a <= hi[0] and lo[1] <= b <= hi[1]]
            a_max, b_max = map(max, zip(*pairs)) if pairs else (0, 0)
            self._cuts[key] = (b_max, frozenset(
                d for d in range(1, len(self.labels)) if not _degree_ok(d, a_max, b_max, slack)
            )) if pairs else None
        return self._cuts[key]

    def _verdict(self, rd: list) -> str | None:
        """Count and name the SearchStats counter that cuts the state the run
        starts from, whose remaining degrees are rd, or None if it survives."""
        state = (self.avail.bit_count(), self.hex_placed, self.prism_placed, self.pad_used)
        cut, odd = self._cut(state), sum(map(_ODD, rd))
        reason = ("pruned_block_count" if cut is None else None if not self.cfg.degree_prunes
                  else "pruned_odd_degree" if not self.pad_budget and odd > 6 * cut[0]
                  else None if cut[1].isdisjoint(rd) else "pruned_vertex_degree")
        if reason:
            setattr(self.stats, reason, getattr(self.stats, reason) + 1)
        return reason

    def _count(self, n: int, reason: str, depth: int) -> int:
        """Count up to n children at depth cut for reason, stopping at the node
        budget, and return how many; below n, the judge yields the next child."""
        stats = self.stats
        n = min(n, self.limit - stats.nodes)
        if n:
            stats.nodes += n
            stats.max_depth = max(stats.max_depth, depth)
            setattr(stats, reason, getattr(stats, reason) + n)
        return n

    # -- candidates

    def _candidates(self, u: int, v: int, rd: list, odd: int, depth: int):
        shapes = [s for s, w in ((Hexagon, self.hex_placed < self.hi[0]),
                                 (Prism, self.prism_placed < self.hi[1])) if w]
        if Prism in shapes and self.prism_placed < self.lo[1]:
            shapes.reverse()  # place the scarcer shape first while it is still owed
        if not self.pad_budget:
            return itertools.chain(*[self._judged(s, u, v, rd, odd, depth) for s in shapes])
        ge, lws = self._fold(u, v, shapes), {}
        return itertools.chain(*[self._judged_covers(s, u, v, ge, lws, rd, depth) for s in shapes])

    def _judged(self, shape, u: int, v: int, rd: list, odd: int, depth: int):
        """Yield as (shape, vs) the exact-mode children of the shape through
        (u, v) that survive, after counting the runs cut before them.  All share
        one key and lose size // 3 edges at each vertex: one meeting the last
        unmet edges survives, else, with degree prunes on, one inside ok (rd[w]
        - size // 3 not rejected) covering need (rd[w] rejected) with at least
        floor odd vertices, as a prism flips their parity and a hexagon keeps
        it (floor 0 or 7).  The masks wait for a prism to exist."""
        hexagon, unmet, size = shape is Hexagon, self.avail.bit_count(), len(EDGE_POSITIONS[shape])
        prisms = None if hexagon else _through(Prism, self.nbr, u, v)
        if not hexagon and (first := next(prisms, None)) is None:
            return
        ok, need, floor, reason = -1, 0, 0, "pruned_vertex_degree"
        key = (unmet - size, self.hex_placed + hexagon, self.prism_placed + (not hexagon), 0)
        cut = unmet > size and self._cut(key)
        if cut is None:
            ok, reason = 0, "pruned_block_count"
        elif cut and self.cfg.degree_prunes:
            floor = 7 * (odd > 6 * cut[0]) if hexagon else (odd + 7 - 6 * cut[0]) // 2
            if floor > 6:  # no child passes the odd-degree bound
                ok, reason = 0, "pruned_odd_degree"
            else:
                ok = sum(1 << w for w, d in enumerate(rd) if d - size // 3 not in cut[1])
                need = sum(1 << w for w, d in enumerate(rd) if d in cut[1])
        if hexagon:
            for skipped, vs in _hexagons(self.nbr, u, v, ok, need):
                if skipped and self._count(skipped, reason, depth) < skipped or vs:
                    yield shape, vs
            return
        odds = sum(1 << w for w, d in enumerate(rd) if d & 1)
        for vs in itertools.chain((first,), prisms):
            m = sum(map(_BIT, vs))
            why = ("pruned_odd_degree" if (m & odds).bit_count() < floor else
                   reason if m & ~ok or need & ~m else None)
            if why is None or not self._count(1, why, depth):
                yield shape, vs

    def _fold(self, u: int, v: int, shapes: list):
        """ge for the node, over the enabled shapes' bits, after counting the
        blocks that reuse more met edges than the padding left."""
        eid, host_nbr = self.eid, self.host_nbr
        if (u, v) not in self.memo:
            hexagons = list(_through(Hexagon, host_nbr, u, v))
            tups, split = hexagons + list(_through(Prism, host_nbr, u, v)), len(hexagons)
            bits = [bytearray(b"0") * (len(tups) + 1) for _ in self.order]
            for i, vs in enumerate(tups):  # bit strings, read as ints once, are cheaper to set
                for a, b in EDGE_POSITIONS[Hexagon if i < split else Prism]:
                    bits[eid[vs[a]][vs[b]]][i] = 49
            ecol = [int(col[::-1], 2) for col in bits]
            vcol = [reduce(or_, map(ecol.__getitem__, map(row.__getitem__, _bits(m))), 0)
                    for row, m in zip(eid, host_nbr)]  # a block on w has edges at w
            own = {Hexagon: (1 << split) - 1, Prism: (1 << len(tups)) - (1 << split)}
            self.memo[u, v] = tups, own, ecol, vcol
        _, own, ecol, _ = self.memo[u, v]
        met = itertools.compress(ecol, map(_ODD, map((~self.avail).__rshift__, range(len(ecol)))))
        ge = _at_least(met, sum(map(own.__getitem__, shapes)), self.pad_budget - self.pad_used + 1)
        self.stats.skipped_padding_budget += ge[-1].bit_count()
        return ge

    def _judged_covers(self, shape, u: int, v: int, ge: list, lws: dict, rd: list, depth: int):
        """Yield as (shape, vs) the shape's covering children that survive, as _judged does."""
        tups, own, ecol, vcol = self.memo[u, v]
        stats, eid, unmet, pad = self.stats, self.eid, self.avail.bit_count(), self.pad_used
        size, loss = (6, 2) if shape is Hexagon else (9, 3)
        placed = (self.hex_placed + (shape is Hexagon), self.prism_placed + (shape is Prism))
        surv = block_count = 0
        for r in range(len(ge) - 1):  # the blocks reusing exactly r share one key
            keep = ge[r] & ~ge[r + 1] & own[shape]
            cut = keep and (rest := unmet - size + r) and self._cut((rest, *placed, pad + r))
            if cut is None:
                block_count, keep = block_count | keep, 0
            rejected = cut and self.cfg.degree_prunes and sum(map(_BIT, cut[1])) << loss
            bad = [rejected >> d & (2 << loss) - 1 for d in rd] if rejected else ()
            # bit k of bad[w]: rd[w] - loss + k is rejected; k = loss keeps w off the block
            keep &= reduce(and_, (vcol[w] for w, b in enumerate(bad) if b >> loss), -1)
            for w, b in enumerate(bad):
                if b and keep & vcol[w]:  # lw[k]: the blocks with k or more met edges at w
                    if (lw := lws.get(w)) is None:
                        met_at = map(eid[w].__getitem__, _bits(self.host_nbr[w] & ~self.nbr[w]))
                        lw = lws[w] = _at_least(map(ecol.__getitem__, met_at), vcol[w], 3) + [0]
                    keep = reduce(and_, [~lw[k] | lw[k + 1] for k in _bits(b)], keep)
            surv |= keep
        cuts, low = own[shape] & ~ge[-1] & ~surv, -1
        while low:
            low = surv & -surv
            run = cuts & (low - 1 if low else -1)
            # a run can mix both reasons, so the budget stop is placed in order first
            while run.bit_count() > self.limit - stats.nodes:
                run ^= (low := 1 << run.bit_length() - 1)
            if bc := run & block_count:
                self._count(bc.bit_count(), "pruned_block_count", depth)
            if run ^ bc:
                self._count((run ^ bc).bit_count(), "pruned_vertex_degree", depth)
            if low:  # a survivor, or the child past the budget: _node counts it and stops
                yield shape, tups[low.bit_length() - 1]
            cuts, surv = cuts & ~run, surv ^ low

    # -- the search proper

    def _branch_edge(self, rd: list) -> tuple[int, int]:
        """The unmet edge at the least-degree endpoints; ties go to the first."""
        best, best_key = None, None
        for u, nu in enumerate(self.nbr):
            for v in _bits(nu >> u + 1 << u + 1):
                key = rd[u] + rd[v]
                if best_key is None or key < best_key:
                    best, best_key = (u, v), key
        return best

    def _node(self, cand, depth: int) -> bool:
        """Visit the state at depth that placing cand reaches.  Replay its
        counts, with cand never placed, if its subtree exhausted before and
        they fit the budget; else place cand, complete the state if no edge
        is unmet, else expand it and keep its counts if it exhausts, and lift
        cand.  A visit that finds the design appends (cand, new) to solution."""
        stats, key = self.stats, self._key(cand)
        if (seen := self.exhausted.get(key)) and stats.nodes + seen[0] <= self.limit:
            for name, d in zip(_REPLAYED, seen):
                setattr(stats, name, getattr(stats, name) + d)
            stats.max_depth = max(stats.max_depth, seen[-1])
            return False
        new = cand[3] & self.avail
        self._toggle(cand, new, 1)
        if not self.avail:
            done = self._complete()
        else:
            before = [getattr(stats, name) for name in _REPLAYED]
            top, stats.max_depth = stats.max_depth, depth  # the subtree's deepest, for its entry
            done = self._expand(depth)
            deepest, stats.max_depth = stats.max_depth, max(top, stats.max_depth)
            if not (done or stats.nodes > self.limit) and len(self.exhausted) < _REPLAY_CAP:
                self.exhausted[key] = (*[getattr(stats, n) - b for n, b in zip(_REPLAYED, before)],
                                       deepest)
        self._toggle(cand, new, -1)
        if done:
            self.solution.append((cand, new))
        return done

    def _key(self, cand) -> int:
        """The key in exhausted of the state that placing cand reaches."""
        w, avail, hexagon, mask = self.width, self.avail, cand[0] is Hexagon, cand[3]
        key = (avail & ~mask) << w | self.pad_used + (mask & ~avail).bit_count()
        return (key << w | self.hex_placed + hexagon) << w | self.prism_placed + (not hexagon)

    def _expand(self, depth: int) -> bool:
        """Count each child of the state that the judges pass, then visit it
        through _node; the judges count the children they cut."""
        rd = list(map(int.bit_count, self.nbr))
        odd = sum(map(_ODD, rd)) if self.cfg.degree_prunes else 0
        stats, limit, eid = self.stats, self.limit, self.eid
        edge, depth = self._branch_edge(rd), depth + 1
        for shape, vs in self._candidates(*edge, rd, odd, depth):
            stats.nodes += 1
            if depth > stats.max_depth:
                stats.max_depth = depth
            if stats.nodes > limit:
                return False
            done = self._node(_candidate(shape, vs, eid), depth)
            if done or stats.nodes > limit:
                return done
            if depth < self.split_below and stats.nodes >= self.help_from:
                self._share(edge, rd, odd, depth, (shape, vs))
        return False

    # -- a helper for a node's later children

    def _share(self, edge, rd: list, odd: int, depth: int, last) -> None:
        """Make this node the split node and, where a helper can run (fork
        exists, more than one CPU is ours, no other thread runs, SIGCHLD is at
        its default and exhausted has room), exhaust the children after last
        as this process and one forked helper claim them in a shared table,
        until one does not exhaust.  Once its own claiming stops, this process
        kills and reaps the helper and stores its finished slots.  The children
        are listed into scratch stats with no limit, so no counter moves."""
        cpus = getattr(os, "sched_getaffinity", lambda pid: ())(0)
        if not (hasattr(os, "fork") and len(cpus) > 1 and not _thread._count()
                and _signal.getsignal(_signal.SIGCHLD) == _signal.SIG_DFL
                and len(self.exhausted) < _REPLAY_CAP):
            self.split_below = 0
            return
        self.split_below, stats, limit = depth, self.stats, self.limit
        self.stats, self.limit = SearchStats(), math.inf
        children = list(self._candidates(*edge, rd, odd, depth))
        self.stats, self.limit = stats, limit
        if len(todo := children[children.index(last) + 1:]) < 2:
            return
        import mmap

        n = len(todo)
        # byte 0 stops claiming, byte i + 1 is child i's, then one slot per child
        with mmap.mmap(-1, 1 + n * (1 + _SLOT)) as table:
            try:
                parent, pid = os.getpid(), os.fork()
            except OSError:  # no process to spare: the run goes on alone
                return
            if not pid:
                try:
                    self.split_below = 0
                    self._claimed(todo, depth, table, parent)
                finally:
                    os._exit(0)
            self.stats = stats.replace()
            try:
                self._claimed(todo, depth, table)
            finally:
                self.stats = stats
                os.kill(pid, _signal.SIGKILL)
                os.waitpid(pid, 0)
            self._read_slots(table, todo)

    def _claimed(self, todo: list, depth: int, table, parent: int | None = None) -> None:
        """Claim the children in todo in the table, as the calling process or,
        given its parent, as the helper while that parent lives, and exhaust
        each until claiming stops, as the first that does not exhaust makes it,
        or exhausted is full.  The helper writes each kept entry to its slot."""
        n = len(todo)
        while (len(self.exhausted) < _REPLAY_CAP and parent in (None, os.getppid())
               and (i := _claim(table, n)) is not None):
            cand = _candidate(*todo[i], self.eid)
            if self._node(cand, depth) or self.stats.nodes > self.limit:
                table[0] = 1
            elif parent and (entry := self.exhausted.get(self._key(cand))):
                at = 1 + n + i * _SLOT
                table[at:at + _SLOT] = b"".join(c.to_bytes(_WORD, "little") for c in entry)
                table[i + 1] = _IN_SLOT  # only once its slot is written

    def _read_slots(self, table, todo: list) -> None:
        """Store each finished slot of the table under its child's key, while
        under _REPLAY_CAP; the engine stands at the children's parent, placing none."""
        for i, at in enumerate(range(1 + len(todo), len(table), _SLOT)):
            if table[i + 1] == _IN_SLOT and len(self.exhausted) < _REPLAY_CAP:
                key = self._key(_candidate(*todo[i], self.eid))
                self.exhausted[key] = tuple(int.from_bytes(table[j:j + _WORD], "little")
                                            for j in range(at, at + _SLOT, _WORD))

    def _complete(self) -> bool:
        counts = (self.hex_placed, self.prism_placed)
        if not all(lo <= c <= hi for lo, c, hi in zip(self.lo, counts, self.hi)):
            return False
        self.solution = []  # _node adds each block as the search unwinds
        return True

    def _root_block(self, host) -> Block | None:
        """The fixed first placement used by symmetry breaking, if valid here."""
        (lo_hex, _), (hi_hex, hi_prism) = self.lo, self.hi
        if isinstance(host, Complete) and host.n >= 6:
            # every design then has a hexagon, or only prisms, to relabel onto the root
            if hi_hex and (lo_hex or not hi_prism):
                return Hexagon((0, 1, 2, 3, 4, 5))
            if hi_prism and not hi_hex:
                return Prism((0, 1, 2), (3, 4, 5))
        elif isinstance(host, CompleteBipartite) and hi_hex:
            # any bipartite design is all hexagons; root one on the least labels
            near, far = sorted((sorted(host.left), sorted(host.right)))
            if len(near) >= 3 and len(far) >= 3:
                return Hexagon((near[0], far[0], near[1], far[1], near[2], far[2]))
        return None

    def run(self, leave=()) -> SearchOutcome:
        """Search the host with the leave edges met from the start; the run may
        expand node_budget nodes beyond those stats already counts."""
        start, stats, budget = perf_counter(), self.stats, self.cfg.node_budget
        first = stats.nodes + 1  # placements counts each node after the run's start state
        self.limit = math.inf if budget is None else stats.nodes + budget
        self.nbr, self.avail = list(self.host_nbr), (1 << len(self.order)) - 1
        self.hex_placed = self.prism_placed = self.pad_used = 0
        self.split_below, self.help_from = len(self.order) + 2, stats.nodes + _HELP_AFTER
        for x, y in ((self.idx[a], self.idx[b]) for a, b in leave):
            self.avail ^= 1 << self.eid[x][y]
            self.nbr[x] ^= 1 << y
            self.nbr[y] ^= 1 << x
        # a leave breaks the host's symmetry, so no root is fixed under one
        symmetric = self.cfg.symmetry_breaking and not leave
        root = self._root_block(self.host) if symmetric else None
        if root is not None:
            stats.nodes += 1
            root = _candidate(type(root), tuple(self.idx[x] for x in root.vertices), self.eid)
            self._toggle(root, root[3], 1)  # no leave, so each of its edges is unmet
        depth, rd = int(root is not None), list(map(int.bit_count, self.nbr))
        stats.nodes += 1
        stats.max_depth = max(stats.max_depth, depth)
        found = (stats.nodes <= self.limit and not (self.avail and self._verdict(rd))
                 and (self._expand(depth) if self.avail else self._complete()))
        stats.placements += stats.nodes - first
        stats.elapsed_s += perf_counter() - start
        if not found:
            status = Status.BUDGET if stats.nodes > self.limit else Status.EXHAUSTED
            return SearchOutcome(status, None, stats)
        solution = ([(root, root[3])] if root else []) + self.solution[::-1]
        blocks = tuple(_block(shape, vs, self.labels) for (shape, vs, _, _), _ in solution)
        padding = tuple(self.order[i] for (_, _, ids, _), new in solution
                        for i in ids if not new >> i & 1)
        design = Design(host=self.host, kind=self.kind, blocks=blocks,
                        leave=frozenset(leave), padding=padding)
        return SearchOutcome(Status.FOUND, design, stats)


def search_multidecomposition(host: Host, cfg: SearchConfig = SearchConfig()) -> SearchOutcome:
    """Search for an exact decomposition of the host into allowed blocks.

    The host must be simple.  Found outcomes carry a verified-shape design;
    an exhausted outcome certifies that no design exists under the config.
    """
    return _Engine(host, Kind.DECOMPOSITION, cfg).run()


# ---------------------------------------------------------------------------
# extremal search


def _isomorphic(g: dict, labels: dict, h: dict, h_labels: dict) -> bool:
    """Backtracking search for a label-keeping bijection of g onto h that
    maps edges to edges and non-edges to non-edges."""
    order = sorted(g, key=labels.__getitem__)
    image, taken = {}, set()

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        placed_nbrs = {image[u] for u in g[v] if u in image}
        for w in h:
            if w in taken or h_labels[w] != labels[v] or h[w] & taken != placed_nbrs:
                continue
            image[v] = w
            taken.add(w)
            if extend(i + 1):
                return True
            taken.discard(w)
            del image[v]
        return False

    return extend(0)


def _leave_candidates(host: Host, bound: int):
    """Candidate leave edge sets of the given size, one per equivalence class.

    On a complete host subsets are grouped by graph isomorphism, which
    matches the host's full symmetry; each class keeps its first member in
    combinations order, and a subset is tested only against the kept ones
    with the same (degree, neighbour degrees) vertex labels.  Other hosts
    get the raw subsets.  The 200k guard on the raw subset count stays.

    Only subsets that can come first are tested.  Their vertices are exactly
    0..k-1: if i < j, i unused and j used, swapping i and j maps every edge
    to an earlier one.  Vertex 0 has the top degree D and neighbours 1..D:
    relabel a degree-D vertex to 0 and its neighbours to 1..D, and the sorted
    edges start (0, 1)..(0, D), ahead of any member with a lower degree at 0
    or a gap among its neighbours.  So for D from the bound down the star
    (0, 1)..(0, D) takes the tails off 0 with no degree over D, in order.
    """
    edges = sorted(host_edges(host))
    if isinstance(host, Complete) and bound < 2:
        return list(itertools.combinations(edges[:1], bound))  # the empty leave or one edge
    if math.comb(len(edges), bound) > 200_000:
        raise ValueError(f"leave enumeration over {len(edges)} edges at size {bound} is too large")
    if not isinstance(host, Complete):
        return list(itertools.combinations(edges, bound))
    classes, buckets, masks = [], {}, [1 << u | 1 << v for u, v in edges]
    for top in range(min(bound, host.n - 1), 0, -1):
        for tail in itertools.combinations(range(host.n - 1, len(edges)), bound - top):
            if (m := reduce(or_, map(masks.__getitem__, tail), (2 << top) - 1)) & (m + 1):
                continue
            g: dict = {}
            for u, v in (subset := (*edges[:top], *map(edges.__getitem__, tail))):
                g.setdefault(u, set()).add(v)
                g.setdefault(v, set()).add(u)
            if max(map(len, g.values())) > top:
                continue
            labels = {v: (len(ns), tuple(sorted(len(g[w]) for w in ns))) for v, ns in g.items()}
            reps = buckets.setdefault(tuple(sorted(labels.values())), [])
            if not any(_isomorphic(h, h_labels, g, labels) for h, h_labels in reps):
                reps.append((g, labels))
                classes.append(subset)
    return classes


def find_extremal(host: Host, kind: Kind, bound: int,
                  node_budget: int | None = None) -> SearchOutcome:
    """Search for a packing with the given leave size or a covering with the
    given padding size, both shapes required.

    The bound is read two ways.  Up front it is exact: a bound b is rejected
    with the arithmetic reason when E - b (packing) or E + b (covering) edge
    uses, for a host of E edges, fail 6x + 9y with x, y >= 1.  The search
    then reads a covering bound as a budget: it accepts any covering whose
    padding is at most b.  One engine indexes the host; a packing runs it
    once per leave class of b edges until a run does not exhaust, and a
    covering runs it once with padding budget b.  node_budget holds per
    run, so per leave class, and the stats add up over the runs.  Neither
    fixes a root block by symmetry breaking.
    """
    total = len(_simple_edges(host))
    if kind not in (Kind.PACKING, Kind.COVERING):
        raise ValueError("find_extremal handles packings and coverings only")
    if bound < 0:
        raise ValueError(f"{kind.value} bound must be non-negative, got {bound}")
    met = total - bound if kind is Kind.PACKING else total + bound
    if not block_count_solutions(met, True):
        raise InfeasibleBoundError(
            f"{kind.value} bound {bound} rejected: {met} = 6x + 9y has no "
            "solution with x >= 1 and y >= 1"
        )
    cfg = SearchConfig(min_hexagons=1, min_prisms=1, node_budget=node_budget)
    covering = kind is Kind.COVERING
    leaves = [()] if covering else _leave_candidates(host, bound)
    engine = _Engine(host, kind, cfg, padding_budget=bound if covering else 0)
    for leave in leaves:
        if (outcome := engine.run(leave)).status is not Status.EXHAUSTED:
            break
    return outcome


# ---------------------------------------------------------------------------
# nonexistence certification for the exceptional orders


class NonexistenceReport(Value):
    """Two independent elimination branches for every block-count case.

    The analytic branch is the incidence arithmetic of feasibility; the
    enumerative branch exhausts actual placements: one raw run over all
    cases for n = 7, one engine run per case for n = 9 and n = 10.
    nonexistent means every case fell to at least one branch with the
    enumeration covering all of them, and branches_agree means no branch
    produced a design the other ruled out.
    """

    __slots__ = ("n", "cases", "analytic_eliminated", "enumerative_eliminated", "stats",
                 "nonexistent", "branches_agree")

    def __init__(self, n: int, cases: tuple[tuple[int, int], ...], analytic_eliminated: dict,
                 enumerative_eliminated: dict, stats: dict, nonexistent: bool,
                 branches_agree: bool):
        self._assign(n, cases, analytic_eliminated, enumerative_eliminated, stats,
                     nonexistent, branches_agree)

    @property
    def analytic_complete(self) -> bool:
        return set(self.analytic_eliminated) == set(self.cases)

    @property
    def enumerative_complete(self) -> bool:
        return set(self.enumerative_eliminated) == set(self.cases)


# perfbench/spans.py looks these names up to wrap the prism scans that the
# per-case engine runs replaced; they stay as None until it no longer does
(_all_prisms, _hexagon_completion, _scan_k9_prism_pairs, _scan_k10_single_prism,
 _scan_k10_prism_triples) = (None,) * 5


def confirm_nonexistence(n: int) -> NonexistenceReport:
    """Certify that K_n has no decomposition, for each exceptional order n.

    Every block-count case is attacked twice: by incidence arithmetic and by
    exhaustive enumeration, a list of named engine runs that each cover some
    cases.  For n = 7 one raw search, cut only by the edge-count arithmetic,
    covers all.  For n = 9 and n = 10 each case (x, y) gets a run with exactly
    those block counts and symmetry breaking, which fixes the root hexagon
    (0, 1, 2, 3, 4, 5) as the first block: every case has x >= 1 and S_n is
    transitive on labeled hexagons, so this loses nothing.  A run records its
    nodes and placements under its name and, if it exhausts, a reason for
    each case it covers.  For n = 10 the (3, 3) case is analytic only in its
    support constraints; its elimination rests on its engine run.
    """
    if n not in EXCEPTIONAL_ORDERS:
        raise ValueError(f"only the exceptional orders {EXCEPTIONAL_ORDERS} are certified here")
    cases = tuple(sorted(block_count_solutions(n * (n - 1) // 2, True)))
    analytic = _analytic_eliminations(n)

    # n = 7 enumerates raw placements, which only the edge-count arithmetic may cut
    raw = SearchConfig(min_hexagons=1, min_prisms=1, degree_prunes=False)
    runs = [("full_search", raw, cases)] if n == 7 else [
        (f"case{x}{y}", SearchConfig(target_counts=(x, y), symmetry_breaking=True), [(x, y)])
        for x, y in cases]
    enumerative, stats, witnesses = {}, {}, []
    for name, cfg, covered in runs:
        outcome = search_multidecomposition(Complete(n), cfg)
        stats[f"{name}_nodes"] = outcome.stats.nodes
        stats[f"{name}_placements"] = outcome.stats.placements
        if outcome.status is Status.FOUND:
            witnesses.append(outcome.design)
            continue
        for x, y in covered:
            enumerative[x, y] = (
                "every decomposition relabels onto one that contains the root hexagon "
                f"(0, 1, 2, 3, 4, 5); with it fixed, the search for exactly {x} hexagons "
                f"and {y} prisms, cut only by the block-count equation and the "
                "per-vertex degree bounds (parity and incidence), exhausted in "
                f"{outcome.stats.nodes} nodes"
            ) if cfg.symmetry_breaking else "full backtracking search exhausted with no design"

    return NonexistenceReport(
        n=n,
        cases=cases,
        analytic_eliminated=analytic,
        enumerative_eliminated=enumerative,
        stats=stats,
        nonexistent=not witnesses and set(enumerative) == set(cases),
        branches_agree=not witnesses,
    )
