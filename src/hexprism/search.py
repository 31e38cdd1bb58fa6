"""Exhaustive backtracking over hexagon and prism placements.

Branching rule: at each node pick the unmet edge whose endpoints have the
least remaining degree, ties lexicographic, and branch over every block of
the allowed shapes through that edge whose edges are still available.
Candidate generation emits every qualifying block exactly once, so an
exhausted run is a complete-enumeration certificate.  Runs are
deterministic: identical inputs give identical statistics and designs, and
the reported design is the one on the first branch, in generation order,
that completes.

The engine state is plain ints and lists, as in a bitset exact cover
(Knuth, Dancing Links, arXiv cs/0011047): an int mask of unmet edges and an
int neighbour mask per vertex, over dense indices in sorted-label order, so
walking mask bits upwards visits labels in ascending order.  In covering
mode the candidates through each branch edge are generated once per run.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from enum import Enum
from functools import lru_cache
from time import perf_counter

from .core import (
    Block,
    Complete,
    CompleteBipartite,
    Design,
    Explicit,
    Hexagon,
    Host,
    Kind,
    Prism,
    block_edges,
    block_vertices,
    host_edges,
    host_vertices,
)
from .feasibility import block_count_solutions, degree_solutions


class MultigraphHostError(ValueError):
    """The plain decomposition search only accepts simple hosts."""


class InfeasibleBoundError(ValueError):
    """An extremal bound already ruled out by the block-count equation."""


class Status(Enum):
    FOUND = "found"
    EXHAUSTED = "exhausted"
    BUDGET = "budget"


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for one search run.

    target_counts pins the exact (hexagons, prisms) block counts; the minima
    only set lower bounds.  node_budget limits expanded nodes and defaults to
    unbounded, which is only permitted on hosts with at most 10 vertices.
    symmetry_breaking fixes the block covering the smallest edge to one
    canonical placement; on complete and complete bipartite hosts every
    design can be relabeled onto such a placement, so the reduction keeps
    existence answers intact.  degree_prunes turns the per-vertex incidence
    feasibility cuts off, leaving only the plain edge-count arithmetic; runs
    meant to certify exhaustion by raw placement enumeration use that.
    """

    hexagons: bool = True
    prisms: bool = True
    min_hexagons: int = 0
    min_prisms: int = 0
    target_counts: tuple[int, int] | None = None
    node_budget: int | None = None
    symmetry_breaking: bool = False
    degree_prunes: bool = True


@dataclass
class SearchStats:
    """pruned_* count nodes cut by the block-count equation, the odd-degree
    bound and the per-vertex degree bound; skipped_padding_budget counts
    covering candidates that would overspend the padding budget.  elapsed_s
    is time in the engine, without leave-class enumeration."""

    nodes: int = 0
    placements: int = 0
    max_depth: int = 0
    pruned_block_count: int = 0
    pruned_odd_degree: int = 0
    pruned_vertex_degree: int = 0
    skipped_padding_budget: int = 0
    elapsed_s: float = 0.0


@dataclass(frozen=True)
class SearchOutcome:
    status: Status
    design: Design | None
    stats: SearchStats


def merge_stats(parts) -> SearchStats:
    """Sum the counters and times of several runs; max_depth is the deepest."""
    total = SearchStats()
    for s in parts:
        for f in fields(SearchStats):
            a, b = getattr(total, f.name), getattr(s, f.name)
            setattr(total, f.name, max(a, b) if f.name == "max_depth" else a + b)
    return total


# ---------------------------------------------------------------------------
# candidate enumeration

# the edges of each shape, as position pairs in its vertex tuple
_PAIRS = {
    Hexagon: ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)),
    Prism: ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)),
}


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


_BIT = (1).__lshift__  # i -> 1 << i
_ODD = (1).__and__  # d -> d & 1


def _candidate(shape, vs, eid):
    ids = tuple([eid[vs[i]][vs[j]] for i, j in _PAIRS[shape]])
    return shape, vs, ids, sum(map(_BIT, ids))


def _block(shape, vs, labels) -> Block:
    vs = tuple(labels[v] for v in vs)
    return Hexagon(vs) if shape is Hexagon else Prism(vs[:3], vs[3:])


def _through(shape, nbr: list, eid: list, u: int, v: int) -> list:
    """Every block of the shape through edge (u, v) inside the neighbour
    masks, exactly once, as (shape, vertex indices, edge ids, edge mask).

    Hexagons are rooted as (u, v, a, b, c, d), which fixes an orientation.
    A prism either has (u, v) in a triangle, giving [u, v, c; d, e2, f] with
    the rung partners in matching order, or has it as a rung, giving
    [u, b, c; v, e2, f] with b < c.  Every vertex is walked in ascending
    order, triangle prisms before rung prisms.
    """
    out = []
    bu, bv = 1 << u, 1 << v
    if shape is Hexagon:
        for a in _bits(nbr[v] & ~bu):
            for b in _bits(nbr[a] & ~(bu | bv)):
                for c in _bits(nbr[b] & ~(bu | bv | 1 << a)):
                    for d in _bits(nbr[c] & nbr[u] & ~(bv | 1 << a | 1 << b)):
                        out.append(_candidate(Hexagon, (u, v, a, b, c, d), eid))
        return out
    for c in _bits(nbr[u] & nbr[v]):
        for d in _bits(nbr[u] & ~(bv | 1 << c)):
            for e2 in _bits(nbr[v] & nbr[d] & ~(bu | 1 << c)):
                for f in _bits(nbr[c] & nbr[d] & nbr[e2] & ~(bu | bv)):
                    out.append(_candidate(Prism, (u, v, c, d, e2, f), eid))
    for b in _bits(nbr[u] & ~bv):
        for c in _bits(nbr[u] & nbr[b] & ~((2 << b) - 1 | bv)):
            for e2 in _bits(nbr[v] & nbr[b] & ~(bu | 1 << c)):
                for f in _bits(nbr[v] & nbr[c] & nbr[e2] & ~(bu | 1 << b)):
                    out.append(_candidate(Prism, (u, b, c, v, e2, f), eid))
    return out


def _blocks_through(shape, adj: dict, e) -> list[Block]:
    edges = sorted({(x, y) for x in adj for y in adj[x] if x < y})
    labels, idx, nbr, eid = _index(edges)
    return [_block(shape, vs, labels)
            for shape, vs, _, _ in _through(shape, nbr, eid, idx[e[0]], idx[e[1]])]


def hexagons_through(adj: dict, e) -> list[Hexagon]:
    """Every 6-cycle through edge e inside the adjacency, exactly once.

    Cycles are rooted as (u, v, a, b, c, d) with u < v the given edge, which
    fixes an orientation, so no cycle appears twice.
    """
    return _blocks_through(Hexagon, adj, e)


def prisms_through(adj: dict, e) -> list[Prism]:
    """Every prism through edge e inside the adjacency, exactly once.

    Either e lies in a triangle, giving [u, v, c; d, e2, f] with the rung
    partners in matching order, or e is a rung, giving [u, b, c; v, e2, f]
    with b < c to fix the representation.
    """
    return _blocks_through(Prism, adj, e)


# ---------------------------------------------------------------------------
# the engine


def _degree_ok(rd: int, a_max: int, b_max: int, slack: int) -> bool:
    """Can rd unmet edges at a vertex be met by at most a_max hexagons
    (2 each) and b_max prisms (3 each), overshooting by at most slack?"""
    for q in range(min(b_max, (rd + slack) // 3) + 1):
        hi = rd + slack - 3 * q
        if hi < 0:
            break
        p_min = max(0, (rd - 3 * q + 1) // 2)
        if 2 * p_min <= hi and p_min <= a_max:
            return True
    return False


class _Engine:
    """One backtracking run over a simple edge set, in plain ints and lists.

    Bit i of avail is set while edge i is unmet, and nbr[v] has bit w set
    while edge vw is unmet, so the remaining degree of v is
    nbr[v].bit_count(); flips[i] holds the endpoints of edge i and their
    bits.  pad[i] counts the reuses of edge i.  placed is a stack of
    (candidate, newly met edge mask); Hexagon and Prism objects are built
    only for the solution.

    padding_budget > 0 switches to covering mode: blocks may reuse edges
    whose requirement is already met, (mask & ~avail).bit_count() of them,
    spending one unit of budget per reuse.  Candidates are then walked in
    the host's full adjacency, which never changes, so the candidates
    through each branch edge are generated once and kept in memo.
    """

    def __init__(self, edges, cfg: SearchConfig, padding_budget: int = 0):
        self.cfg = cfg
        self.pad_budget = padding_budget
        self.order = sorted(edges)
        self.labels, self.idx, self.nbr, self.eid = _index(self.order)
        self.host_nbr = list(self.nbr)
        idx = self.idx
        self.flips = [(idx[a], 1 << idx[b], idx[b], 1 << idx[a]) for a, b in self.order]
        self.avail = (1 << len(self.order)) - 1
        self.unmet = len(self.order)
        self.pad = [0] * len(self.order)
        self.memo: dict = {}
        self.hex_placed = 0
        self.prism_placed = 0
        self.pad_used = 0
        self.placed: list = []
        self.stats = SearchStats()
        self.exceeded = False
        self.solution: tuple[Block, ...] | None = None
        self.solution_padding: tuple | None = None
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
        self.unmet -= sign * new.bit_count()
        if new != mask:
            for i in ids:
                if not new >> i & 1:
                    self.pad[i] += sign
                    self.pad_used += sign
            ids = [i for i in ids if new >> i & 1]
        nbr, flips = self.nbr, self.flips
        for i in ids:
            x, by, y, bx = flips[i]
            nbr[x] ^= by
            nbr[y] ^= bx

    def _place(self, cand) -> None:
        new = cand[3] & self.avail
        self.placed.append((cand, new))
        self._toggle(cand, new, 1)

    def _unplace(self) -> None:
        self._toggle(*self.placed.pop(), -1)

    # -- pruning

    def _future_pairs(self):
        """Feasible (hexagons, prisms) still to be placed."""
        cfg = self.cfg
        slack = self.pad_budget - self.pad_used
        if cfg.target_counts is not None:
            a = cfg.target_counts[0] - self.hex_placed
            b = cfg.target_counts[1] - self.prism_placed
            feasible = a >= 0 and b >= 0 and 0 <= 6 * a + 9 * b - self.unmet <= slack
            return [(a, b)] if feasible else []
        need_h = max(0, cfg.min_hexagons - self.hex_placed)
        need_p = max(0, cfg.min_prisms - self.prism_placed)
        return [
            (rest // 6, b)
            for total in range(self.unmet, self.unmet + slack + 1)
            for b in range(need_p, total // 9 + 1)
            if (rest := total - 9 * b) % 6 == 0 and rest // 6 >= need_h
            and (cfg.hexagons or not rest) and (cfg.prisms or not b)
        ]

    def _prune(self, rd: list) -> bool:
        """Whether the node survives the cuts.  Each block-count state caches
        None when the block-count equation has no solution left, else b_max
        and the remaining degrees _degree_ok rejects at (a_max, b_max, slack)."""
        key = (self.unmet, self.hex_placed, self.prism_placed, self.pad_used)
        if key not in self._cuts:
            pairs = self._future_pairs()
            if pairs:
                a_max = max(a for a, _ in pairs)
                b_max = max(b for _, b in pairs)
                slack = self.pad_budget - self.pad_used
                self._cuts[key] = b_max, frozenset(
                    d for d in range(1, len(self.labels)) if not _degree_ok(d, a_max, b_max, slack)
                )
            else:
                self._cuts[key] = None
        cut, stats = self._cuts[key], self.stats
        if cut is None:
            stats.pruned_block_count += 1
            return False
        if not self.cfg.degree_prunes:
            return True
        b_max, bad = cut
        if self.pad_budget == 0 and sum(map(_ODD, rd)) > 6 * b_max:
            stats.pruned_odd_degree += 1
            return False
        if not bad.isdisjoint(rd):
            stats.pruned_vertex_degree += 1
            return False
        return True

    # -- candidates

    def _candidates(self, u: int, v: int):
        cfg = self.cfg
        want_hex = cfg.hexagons
        want_prism = cfg.prisms
        if cfg.target_counts is not None:
            want_hex = want_hex and self.hex_placed < cfg.target_counts[0]
            want_prism = want_prism and self.prism_placed < cfg.target_counts[1]
        prisms_due = want_prism and self.prism_placed < max(
            cfg.min_prisms, cfg.target_counts[1] if cfg.target_counts else 0
        )
        wants = (want_hex, want_prism)
        if self.pad_budget:
            if (u, v) not in self.memo:
                self.memo[u, v] = [_through(s, self.host_nbr, self.eid, u, v) for s in _PAIRS]
            groups = [g if w else () for g, w in zip(self.memo[u, v], wants)]
        else:
            groups = [_through(s, self.nbr, self.eid, u, v) if w else () for s, w in zip(_PAIRS, wants)]
        if prisms_due:
            # place the scarcer shape first while it is still owed
            groups.reverse()
        out = [c for group in groups for c in group]
        if self.pad_budget:
            met, left = ~self.avail, self.pad_budget - self.pad_used
            kept = [c for c in out if (c[3] & met).bit_count() <= left]
            self.stats.skipped_padding_budget += len(out) - len(kept)
            return kept
        return out

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

    def _node(self, depth: int) -> bool:
        self.stats.nodes += 1
        if depth > self.stats.max_depth:
            self.stats.max_depth = depth
        if self.cfg.node_budget is not None and self.stats.nodes > self.cfg.node_budget:
            self.exceeded = True
            return False
        if self.unmet == 0:
            return self._complete()
        rd = list(map(int.bit_count, self.nbr))
        if not self._prune(rd):
            return False
        for cand in self._candidates(*self._branch_edge(rd)):
            if self.exceeded:
                return False
            self.stats.placements += 1
            self._place(cand)
            done = self._node(depth + 1)
            self._unplace()
            if done:
                return True
        return False

    def _complete(self) -> bool:
        cfg = self.cfg
        if cfg.target_counts is not None:
            if (self.hex_placed, self.prism_placed) != cfg.target_counts:
                return False
        if self.hex_placed < cfg.min_hexagons or self.prism_placed < cfg.min_prisms:
            return False
        self.solution = tuple(_block(c[0], c[1], self.labels) for c, _ in self.placed)
        self.solution_padding = tuple(
            e for e, reuses in zip(self.order, self.pad) for _ in range(reuses)
        )
        return True

    def _root_block(self, host) -> Block | None:
        """The fixed first placement used by symmetry breaking, if valid here."""
        cfg = self.cfg
        if isinstance(host, Complete):
            if host.n < 6:
                return None
            hex_forced = cfg.min_hexagons >= 1 or not cfg.prisms or (
                cfg.target_counts is not None and cfg.target_counts[0] >= 1
            )
            if cfg.hexagons and hex_forced:
                return Hexagon((0, 1, 2, 3, 4, 5))
            if cfg.prisms and not cfg.hexagons:
                return Prism((0, 1, 2), (3, 4, 5))
            return None
        if isinstance(host, CompleteBipartite) and cfg.hexagons:
            # any bipartite design is all hexagons; root one on the least labels
            lo = sorted(host.left)
            hi = sorted(host.right)
            if len(lo) < 3 or len(hi) < 3:
                return None
            if min(hi) < min(lo):
                lo, hi = hi, lo
            return Hexagon((lo[0], hi[0], lo[1], hi[1], lo[2], hi[2]))
        return None

    def run(self, host) -> tuple[Status, tuple[Block, ...] | None, tuple]:
        start = perf_counter()
        root = self._root_block(host) if self.cfg.symmetry_breaking else None
        if root is not None:
            self.stats.nodes += 1
            self.stats.placements += 1
            vs = tuple(self.idx[x] for x in block_vertices(root))
            self._place(_candidate(type(root), vs, self.eid))
            found = self._node(1)
        else:
            found = self._node(0)
        self.stats.elapsed_s = perf_counter() - start
        if found:
            return Status.FOUND, self.solution, self.solution_padding
        if self.exceeded:
            return Status.BUDGET, None, None
        return Status.EXHAUSTED, None, None


def _check_budget_rule(host: Host, cfg: SearchConfig) -> None:
    if cfg.node_budget is None and len(host_vertices(host)) > 10:
        raise ValueError(
            "an explicit node_budget is required for hosts on more than 10 vertices"
        )


def search_multidecomposition(host: Host, cfg: SearchConfig = SearchConfig()) -> SearchOutcome:
    """Search for an exact decomposition of the host into allowed blocks.

    The host must be simple.  Found outcomes carry a verified-shape design;
    an exhausted outcome certifies that no design exists under the config.
    """
    multiset = host_edges(host)
    if any(m > 1 for m in multiset.values()):
        raise MultigraphHostError("host has repeated edges; decomposition search needs a simple host")
    _check_budget_rule(host, cfg)
    engine = _Engine(multiset, cfg)
    status, blocks, _ = engine.run(host)
    design = None
    if status is Status.FOUND:
        design = Design(host=host, kind=Kind.DECOMPOSITION, blocks=blocks)
    return SearchOutcome(status=status, design=design, stats=engine.stats)


# ---------------------------------------------------------------------------
# extremal search


def _isomorphic(g: dict, labels: dict, h: dict, h_labels: dict) -> bool:
    """Backtracking search for a label-keeping bijection of g onto h that
    maps edges to edges and non-edges to non-edges."""
    order = sorted(g, key=labels.__getitem__)
    image: dict = {}
    taken: set = set()

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

    On a complete host any single edge is equivalent to any other, and larger
    subsets are grouped by graph isomorphism, which matches the host's full
    symmetry; a subset is tested only against the class representatives with
    the same (degree, neighbour degrees) vertex labels.  Other hosts get the
    raw subsets.
    """
    edges = sorted(host_edges(host))
    if bound == 0:
        return [()]
    if isinstance(host, Complete) and bound == 1:
        return [(edges[0],)]
    if math.comb(len(edges), bound) > 200_000:
        raise ValueError(
            f"leave enumeration over {len(edges)} edges at size {bound} is too large"
        )
    if not isinstance(host, Complete):
        return list(itertools.combinations(edges, bound))
    classes = []
    buckets: dict = {}
    for subset in itertools.combinations(edges, bound):
        g: dict = {}
        for u, v in subset:
            g.setdefault(u, set()).add(v)
            g.setdefault(v, set()).add(u)
        labels = {v: (len(ns), tuple(sorted(len(g[w]) for w in ns))) for v, ns in g.items()}
        reps = buckets.setdefault(tuple(sorted(labels.values())), [])
        if not any(_isomorphic(h, h_labels, g, labels) for h, h_labels in reps):
            reps.append((g, labels))
            classes.append(subset)
    return classes


def find_extremal(
    host: Host,
    kind: Kind,
    bound: int,
    node_budget: int | None = None,
    symmetry_breaking: bool = False,
) -> SearchOutcome:
    """Search for a packing with the given leave size or a covering with the
    given padding size, both shapes required.

    Bounds that already fail the block-count equation are rejected up front
    with the arithmetic reason.  Packings run one decomposition search per
    leave class; coverings run a single budgeted search whose completions
    have padding at most the bound.
    """
    multiset = host_edges(host)
    if any(m > 1 for m in multiset.values()):
        raise MultigraphHostError("extremal search needs a simple host")
    total = sum(multiset.values())
    if kind is Kind.PACKING:
        remaining = total - bound
        if not block_count_solutions(remaining, True):
            raise InfeasibleBoundError(
                f"packing bound {bound} rejected: {remaining} = 6x + 9y has no "
                "solution with x >= 1 and y >= 1"
            )
        cfg = SearchConfig(
            min_hexagons=1,
            min_prisms=1,
            node_budget=node_budget,
            symmetry_breaking=symmetry_breaking,
        )
        runs = []
        for leave in _leave_candidates(host, bound):
            reduced = Explicit(tuple(set(multiset) - set(leave)))
            _check_budget_rule(reduced, cfg)
            engine = _Engine(reduced.edges, cfg)
            status, blocks, _ = engine.run(reduced)
            runs.append(engine.stats)
            if status is Status.FOUND:
                design = Design(
                    host=host, kind=Kind.PACKING, blocks=blocks, leave=frozenset(leave)
                )
                return SearchOutcome(Status.FOUND, design, merge_stats(runs))
            if status is Status.BUDGET:
                return SearchOutcome(Status.BUDGET, None, merge_stats(runs))
        return SearchOutcome(Status.EXHAUSTED, None, merge_stats(runs))

    if kind is Kind.COVERING:
        needed = total + bound
        if not block_count_solutions(needed, True):
            raise InfeasibleBoundError(
                f"covering bound {bound} rejected: {needed} = 6x + 9y has no "
                "solution with x >= 1 and y >= 1"
            )
        cfg = SearchConfig(
            min_hexagons=1,
            min_prisms=1,
            node_budget=node_budget,
            symmetry_breaking=symmetry_breaking,
        )
        _check_budget_rule(host, cfg)
        engine = _Engine(multiset, cfg, padding_budget=bound)
        status, blocks, padding = engine.run(host)
        design = None
        if status is Status.FOUND:
            design = Design(host=host, kind=Kind.COVERING, blocks=blocks, padding=padding)
        return SearchOutcome(status, design, engine.stats)

    raise ValueError("find_extremal handles packings and coverings only")


# ---------------------------------------------------------------------------
# nonexistence certification for the exceptional orders


@dataclass(frozen=True)
class NonexistenceReport:
    """Two independent elimination branches for every block-count case.

    The analytic branch applies incidence-arithmetic rules; the enumerative
    branch exhausts actual placements.  nonexistent means every case fell to
    at least one branch with the enumeration covering all of them, and
    branches_agree means no branch produced a design the other ruled out.
    """

    n: int
    cases: tuple[tuple[int, int], ...]
    analytic_eliminated: dict
    enumerative_eliminated: dict
    stats: dict
    nonexistent: bool
    branches_agree: bool

    @property
    def analytic_complete(self) -> bool:
        return set(self.analytic_eliminated) == set(self.cases)

    @property
    def enumerative_complete(self) -> bool:
        return set(self.enumerative_eliminated) == set(self.cases)


def _analytic_case(n: int, x: int, y: int) -> str | None:
    """Incidence-arithmetic elimination of one (x, y) case, if it applies."""
    allowed_q = {q for _, q in degree_solutions(n - 1)}
    in_prism = sorted(q for q in allowed_q if 1 <= q <= y)
    if not in_prism:
        return (
            f"every prism vertex would need a prism count q with 1 <= q <= {y} "
            f"and 2p + 3q = {n - 1} solvable, but the admissible counts are "
            f"{sorted(allowed_q)}"
        )
    if in_prism == [y] and 9 * y > 15:
        return (
            f"every prism vertex must lie in all {y} prisms, so the prisms share "
            f"one 6-vertex support, yet {9 * y} edges exceed the 15 available there"
        )
    if 6 * y < n and 0 not in allowed_q:
        return (
            f"{y} prism(s) touch at most {6 * y} of the {n} vertices, and a vertex "
            f"outside every prism would need 2p = {n - 1}, which is odd"
        )
    return None


# S_n is transitive on labeled prisms, so every decomposition relabels onto
# one that contains this prism; each scan fixes it as its first prism.
_ROOT_PRISM = Prism((0, 1, 2), (3, 4, 5))
_ROOTED = (
    "every decomposition relabels onto one whose prisms include the root "
    "prism [0, 1, 2; 3, 4, 5]"
)


def _all_prisms(n: int):
    """Every labeled prism on subsets of 0..n-1, with int edge and vertex
    bitmasks, as three parallel lists; index 0 is the root prism."""
    eidx = {e: i for i, e in enumerate(itertools.combinations(range(n), 2))}
    prisms, emasks, vmasks = [], [], []
    for combo in itertools.combinations(range(n), 6):
        head, rest = combo[0], combo[1:]
        vm = sum(1 << v for v in combo)
        for pair in itertools.combinations(rest, 2):
            others = tuple(v for v in rest if v not in pair)
            for perm in itertools.permutations(others):
                p = Prism((head,) + pair, perm)
                prisms.append(p)
                emasks.append(sum(1 << eidx[e] for e in block_edges(p)))
                vmasks.append(vm)
    return prisms, emasks, vmasks


def _hexagon_completion(n: int, used_blocks) -> SearchOutcome:
    """Can the edges of K_n left by the given prisms be split into hexagons?"""
    remaining = set(itertools.combinations(range(n), 2))
    for block in used_blocks:
        remaining -= block_edges(block)
    host = Explicit(tuple(remaining))
    return search_multidecomposition(host, SearchConfig(hexagons=True, prisms=False))


def _scan_k9_prism_pairs():
    """Pair the root prism with every edge-disjoint prism on K_9 and try
    hexagon completions.

    Any decomposition relabels so that one of its two prisms is the root
    prism, so pairing the root against all second prisms is exhaustive.  A
    completable remainder needs every vertex degree even, which forces the
    two prisms onto one 6-vertex support.
    """
    prisms, em, vm = _all_prisms(9)
    stats = dict.fromkeys(("pairs_edge_disjoint", "pairs_parity_rejected",
                           "completion_searches", "completion_nodes"), 0)
    witness = None
    for p, e, v in zip(prisms, em, vm):
        if e & em[0]:
            continue
        stats["pairs_edge_disjoint"] += 1
        if v != vm[0]:
            stats["pairs_parity_rejected"] += 1
            continue
        stats["completion_searches"] += 1
        outcome = _hexagon_completion(9, [_ROOT_PRISM, p])
        stats["completion_nodes"] += outcome.stats.nodes
        if outcome.status is Status.FOUND:
            witness = (_ROOT_PRISM, p, outcome.design)
    return stats, witness


def _scan_k10_single_prism():
    """The (6, 1) case on K_10, with the one prism relabeled onto the root
    prism: the vertices outside it keep remaining degree 9, an odd number,
    so no hexagon completion exists and none is searched for."""
    outside = 10 - len(block_vertices(_ROOT_PRISM))
    return {"single_prisms": 1, "parity_rejected": int(outside > 0)}


def _scan_k10_prism_triples():
    """Extend the root prism to edge-disjoint prism triples on K_10 for the
    (3, 3) case.

    For a hexagon-completable remainder every vertex needs an odd prism
    count, which forces exactly four vertices into all three prisms; hence
    any two prisms share exactly 4 vertices and the third prism's support is
    forced.  Any decomposition relabels so that one of its prisms is the
    root prism, so scanning second prisms against it is exhaustive.
    """
    prisms, em, vm = _all_prisms(10)
    by_support: dict = {}
    for p, e, v in zip(prisms, em, vm):
        by_support.setdefault(v, []).append((p, e))
    stats = dict.fromkeys(("pairs_support_compatible", "third_candidates",
                           "completion_searches", "completion_nodes"), 0)
    witness = None
    for p, e, v in zip(prisms, em, vm):
        if e & em[0] or (v & vm[0]).bit_count() != 4:
            continue
        stats["pairs_support_compatible"] += 1
        # the third support: the four shared vertices and the two neither prism touches
        thirds = by_support[(v & vm[0]) | (0x3FF ^ (v | vm[0]))]
        stats["third_candidates"] += len(thirds)
        for third, third_e in thirds:
            if third_e & (e | em[0]):
                continue
            stats["completion_searches"] += 1
            outcome = _hexagon_completion(10, [_ROOT_PRISM, p, third])
            stats["completion_nodes"] += outcome.stats.nodes
            if outcome.status is Status.FOUND:
                witness = (_ROOT_PRISM, p, third, outcome.design)
    return stats, witness


def confirm_nonexistence(n: int) -> NonexistenceReport:
    """Certify that K_n has no decomposition, for n in {7, 9, 10}.

    Every block-count case is attacked twice: by incidence arithmetic and by
    exhaustive enumeration.  For n = 10 the (3, 3) case is analytic only in
    its support constraints; its elimination rests on the triple scan.  The
    n = 9 and n = 10 scans fix the root prism [0, 1, 2; 3, 4, 5] as their
    first prism, which loses nothing since S_n is transitive on labeled
    prisms.
    """
    if n not in (7, 9, 10):
        raise ValueError("only the exceptional orders 7, 9 and 10 are certified here")
    cases = tuple(sorted(block_count_solutions(n * (n - 1) // 2, True)))
    analytic = {}
    for x, y in cases:
        reason = _analytic_case(n, x, y)
        if reason is not None:
            analytic[(x, y)] = reason

    enumerative = {}
    stats: dict = {}
    witnesses = []
    if n == 7:
        # raw placement enumeration: only the edge-count arithmetic may cut
        outcome = search_multidecomposition(
            Complete(7), SearchConfig(min_hexagons=1, min_prisms=1, degree_prunes=False)
        )
        stats["full_search_nodes"] = outcome.stats.nodes
        stats["full_search_placements"] = outcome.stats.placements
        if outcome.status is Status.FOUND:
            witnesses.append(outcome.design)
        else:
            for case in cases:
                enumerative[case] = "full backtracking search exhausted with no design"
    elif n == 9:
        scan_stats, witness = _scan_k9_prism_pairs()
        stats.update(scan_stats)
        if witness is None:
            enumerative[(3, 2)] = (
                f"{_ROOTED}, and none of the {scan_stats['pairs_edge_disjoint']} "
                "prisms edge-disjoint from it leaves a hexagon-completable remainder"
            )
        else:
            witnesses.append(witness)
    else:
        single_stats = _scan_k10_single_prism()
        stats.update({f"case61_{k}": v for k, v in single_stats.items()})
        if single_stats["parity_rejected"]:
            enumerative[(6, 1)] = f"{_ROOTED}, and the root prism alone leaves odd vertex degrees"
        triple_stats, triple_witness = _scan_k10_prism_triples()
        stats.update({f"case33_{k}": v for k, v in triple_stats.items()})
        if triple_witness is None:
            enumerative[(3, 3)] = (
                f"{_ROOTED}, and no edge-disjoint triple through it admits a hexagon "
                f"completion ({triple_stats['pairs_support_compatible']} support-"
                f"compatible second prisms, {triple_stats['third_candidates']} third "
                "candidates examined)"
            )
        else:
            witnesses.append(triple_witness)

    eliminated = set(analytic) | set(enumerative)
    return NonexistenceReport(
        n=n,
        cases=cases,
        analytic_eliminated=analytic,
        enumerative_eliminated=enumerative,
        stats=stats,
        nonexistent=not witnesses and eliminated == set(cases) and set(enumerative) == set(cases),
        branches_agree=not witnesses,
    )
