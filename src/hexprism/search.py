"""Exhaustive backtracking over hexagon and prism placements.

Branching rule: at each node pick the unmet edge whose endpoints have the
least remaining degree, ties lexicographic, and branch over every block of
the allowed shapes through that edge whose edges are still available.
Candidate generation emits every qualifying block exactly once, so an
exhausted run is a complete-enumeration certificate.  Runs are
deterministic: identical inputs give identical statistics and designs, and
the reported design is the one on the first branch, in generation order,
that completes.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum

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
    nodes: int = 0
    placements: int = 0
    max_depth: int = 0


@dataclass(frozen=True)
class SearchOutcome:
    status: Status
    design: Design | None
    stats: SearchStats


def merge_stats(parts) -> SearchStats:
    total = SearchStats()
    for s in parts:
        total.nodes += s.nodes
        total.placements += s.placements
        total.max_depth = max(total.max_depth, s.max_depth)
    return total


# ---------------------------------------------------------------------------
# candidate enumeration


def hexagons_through(adj: dict, e) -> list[Hexagon]:
    """Every 6-cycle through edge e inside the adjacency, exactly once.

    Cycles are rooted as (u, v, a, b, c, d) with u < v the given edge, which
    fixes an orientation, so no cycle appears twice.
    """
    u, v = e
    found = []
    for a in sorted(adj[v]):
        if a == u:
            continue
        for b in sorted(adj[a]):
            if b == u or b == v:
                continue
            for c in sorted(adj[b]):
                if c == u or c == v or c == a:
                    continue
                for d in sorted(adj[c] & adj[u]):
                    if d == v or d == a or d == b:
                        continue
                    found.append(Hexagon((u, v, a, b, c, d)))
    return found


def prisms_through(adj: dict, e) -> list[Prism]:
    """Every prism through edge e inside the adjacency, exactly once.

    Either e lies in a triangle, giving [u, v, c; d, e2, f] with the rung
    partners in matching order, or e is a rung, giving [u, b, c; v, e2, f]
    with b < c to fix the representation.
    """
    u, v = e
    found = []
    for c in sorted(adj[u] & adj[v]):
        for d in sorted(adj[u]):
            if d == v or d == c:
                continue
            for e2 in sorted(adj[v] & adj[d]):
                if e2 == u or e2 == c or e2 == d:
                    continue
                for f in sorted(adj[c] & adj[d] & adj[e2]):
                    if f == u or f == v or f == d or f == e2:
                        continue
                    found.append(Prism((u, v, c), (d, e2, f)))
    for b in sorted(adj[u]):
        if b == v:
            continue
        for c in sorted(adj[u] & adj[b]):
            if c <= b or c == v:
                continue
            for e2 in sorted(adj[v] & adj[b]):
                if e2 == u or e2 == b or e2 == c:
                    continue
                for f in sorted(adj[v] & adj[c] & adj[e2]):
                    if f == u or f == b or f == c or f == e2:
                        continue
                    found.append(Prism((u, b, c), (v, e2, f)))
    return found


# ---------------------------------------------------------------------------
# the engine


class _Engine:
    """One backtracking run over an edge multiset.

    padding_budget > 0 switches to covering mode: blocks may reuse edges
    whose requirement is already met, spending one unit of budget per reuse.
    """

    def __init__(self, edge_multiset: Counter, cfg: SearchConfig, padding_budget: int = 0):
        self.cfg = cfg
        self.pad_budget = padding_budget
        self.order = sorted(edge_multiset)
        self.pos = {e: i for i, e in enumerate(self.order)}
        self.mult = [edge_multiset[e] for e in self.order]
        self.usage = [0] * len(self.order)
        self.unmet = sum(self.mult)
        self.rem_deg = Counter()
        for (a, b), m in edge_multiset.items():
            self.rem_deg[a] += m
            self.rem_deg[b] += m
        self.odd_count = sum(1 for d in self.rem_deg.values() if d % 2)
        self.adj = {v: set() for v in self.rem_deg}
        for a, b in self.order:
            self.adj[a].add(b)
            self.adj[b].add(a)
        # covering mode keeps the full adjacency: met edges stay reusable
        self.dynamic_adj = padding_budget == 0
        self.hex_placed = 0
        self.prism_placed = 0
        self.pad_used = 0
        self.placed: list[Block] = []
        self.stats = SearchStats()
        self.exceeded = False
        self.solution: tuple[Block, ...] | None = None
        self.solution_padding: tuple | None = None
        self._deg_cache: dict = {}

    # -- state updates

    def _place(self, block, edges) -> None:
        self.placed.append(block)
        if isinstance(block, Hexagon):
            self.hex_placed += 1
        else:
            self.prism_placed += 1
        for e in edges:
            i = self.pos[e]
            if self.usage[i] >= self.mult[i]:
                self.pad_used += 1
            else:
                self.unmet -= 1
                for v in e:
                    d = self.rem_deg[v]
                    self.rem_deg[v] = d - 1
                    self.odd_count += 1 if d % 2 == 0 else -1
                if self.dynamic_adj and self.usage[i] + 1 == self.mult[i]:
                    a, b = e
                    self.adj[a].discard(b)
                    self.adj[b].discard(a)
            self.usage[i] += 1

    def _unplace(self, block, edges) -> None:
        self.placed.pop()
        if isinstance(block, Hexagon):
            self.hex_placed -= 1
        else:
            self.prism_placed -= 1
        for e in edges:
            i = self.pos[e]
            self.usage[i] -= 1
            if self.usage[i] >= self.mult[i]:
                self.pad_used -= 1
            else:
                self.unmet += 1
                for v in e:
                    d = self.rem_deg[v]
                    self.rem_deg[v] = d + 1
                    self.odd_count += 1 if d % 2 == 0 else -1
                if self.dynamic_adj and self.usage[i] + 1 == self.mult[i]:
                    a, b = e
                    self.adj[a].add(b)
                    self.adj[b].add(a)

    # -- pruning

    def _future_pairs(self):
        """Feasible (hexagons, prisms) still to be placed, or None if pinned."""
        cfg = self.cfg
        if cfg.target_counts is not None:
            a = cfg.target_counts[0] - self.hex_placed
            b = cfg.target_counts[1] - self.prism_placed
            if a < 0 or b < 0:
                return []
            slack = self.pad_budget - self.pad_used
            if any(6 * a + 9 * b == self.unmet + extra for extra in range(slack + 1)):
                return [(a, b)]
            return []
        need_h = max(0, cfg.min_hexagons - self.hex_placed)
        need_p = max(0, cfg.min_prisms - self.prism_placed)
        if not cfg.hexagons and need_h:
            return []
        if not cfg.prisms and need_p:
            return []
        slack = self.pad_budget - self.pad_used
        pairs = []
        for total in range(self.unmet, self.unmet + slack + 1):
            for b in range(need_p, total // 9 + 1):
                rest = total - 9 * b
                if rest % 6 == 0 and rest // 6 >= need_h:
                    if not cfg.hexagons and rest:
                        continue
                    if not cfg.prisms and b:
                        continue
                    pairs.append((rest // 6, b))
        return pairs

    def _degree_ok(self, rd, a_max, b_max, slack) -> bool:
        key = (rd, a_max, b_max, slack)
        hit = self._deg_cache.get(key)
        if hit is not None:
            return hit
        ok = False
        for q in range(min(b_max, (rd + slack) // 3) + 1):
            lo = rd - 3 * q
            hi = rd + slack - 3 * q
            if hi < 0:
                break
            p_min = max(0, (lo + 1) // 2)
            if 2 * p_min <= hi and p_min <= a_max:
                ok = True
                break
        self._deg_cache[key] = ok
        return ok

    def _prune(self) -> bool:
        pairs = self._future_pairs()
        if not pairs:
            return False
        if not self.cfg.degree_prunes:
            return True
        a_max = max(a for a, _ in pairs)
        b_max = max(b for _, b in pairs)
        if self.pad_budget == 0 and self.odd_count > 6 * b_max:
            return False
        slack = self.pad_budget - self.pad_used
        for v, rd in self.rem_deg.items():
            if rd and not self._degree_ok(rd, a_max, b_max, slack):
                return False
        return True

    # -- candidates

    def _reuse_count(self, edges) -> int:
        return sum(1 for e in edges if self.usage[self.pos[e]] >= self.mult[self.pos[e]])

    def _candidates(self, e):
        cfg = self.cfg
        want_hex = cfg.hexagons
        want_prism = cfg.prisms
        if cfg.target_counts is not None:
            want_hex = want_hex and self.hex_placed < cfg.target_counts[0]
            want_prism = want_prism and self.prism_placed < cfg.target_counts[1]
        prisms_due = want_prism and self.prism_placed < max(
            cfg.min_prisms, cfg.target_counts[1] if cfg.target_counts else 0
        )
        groups = [
            hexagons_through(self.adj, e) if want_hex else (),
            prisms_through(self.adj, e) if want_prism else (),
        ]
        if prisms_due:
            # place the scarcer shape first while it is still owed
            groups.reverse()
        out = []
        for group in groups:
            for block in group:
                edges = block_edges(block)
                if self.pad_budget:
                    reuse = self._reuse_count(edges)
                    if self.pad_used + reuse > self.pad_budget:
                        continue
                out.append((block, edges))
        return out

    # -- the search proper

    def _branch_edge(self):
        """The unmet edge at the least-degree endpoints, or None when done."""
        best = None
        best_key = None
        order, usage, mult, rd = self.order, self.usage, self.mult, self.rem_deg
        for i, e in enumerate(order):
            if usage[i] >= mult[i]:
                continue
            key = rd[e[0]] + rd[e[1]]
            if best_key is None or key < best_key:
                best, best_key = e, key
        return best

    def _node(self, depth: int) -> bool:
        self.stats.nodes += 1
        self.stats.max_depth = max(self.stats.max_depth, depth)
        if self.cfg.node_budget is not None and self.stats.nodes > self.cfg.node_budget:
            self.exceeded = True
            return False
        if self.unmet == 0:
            return self._complete()
        if not self._prune():
            return False
        e = self._branch_edge()
        for block, edges in self._candidates(e):
            if self.exceeded:
                return False
            self.stats.placements += 1
            self._place(block, edges)
            done = self._node(depth + 1)
            self._unplace(block, edges)
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
        self.solution = tuple(self.placed)
        padding = []
        for i, e in enumerate(self.order):
            padding.extend([e] * (self.usage[i] - self.mult[i]))
        self.solution_padding = tuple(padding)
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
        found = False
        root = self._root_block(host) if self.cfg.symmetry_breaking else None
        if root is not None:
            self.stats.nodes += 1
            self.stats.placements += 1
            self._place(root, block_edges(root))
            found = self._node(1)
        else:
            found = self._node(0)
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
            rest = multiset - Counter(leave)
            reduced = Explicit(tuple(rest.elements()))
            _check_budget_rule(reduced, cfg)
            engine = _Engine(host_edges(reduced), cfg)
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
    remaining = Counter(itertools.combinations(range(n), 2))
    for block in used_blocks:
        for e in block_edges(block):
            del remaining[e]
    host = Explicit(tuple(remaining.elements()))
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
