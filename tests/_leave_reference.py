"""The leave classes of a complete graph by a full scan, as a reference.

Every edge subset of the given size is read in combinations order and kept
when it is isomorphic to no subset kept before it, so each class is
represented by its first member.  Subsets whose vertices are not exactly
0..k-1 are skipped: swapping an unused label with a larger used one maps
every edge to an earlier one, so such a subset is never first.  It needs
only the standard library, so it runs where networkx is missing.
"""

from __future__ import annotations

import itertools
from functools import partial, reduce
from operator import or_


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


def full_scan_leave_classes(n: int, bound: int) -> list:
    """The first subset of each isomorphism class of bound-edge subsets of
    K_n, in combinations order over the sorted edges."""
    edges = list(itertools.combinations(range(n), 2))
    classes = []
    buckets: dict = {}
    masks = [1 << u | 1 << v for u, v in edges]
    unions = map(partial(reduce, or_), itertools.combinations(masks, bound), itertools.repeat(0))
    for subset, m in zip(itertools.combinations(edges, bound), unions):
        if m & (m + 1):
            continue
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
