"""Exact minimum set cover by branch and bound.

Instances are tiny (a handful of candidate pieces over a handful of orbit
units); determinism matters more than speed, so ties break by candidate
index and the bound is the classic uncovered-over-largest ratio.
"""

from math import ceil

from .errors import BudgetExceeded


def greedy_cover(universe, sets):
    """First-fit greedy cover; returns chosen indices or None if impossible."""
    uncovered = set(universe)
    chosen = []
    while uncovered:
        best = None
        best_gain = 0
        for i, s in enumerate(sets):
            gain = len(uncovered & s)
            if gain > best_gain:
                best, best_gain = i, gain
        if best is None:
            return None
        chosen.append(best)
        uncovered -= sets[best]
    return chosen


def min_cover(universe, sets, budget=None):
    """Smallest family of ``sets`` covering ``universe``.

    Returns (k, chosen indices) or (None, None) when no cover exists.
    """
    universe = frozenset(universe)
    sets = [frozenset(s) & universe for s in sets]
    if not universe:
        return 0, []
    if not any(sets):
        return None, None
    reachable = frozenset().union(*sets)
    if reachable != universe:
        return None, None

    greedy = greedy_cover(universe, sets)
    best_k = len(greedy)
    best = list(greedy)
    max_size = max(len(s) for s in sets)
    nodes = [0]

    def branch(uncovered, chosen):
        nonlocal best_k, best
        nodes[0] += 1
        if budget is not None and nodes[0] > budget:
            raise BudgetExceeded(f"set cover explored more than {budget} nodes")
        if not uncovered:
            if len(chosen) < best_k:
                best_k = len(chosen)
                best = list(chosen)
            return
        if len(chosen) + ceil(len(uncovered) / max_size) >= best_k:
            return
        # branch on the uncovered element with fewest covering sets
        pick, pick_opts = None, None
        for e in sorted(uncovered):
            opts = [i for i, s in enumerate(sets) if e in s]
            if pick_opts is None or len(opts) < len(pick_opts):
                pick, pick_opts = e, opts
        if not pick_opts:
            return
        for i in pick_opts:
            branch(uncovered - sets[i], chosen + [i])

    branch(set(universe), [])
    return best_k, best

