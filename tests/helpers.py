"""Independent brute-force oracles for the test suite.

Nothing here shares code with the package's searchers: maps are enumerated
with itertools, reachability by plain breadth-first search over explicit
adjacency, posets by filtering relation matrices.
"""

from collections import deque
from itertools import combinations, permutations, product


def subsets_closure(facets):
    """Downward closure by explicit subset enumeration."""
    out = set()
    for f in facets:
        f = tuple(f)
        for k in range(1, len(f) + 1):
            for sub in combinations(f, k):
                out.add(frozenset(sub))
    return out


def brute_chains(elements, le):
    """All nonempty chains of a poset given as a le predicate."""
    chains = []
    els = list(elements)
    for k in range(1, len(els) + 1):
        for sub in combinations(els, k):
            if all(le(a, b) or le(b, a) for a, b in combinations(sub, 2)):
                chains.append(frozenset(sub))
    return chains


def brute_simplicial_maps(src_vertices, src_simplices, tgt_vertices, tgt_simplices):
    """Every vertex function whose simplex images are simplices."""
    tgt_set = set(tgt_simplices)
    out = []
    for values in product(tgt_vertices, repeat=len(src_vertices)):
        vm = dict(zip(src_vertices, values))
        if all(
            frozenset(vm[v] for v in s) in tgt_set for s in src_simplices
        ):
            out.append(vm)
    return out


def brute_monotone_maps(src_elements, src_le, tgt_elements, tgt_le):
    """Depth-first enumeration with incremental monotonicity rejection."""
    els = list(src_elements)
    out = []
    cur = []

    def rec(i):
        if i == len(els):
            out.append(dict(zip(els, cur)))
            return
        for v in tgt_elements:
            ok = True
            for j in range(i):
                if src_le(els[i], els[j]) and not tgt_le(v, cur[j]):
                    ok = False
                    break
                if src_le(els[j], els[i]) and not tgt_le(cur[j], v):
                    ok = False
                    break
            if ok:
                cur.append(v)
                rec(i + 1)
                cur.pop()

    rec(0)
    return out


def reachable(start_keys, nodes, adjacent):
    """Plain BFS closure over an explicit adjacency predicate."""
    index = {k: i for i, k in enumerate(nodes)}
    seen = {index[k] for k in start_keys}
    queue = deque(seen)
    while queue:
        i = queue.popleft()
        for j in range(len(nodes)):
            if j not in seen and adjacent(nodes[i], nodes[j]):
                seen.add(j)
                queue.append(j)
    return {nodes[i] for i in seen}


def all_posets(n):
    """Every labeled poset on range(n), as frozensets of strict pairs."""
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    out = []
    for bits in product([0, 1], repeat=len(pairs)):
        rel = {p for p, bit in zip(pairs, bits) if bit}
        ok = True
        for a, b in rel:
            if (b, a) in rel:
                ok = False
                break
        if ok:
            for a, b in rel:
                for c, d in rel:
                    if b == c and (a, d) not in rel and a != d:
                        ok = False
                        break
                if not ok:
                    break
        if ok:
            out.append(frozenset(rel))
    return out


def posets_up_to_iso(n, connected_only=True):
    """Posets on at most n points, one labeled copy per iso class."""
    found = []
    seen_canon = set()
    for size in range(1, n + 1):
        for rel in all_posets(size):
            if connected_only:
                adj = {i: set() for i in range(size)}
                for a, b in rel:
                    adj[a].add(b)
                    adj[b].add(a)
                comp = {0}
                queue = deque([0])
                while queue:
                    x = queue.popleft()
                    for y in adj[x]:
                        if y not in comp:
                            comp.add(y)
                            queue.append(y)
                if len(comp) != size:
                    continue
            canon = min(
                tuple(sorted((p[a], p[b]) for a, b in rel))
                for p in permutations(range(size))
            )
            key = (size, canon)
            if key not in seen_canon:
                seen_canon.add(key)
                found.append((size, rel))
    return found


def connected_posets_up_to_iso(n):
    return posets_up_to_iso(n, connected_only=True)


def brute_force_min_cover(universe, sets):
    """Smallest number of ``sets`` covering ``universe``, by subset
    enumeration (keep sets small); None when no cover exists."""
    universe = frozenset(universe)
    if not universe:
        return 0
    for k in range(1, len(sets) + 1):
        for combo in combinations(range(len(sets)), k):
            if frozenset().union(*(sets[i] for i in combo)) >= universe:
                return k
    return None
