"""Independent brute-force oracles for the test suite.

Nothing here shares code with the package's searchers: maps are enumerated
with itertools, reachability by plain breadth-first search over explicit
adjacency, posets by filtering relation matrices.  The chain-checker oracle
tests every simplex by the frozenset of its vertex names, and the old map
table writer sorts every table by ``ckey`` on its own.  The class-move
oracle is the search kernel's former tuple form, run on move masks that the
tests compute by brute force.  The path normaliser oracle is the searchers'
former two passes: ``shortcut_without_repeats``, then ``alternate``.  The
beat-point oracle tests every point against every pair of points, and
``is_monotone`` every pair of source elements.  The reference complex ``NameComplex`` keeps every simplex as a frozenset of
names, the representation complexes used before they kept rank tuples.
The document reader oracles (``frozen_complex_from_doc`` and its siblings)
are the readers as they stood before names were matched by position: every
label, wherever it occurs, is frozen and looked up by hash, and complexes
and posets are built from names by ``from_facets`` and
``poset_from_relations``.
"""

from collections import deque
from itertools import combinations, permutations, product

from symtc.errors import BudgetExceeded


def subsets_closure(facets):
    """Downward closure by explicit subset enumeration."""
    out = set()
    for f in facets:
        f = tuple(f)
        for k in range(1, len(f) + 1):
            for sub in combinations(f, k):
                out.add(frozenset(sub))
    return out


class NameComplex:
    """Reference complex on names: every simplex a frozenset of vertex
    labels, closed by subset enumeration, with pairwise order checks."""

    def __init__(self, vertices, facets):
        self.vertices = frozenset(vertices)
        self.simplices = frozenset(
            subsets_closure(facets) | {frozenset([v]) for v in self.vertices}
        )

    def facets(self):
        return frozenset(
            s for s in self.simplices if not any(s < t for t in self.simplices)
        )

    def is_simplex(self, s):
        return frozenset(s) in self.simplices

    def is_subcomplex_of(self, other):
        return self.simplices <= other.simplices

    def totally_ordered(self, le):
        """Is every simplex a chain of ``le``?"""
        return all(
            le(a, b) or le(b, a)
            for s in self.simplices
            for a, b in combinations(s, 2)
        )


def le_table(P):
    """The order of a poset as rows of bools by element index, read
    through ``P.le`` one pair at a time."""
    return [[P.le(a, b) for b in P.elements] for a in P.elements]


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


def is_monotone(f):
    """Is the map ``f`` defined on every source element, into the target,
    and order preserving?  Every pair is checked through ``le``."""
    els, mapping = f.source.elements, f.mapping
    if any(x not in mapping or mapping[x] not in f.target.elements
           for x in els):
        return False
    return all(f.target.le(mapping[a], mapping[b])
               for a in els for b in els if f.source.le(a, b))


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


def tuple_class_bfs(classes, start, allowed, stop, budget):
    """The class-move BFS on value tuples, as it stood before nodes were
    packed into ints: the reference the packed kernel must match node for
    node.  ``allowed(ci, cur)`` is the bitmask of the values class ci may
    move to from the tuple cur; returns (parents, hit)."""
    parents = {start: None}
    if stop(start):
        return parents, start
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for ci, cls in enumerate(classes):
            mask = allowed(ci, cur) & ~(1 << cur[cls[0]])
            while mask:
                low = mask & -mask
                mask ^= low
                w = low.bit_length() - 1
                nxt = list(cur)
                for i in cls:
                    nxt[i] = w
                nxt = tuple(nxt)
                if nxt in parents:
                    continue
                parents[nxt] = cur
                if budget is not None and len(parents) > budget:
                    raise BudgetExceeded(
                        f"search explored more than {budget} nodes"
                    )
                if stop(nxt):
                    return parents, nxt
                queue.append(nxt)
    return parents, None


def beat_points(points, le):
    """The beat points of the poset on ``points`` ordered by ``le``: those
    whose strictly smaller points have a maximum, or whose strictly larger
    points have a minimum, by comparing every pair."""
    out = set()
    for x in points:
        below = [y for y in points if y != x and le(y, x)]
        above = [y for y in points if y != x and le(x, y)]
        if (any(all(le(z, y) for z in below) for y in below)
                or any(all(le(y, z) for z in above) for y in above)):
            out.add(x)
    return out


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


def chain_failures(cert):
    """Per-simplex, name-based check of a contiguity chain.

    Returns ``(ok, failures)`` with the same messages, in the same order and
    with the same early returns as ``symtc.verify.validate``: every source
    simplex's image is looked up as a frozenset of target vertices, and the
    group acts through ``actions.act_name``, one name at a time.
    """
    from symtc.actions import act_name, symmetric_group
    from symtc.complexes import base_of
    from symtc.util import name_of
    from symtc.verify import projection_of_name

    failures = []

    def fail(msg):
        if len(failures) < 50:
            failures.append(msg)

    def result():
        return (not failures, failures)

    source = base_of(cert.source)
    target = base_of(cert.target)
    n = cert.n
    if not cert.levels:
        fail("chain has no levels")
        return result()
    verts = list(source.vertices)
    tverts = set(target.vertices)
    rank = {v: i for i, v in enumerate(verts)}

    def in_order(simplices):
        return sorted(simplices, key=lambda s: sorted(rank[v] for v in s))

    for l, level in enumerate(cert.levels):
        if len(level) != n:
            fail(f"level {l} has {len(level)} maps, expected {n}")
            return result()
        for j, vm in enumerate(level, start=1):
            for v in verts:
                if v not in vm:
                    fail(f"level {l} map {j} misses vertex {v!r}")
                    return result()
                if vm[v] not in tverts:
                    fail(f"level {l} map {j} sends {v!r} outside the target")
                    return result()
            extra = [k for k in vm if k not in rank]
            if extra:
                fail(f"level {l} map {j} has key {extra[0]!r} outside the "
                     f"source")
                return result()
            bad = [
                s for s in source.simplices
                if frozenset(vm[v] for v in s) not in target.simplices
            ]
            for s in in_order(bad):
                fail(
                    f"level {l} map {j} sends simplex {name_of(s)!r} to "
                    f"a non-simplex"
                )

    first = cert.levels[0]
    for vm in first[1:]:
        if vm != first[0]:
            fail("first level is not a diagonal tuple")
            break

    for l in range(1, len(cert.levels)):
        prev, cur = cert.levels[l - 1], cert.levels[l]
        for j in range(n):
            bad = [
                s for s in source.simplices
                if frozenset(prev[j][v] for v in s)
                | frozenset(cur[j][v] for v in s) not in target.simplices
            ]
            for s in in_order(bad):
                fail(
                    f"levels {l - 1} and {l} are not 1-contiguous on "
                    f"branch {j + 1} at {name_of(s)!r}"
                )

    if cert.symmetric:
        group = symmetric_group(n)
        acts = [{v: act_name(g, v, cert.depth) for v in verts} for g in group]
        vset = set(verts)
        for act in acts:
            for v in verts:
                if act[v] not in vset:
                    fail(f"source is not invariant: {v!r} -> {act[v]!r}")
                    return result()
        for g, act in zip(group, acts):
            for v in verts:
                if first[0].get(act[v]) != first[0].get(v):
                    fail(f"first level is not invariant: g={g!r}, v={v!r}")
                    break
        for l, level in enumerate(cert.levels):
            for g, act in zip(group, acts):
                for j in range(1, n + 1):
                    fj, fgj = level[j - 1], level[g(j) - 1]
                    for v in verts:
                        if fj[act[v]] != fgj[v]:
                            fail(
                                f"level {l} violates equivariance at "
                                f"(g={g!r}, v={v!r}, j={j})"
                            )
                            break

    if cert.projection_endpoints:
        order = getattr(cert.target, "order", None)
        if order is None:
            fail("projection endpoints claimed but target has no order")
        else:
            last = cert.levels[-1]
            for j in range(1, n + 1):
                for v in verts:
                    try:
                        want = projection_of_name(v, cert.depth, j, order.le)
                    except ValueError as exc:
                        fail(str(exc))
                        return result()
                    if last[j - 1][v] != want:
                        fail(
                            f"final level branch {j} disagrees with the "
                            f"projection at {v!r}"
                        )
    return result()


def map_table_rows(table):
    """A vertex map as pair rows sorted by ``ckey`` of the key, each key and
    value thawed on its own: the per-table chain level writer."""
    from symtc.util import ckey

    def thaw(x):
        return [thaw(m) for m in x] if isinstance(x, tuple) else x

    return [
        [thaw(k), thaw(v)]
        for k, v in sorted(table.items(), key=lambda kv: ckey(kv[0]))
    ]


def shortcut_without_repeats(path, directions):
    """The subsequence of path, from its first node to its last, with the
    shortest alternating form (a DP over the path's own nodes), as it stood
    before the search emitted that form's repeats itself.

    ``directions(a, b)`` is a bitmask of the ways a may step to b: 1 when
    a <= b, 2 when a >= b, 0 when they are not adjacent.  A step keeps the
    form 0 <= 1 >= 2 <= ... when it goes the needed way and costs a repeat
    otherwise; contiguity steps go both ways, so there the DP counts hops.
    """
    links = [[directions(path[j], path[k]) for j in range(k)]
             for k in range(len(path))]
    best = [{0: (0, None)}]  # per node: length parity -> (length, previous)
    for k in range(1, len(path)):
        here = {}
        for j, dirs in enumerate(links[k]):
            if not dirs:
                continue
            for parity, (length, _) in best[j].items():
                new = length + (1 if dirs & (1 << parity) else 2)
                if new % 2 not in here or new < here[new % 2][0]:
                    here[new % 2] = (new, (j, parity))
        best.append(here)
    k = len(path) - 1
    state = (k, min(best[k], key=lambda parity: best[k][parity][0]))
    out = []
    while state is not None:
        out.append(path[state[0]])
        state = best[state[0]][state[1]][1]
    return out[::-1]


def alternate(path, le):
    """Re-normalize a comparability path to the fence's alternating form.

    Position l of the result relates to position l-1 by <= when l is odd and
    by >= when l is even, matching 0 <= 1 >= 2 <= ...
    """
    seq = [path[0]]
    for u, w in zip(path, path[1:]):
        while True:
            need_up = len(seq) % 2 == 1
            if (need_up and le(u, w)) or (not need_up and le(w, u)):
                seq.append(w)
                break
            seq.append(u)  # repeat; valid in either direction
    return seq


def _interned(x, names):
    """A parsed label, frozen, as the equal object among ``names`` (a dict
    from each name to itself) when there is one."""
    from symtc.util import freeze

    x = freeze(x)
    return names.get(x, x)


def frozen_complex_from_doc(doc):
    """The freezing complex reader: vertices and facet members frozen,
    the complex built by ``from_facets``, order pairs interned."""
    from symtc.complexes import OrderedComplex, from_facets
    from symtc.errors import EmptyFacet, ParseError, UnknownVertex
    from symtc.posets import poset_from_relations
    from symtc.util import freeze

    try:
        vertices = [freeze(v) for v in doc["vertices"]]
        facets = [[freeze(v) for v in f] for f in doc["facets"]]
        K = from_facets(vertices, facets)
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed complex document: {exc}") from exc
    except (UnknownVertex, EmptyFacet) as exc:
        raise ParseError(str(exc)) from exc
    if "order" not in doc:
        return K
    declared = {v: v for v in vertices}
    try:
        pairs = [
            (_interned(a, declared), _interned(b, declared))
            for a, b in doc["order"]
        ]
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed order field: {exc}") from exc
    return OrderedComplex(K, poset_from_relations(vertices, pairs))


def frozen_poset_from_doc(doc):
    """The freezing poset reader: elements and relations frozen, the poset
    built by ``poset_from_relations``."""
    from symtc.errors import ParseError
    from symtc.posets import poset_from_relations
    from symtc.util import freeze

    try:
        elements = [freeze(x) for x in doc["elements"]]
        relations = [(freeze(a), freeze(b)) for a, b in doc["relations"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed poset document: {exc}") from exc
    return poset_from_relations(elements, relations)


def frozen_map_table(rows, keys, values):
    """The freezing map table reader: keys interned onto ``keys``, values
    onto ``values`` (each a sequence of declared names)."""
    from symtc.errors import ParseError

    keys, values = {x: x for x in keys}, {x: x for x in values}
    try:
        table = {_interned(k, keys): _interned(v, values) for k, v in rows}
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed map table: {exc}") from exc
    if len(table) != len(rows):
        raise ParseError(
            f"map table repeats a key: {len(rows)} rows, {len(table)} keys"
        )
    return table


def frozen_homotopy_table(rows, xs, ps):
    """The freezing homotopy table reader: each row's element interned onto
    ``xs`` and its value onto ``ps``."""
    from symtc.errors import ParseError
    from symtc.witnesses import fence_point_from_doc

    xs, ps = {x: x for x in xs}, {x: x for x in ps}
    table = {
        (_interned(x, xs), fence_point_from_doc(t)): _interned(v, ps)
        for x, t, v in rows
    }
    if len(table) != len(rows):
        raise ParseError(
            f"homotopy table repeats a cell: {len(rows)} rows, "
            f"{len(table)} cells"
        )
    return table
