"""Decision procedures with certificates.

Two graph searches underlie everything:

* simplicial side: nodes are simplicial maps L -> K, edges join 1-contiguous
  maps (the union of the two images of every simplex is a simplex);
* finite-space side: nodes are monotone maps Q -> P, edges join pointwise
  comparable maps.  Reflexivity lets a zigzag repeat nodes, so plain
  connectivity in the comparability graph is equivalent to the alternating
  fence formulation; emitted certificates are re-normalized to alternating
  form.

In symmetric mode an equivariant n-tuple is represented by its first map,
constant on the orbits of the tuple constraint group; componentwise
conditions on tuples reduce to the same condition on first maps (the other
components differ by precomposition with a bijection of the invariant
source), and the goal is any node invariant under the full symmetric group,
which expands to a diagonal tuple.

Modes: every mode answers "yes" at once when the start is already a goal.
"exact" then runs ``_class_bfs`` from the start: moves that change the
value of one orbit class at a time, until a goal turns up or the start's
component is exhausted.  That component is the start's whole component in
the graph above, so a "no" carries an exhaustion record, and the budget
bounds the explored nodes, never the size of the map space.  "auto" first
tries connections of length <= 2 through constant and invariant maps, then
runs the exact search.  "bounded" runs the same two stages but reports
"unknown" where exact would report "no"; it never answers "no".
"""

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .actions import (
    action_tables,
    check_equivariant_tuple,
    is_invariant_elements,
    is_invariant_simplices,
    orbit_partition,
    symmetric_group,
    transposition,
    tuple_constraint_group,
)
from .complexes import base_of
from .errors import BudgetExceeded, NotEquivariant, SourceMismatch
from .witnesses import CombinatorialHomotopy, ContiguityChain


def one_contiguous(phi, psi):
    """True iff phi(s) union psi(s) is a simplex of the target for every s.

    Checking facets suffices: images of faces are subsets of facet images
    and the simplex set is downward closed.
    """
    if phi.source != psi.source or phi.target != psi.target:
        raise SourceMismatch("maps must share source and target")
    tgt = phi.target
    for s in phi.source.facets:
        if not tgt.is_simplex(phi.image(s) | psi.image(s)):
            return False
    return True


@dataclass
class SearchResult:
    status: str  # "yes" | "no" | "unknown"
    witness: object = None
    record: dict = field(default_factory=dict)

    @property
    def yes(self):
        return self.status == "yes"


def _check_tuple_inputs(maps, n):
    if len(maps) != n:
        raise SourceMismatch(f"expected {n} maps, got {len(maps)}")
    src, tgt = maps[0].source, maps[0].target
    for f in maps[1:]:
        if f.source != src or f.target != tgt:
            raise SourceMismatch("tuple maps must share source and target")
    return src, tgt


def _class_bfs(classes, start, allowed, stop, budget):
    """Deterministic BFS over moves that change the value of one class.

    Nodes are value tuples constant on each class; ``allowed(ci, cur)`` is
    the int bitmask of the values class ``ci`` may move to from ``cur``.
    Returns (parents, hit), where hit is the first node with ``stop(node)``,
    or None once the start's component is exhausted.  ``budget`` bounds the
    explored nodes.

    Exhausting these moves visits the start's whole component in the full
    graph (any two adjacent maps), so a miss proves that no goal is
    reachable:

    * simplicial side: if phi and psi are 1-contiguous, set their classes
      from phi to psi one at a time.  Every intermediate map sends each
      simplex s into phi(s) | psi(s), which is a simplex, so each step is
      simplicial and 1-contiguous with the one before.
    * finite-space side: if phi <= psi, take a class holding a point that is
      maximal where they differ.  A class is an orbit of a group acting by
      automorphisms, hence an antichain: g.x < x would give the cycle
      x = g^k.x < ... < g.x < x.  So every member is maximal where they
      differ, and lifting the class to psi keeps the map monotone (points
      below keep phi <= psi, points above already agree with psi), giving
      phi <= phi' <= psi with one class fewer to change (cf. Barmak,
      Algebraic Topology of Finite Topological Spaces and Applications,
      LNM 2032, ch. 1).  Swap the roles when psi <= phi.
    """
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


def _path_to(parents, end):
    path = [end]
    while parents[path[-1]] is not None:
        path.append(parents[path[-1]])
    path.reverse()
    return path


def _index_classes(names, name_index, group, depth):
    return [
        [name_index[x] for x in part]
        for part in orbit_partition(group, names, depth)
    ]


def _constant_on(values, classes):
    return all(all(values[i] == values[cls[0]] for i in cls) for cls in classes)


def _shortcut(path, directions):
    """The subsequence of path, from its first node to its last, with the
    shortest alternating form (a DP over the path's own nodes).

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


def _sees_all(targets):
    """A stop predicate for _class_bfs: true once every target was seen."""
    remaining = set(targets)

    def stop(vals):
        remaining.discard(vals)
        return not remaining

    return stop


def _component_stage(space, start, stop, budget, mode):
    """Run _class_bfs for a decider; returns (status, parents, hit, record).

    Exact mode answers "no" on an exhausted component; bounded mode keeps
    its contract and answers "unknown" instead.
    """
    parents, hit = _class_bfs(
        space.classes, start, space.moves(), stop, budget
    )
    explored = len(parents)
    if mode == "bounded":
        status = "yes" if hit is not None else "unknown"
        return status, parents, hit, {"stage": "bounded", "explored": explored}
    record = {"total_nodes": explored, "explored": explored, "stage": "exact"}
    if hit is None:
        record["exhausted_component"] = True
    return ("yes" if hit is not None else "no"), parents, hit, record


def _enumerate_classes(classes, nvalues, size, fits, budget, first_only,
                       what):
    """Value tuples constant on classes, in lex order, built class by class.

    ``fits(ci, values)`` judges the value just written into class ci against
    the classes before it; later classes still hold -1.  ``trial`` keeps the
    next value to try for each class, so the walk needs no recursion: one
    frame per class would overflow Python's stack on large sources.
    """
    values = [-1] * size
    trial = [0] * len(classes)
    out = []
    ci = 0
    while ci >= 0:
        if ci == len(classes):
            out.append(tuple(values))
            if budget is not None and len(out) > budget:
                raise BudgetExceeded(f"more than {budget} {what}")
            if first_only:
                break
            ci -= 1
            continue
        cls = classes[ci]
        v = trial[ci]
        while v < nvalues:
            for i in cls:
                values[i] = v
            v += 1
            if fits(ci, values):
                break
        else:
            for i in cls:
                values[i] = -1
            trial[ci] = 0
            ci -= 1
            continue
        trial[ci] = v
        ci += 1
    return out


# ---------------------------------------------------------------------------
# simplicial map space
# ---------------------------------------------------------------------------


class _SimplicialSpace:
    """Enumeration and 1-contiguity tests over simplicial maps L -> K."""

    def __init__(self, source, target, classes=None):
        source, target = base_of(source), base_of(target)
        self.source = source
        self.target = target
        self.sverts = list(source.vertices)
        self.svi = {v: i for i, v in enumerate(self.sverts)}
        self.tverts = list(target.vertices)
        self.tvi = {v: i for i, v in enumerate(self.tverts)}
        self.facets = [
            tuple(self.svi[v] for v in f) for f in source.facet_names()
        ]
        if len(self.tverts) > 20:
            raise BudgetExceeded(
                "contiguity search targets are limited to 20 vertices"
            )
        lut = np.zeros(1 << len(self.tverts), dtype=bool)
        for s in target.simplices:
            mask = 0
            for v in s:
                mask |= 1 << self.tvi[v]
            lut[mask] = True
        self.lut = lut
        if classes is None:
            classes = [[i] for i in range(len(self.sverts))]
        self.classes = classes
        self._facets_of_vertex = [[] for _ in self.sverts]
        for fi, f in enumerate(self.facets):
            for i in f:
                self._facets_of_vertex[i].append(fi)

    def enumerate_maps(self, budget=None, classes=None, extra_ok=None,
                       first_only=False):
        """Valid maps constant on classes, as value tuples in lex order."""
        classes = self.classes if classes is None else classes
        touched = [self._touched(cls) for cls in classes]

        def fits(ci, values):
            masks = {}
            for fi in touched[ci]:
                mask = 0
                for i in self.facets[fi]:
                    if values[i] >= 0:
                        mask |= 1 << values[i]
                if not self.lut[mask]:
                    return False
                masks[fi] = mask
            return extra_ok is None or extra_ok(values, touched[ci], masks)

        return _enumerate_classes(
            classes, len(self.tverts), len(self.sverts), fits, budget,
            first_only, "simplicial maps",
        )

    def _touched(self, cls):
        return sorted({fi for i in cls for fi in self._facets_of_vertex[i]})

    def full_masks(self, values):
        out = []
        for f in self.facets:
            mask = 0
            for i in f:
                mask |= 1 << values[i]
            out.append(mask)
        return out

    def moves(self):
        """``allowed`` for _class_bfs over self.classes.

        Class ci may move to w when every touched facet's image plus w is a
        simplex: the new map is then simplicial and 1-contiguous with cur.
        """
        ext = {}
        for m in np.flatnonzero(self.lut).tolist():
            ext[m] = sum(
                1 << w for w in range(len(self.tverts))
                if self.lut[m | (1 << w)]
            )
        touched = [self._touched(cls) for cls in self.classes]
        every = (1 << len(self.tverts)) - 1
        last = [None, None]  # cur and its facet masks

        def allowed(ci, cur):
            if last[0] is not cur:
                last[0], last[1] = cur, self.full_masks(cur)
            out = every
            for fi in touched[ci]:
                out &= ext[last[1][fi]]
            return out

        return allowed

    def pair_contiguous(self, a, b):
        for f in self.facets:
            mask = 0
            for i in f:
                mask |= (1 << a[i]) | (1 << b[i])
            if not self.lut[mask]:
                return False
        return True

    def directions(self, a, b):
        """Contiguity is symmetric: both ways or neither (see _shortcut)."""
        return 3 if self.pair_contiguous(a, b) else 0

    def values_of(self, vertex_map):
        return tuple(self.tvi[vertex_map[v]] for v in self.sverts)

    def map_of(self, values):
        return {v: self.tverts[w] for v, w in zip(self.sverts, values)}

    def bridge(self, a, b, budget=None):
        """A class-constant map 1-contiguous with both a and b, or None."""
        am = self.full_masks(a)
        bm = self.full_masks(b)

        def extra_ok(values, touched, fmasks):
            for fi in touched:
                if not (self.lut[fmasks[fi] | am[fi]]
                        and self.lut[fmasks[fi] | bm[fi]]):
                    return False
            return True

        found = self.enumerate_maps(
            budget=budget, extra_ok=extra_ok, first_only=True
        )
        return found[0] if found else None


QUICK_ENUM_BUDGET = 2_000


def _simplicial_quick(space, sigma_classes, start, budget):
    """A path of length <= 2 from an invariant map to start, or None.

    Constant maps come first (always simplicial and invariant); a full
    enumeration of invariant maps is attempted only within a small budget,
    because the exact stage will decide anyway.
    """
    candidates = [
        tuple([w] * len(space.sverts)) for w in range(len(space.tverts))
    ]
    try:
        candidates += space.enumerate_maps(
            budget=QUICK_ENUM_BUDGET, classes=sigma_classes
        )
    except BudgetExceeded:
        pass
    seen = set()
    candidates = [c for c in candidates if not (c in seen or seen.add(c))]
    for phi in candidates:
        if phi == start:
            return [start]
        if space.pair_contiguous(phi, start):
            return [phi, start]
    for phi in candidates:
        mid = space.bridge(phi, start, budget=budget)
        if mid is not None:
            return [phi, mid, start]
    return None


# ---------------------------------------------------------------------------
# symmetric / plain contiguity deciders
# ---------------------------------------------------------------------------


def sym_contiguous(maps, n, depth, mode="exact", budget=50_000,
                   target_ordered=None):
    """Decide symmetric contiguity of an equivariant tuple of simplicial maps.

    Returns SearchResult; a yes carries a ContiguityChain from a diagonal
    invariant tuple to the given tuple.
    """
    source, target = _check_tuple_inputs(maps, n)
    if not is_invariant_simplices(source.simplices, symmetric_group(n), depth):
        raise NotEquivariant("source is not an invariant subcomplex")
    tables = [f.vertex_map for f in maps]
    ok, viol = check_equivariant_tuple(tables, n, depth, domain=source.vertices)
    if not ok:
        raise NotEquivariant(f"tuple is not equivariant: violated at {viol!r}")

    G = tuple_constraint_group(n)
    space = _SimplicialSpace(source, target)
    g_classes = _index_classes(space.sverts, space.svi, G.elements, depth)
    sigma_classes = _index_classes(
        space.sverts, space.svi, symmetric_group(n), depth
    )
    space.classes = g_classes
    start = space.values_of(tables[0])

    swaps = action_tables(
        [transposition(n, 1, j) for j in range(1, n + 1)], space.sverts, depth
    )

    def chain_of(path_values):
        levels = []
        for vals in path_values:
            f1 = space.map_of(vals)
            levels.append([
                {v: f1[act[v]] for v in space.sverts} for act in swaps
            ])
        return ContiguityChain(
            n=n, depth=depth, symmetric=True, source=source,
            target=target_ordered if target_ordered is not None else target,
            levels=levels,
        )

    def is_diag(vals):
        return _constant_on(vals, sigma_classes)

    if is_diag(start):
        return SearchResult("yes", chain_of([start]), {"stage": "start"})

    if mode in ("auto", "bounded"):
        quick = _simplicial_quick(space, sigma_classes, start, budget)
        if quick is not None:
            return SearchResult("yes", chain_of(quick), {"stage": "quick"})

    if not _constant_on(start, g_classes):
        raise NotEquivariant("tuple's first map is not constraint-invariant")
    status, parents, hit, record = _component_stage(
        space, start, is_diag, budget, mode
    )
    if status != "yes":
        return SearchResult(status, record=record)
    path = _shortcut(_path_to(parents, hit)[::-1], space.directions)
    return SearchResult("yes", chain_of(path), record)


def plain_contiguous(maps, depth=0, mode="exact", budget=50_000,
                     target_ordered=None):
    """Do the maps lie in one contiguity class?  Witness: chain from a
    diagonal tuple (no invariance requirement) to the given tuple."""
    n = len(maps)
    source, target = _check_tuple_inputs(maps, n)
    space = _SimplicialSpace(source, target)
    starts = [space.values_of(f.vertex_map) for f in maps]

    def chain_of(branch_paths):
        c = max(len(p) for p in branch_paths)
        levels = []
        for l in range(c):
            levels.append([
                space.map_of(p[l] if l < len(p) else p[-1])
                for p in branch_paths
            ])
        return ContiguityChain(
            n=n, depth=depth, symmetric=False, source=source,
            target=target_ordered if target_ordered is not None else target,
            levels=levels,
        )

    if all(s == starts[0] for s in starts):
        return SearchResult("yes", chain_of([[s] for s in starts]),
                            {"stage": "start"})

    if mode in ("auto", "bounded"):
        quick = _plain_quick_simplicial(space, starts, budget)
        if quick is not None:
            return SearchResult("yes", chain_of(quick), {"stage": "quick"})

    status, parents, _, record = _component_stage(
        space, starts[0], _sees_all(starts), budget, mode
    )
    if status != "yes":
        return SearchResult(status, record=record)
    branch_paths = [
        _shortcut(_path_to(parents, s), space.directions) for s in starts
    ]
    return SearchResult("yes", chain_of(branch_paths), record)


def _plain_quick_simplicial(space, starts, budget):
    """A common meeting map at distance <= 1 from every start, or None.

    Candidates: the given maps themselves and the constant maps (always
    simplicial).
    """
    candidates = list(starts)
    candidates += [tuple([w] * len(space.sverts)) for w in range(len(space.tverts))]
    for cand in candidates:
        if all(
            cand == s or space.pair_contiguous(cand, s) for s in starts
        ):
            return [[cand] if s == cand else [cand, s] for s in starts]
    return None


# ---------------------------------------------------------------------------
# monotone map space
# ---------------------------------------------------------------------------


class _MonotoneSpace:
    """Enumeration and comparability tests over monotone maps Q -> P."""

    def __init__(self, Q, P, classes=None):
        self.Q = Q
        self.P = P
        self.els = list(Q.elements)
        self.ei = {x: i for i, x in enumerate(self.els)}
        self.tels = list(P.elements)
        self.ti = {x: i for i, x in enumerate(self.tels)}
        if classes is None:
            classes = [[i] for i in range(len(self.els))]
        self.classes = classes

    def enumerate_maps(self, budget=None, classes=None, allowed=None,
                       first_only=False):
        """Monotone maps constant on classes; ``allowed[i]`` restricts values."""
        classes = self.classes if classes is None else classes
        leq_q, leq_p = self.Q.leq, self.P.leq
        nq = len(self.els)

        def fits(ci, values):
            v = values[classes[ci][0]]
            for i in classes[ci]:
                if allowed is not None and v not in allowed[i]:
                    return False
                for j in range(nq):
                    w = values[j]
                    if w < 0:
                        continue
                    if leq_q[i, j] and not leq_p[v, w]:
                        return False
                    if leq_q[j, i] and not leq_p[w, v]:
                        return False
            return True

        return _enumerate_classes(
            classes, len(self.tels), nq, fits, budget, first_only,
            "monotone maps",
        )

    def moves(self):
        """``allowed`` for _class_bfs over self.classes.

        Class ci may move to a value comparable with its current one that
        stays below the values of the points above the class and above those
        of the points below it: the new map is then monotone and comparable
        with cur.
        """
        leq_q, leq_p = self.Q.leq, self.P.leq
        npp = len(self.tels)
        up = [sum(1 << w for w in range(npp) if leq_p[v, w])
              for v in range(npp)]
        down = [sum(1 << w for w in range(npp) if leq_p[w, v])
                for v in range(npp)]
        below, above = [], []
        for cls in self.classes:
            members = set(cls)
            for rel, out in ((leq_q[:, cls].any(axis=1), below),
                             (leq_q[cls].any(axis=0), above)):
                out.append([j for j in np.flatnonzero(rel).tolist()
                            if j not in members])
        heads = [cls[0] for cls in self.classes]

        def allowed(ci, cur):
            v = cur[heads[ci]]
            out = up[v] | down[v]
            for j in below[ci]:
                out &= up[cur[j]]
            for j in above[ci]:
                out &= down[cur[j]]
            return out

        return allowed

    def directions(self, a, b):
        """1 when a <= b, plus 2 when a >= b (see _shortcut)."""
        return self.pair_le(a, b) | (self.pair_le(b, a) << 1)

    def pair_le(self, a, b):
        return all(self.P.leq[x, y] for x, y in zip(a, b))

    def values_of(self, mapping):
        return tuple(self.ti[mapping[x]] for x in self.els)

    def map_of(self, values):
        return {x: self.tels[v] for x, v in zip(self.els, values)}

    def bound_map(self, a, b, upper=True, budget=None):
        """A class-constant monotone map above (below) both a and b, or None."""
        npp = len(self.tels)
        allowed = []
        for i in range(len(self.els)):
            if upper:
                s = {
                    v for v in range(npp)
                    if self.P.leq[a[i], v] and self.P.leq[b[i], v]
                }
            else:
                s = {
                    v for v in range(npp)
                    if self.P.leq[v, a[i]] and self.P.leq[v, b[i]]
                }
            if not s:
                return None
            allowed.append(s)
        found = self.enumerate_maps(
            budget=budget, allowed=allowed, first_only=True
        )
        return found[0] if found else None


def _alternate(path, le):
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


def _monotone_quick(space, sigma_classes, start, budget):
    """Constant maps first, then a budget-bounded invariant enumeration."""
    candidates = [
        tuple([v] * len(space.els)) for v in range(len(space.tels))
    ]
    try:
        candidates += space.enumerate_maps(
            budget=QUICK_ENUM_BUDGET, classes=sigma_classes
        )
    except BudgetExceeded:
        pass
    seen = set()
    candidates = [c for c in candidates if not (c in seen or seen.add(c))]
    for phi in candidates:
        if phi == start:
            return [start]
        if space.pair_le(phi, start) or space.pair_le(start, phi):
            return [phi, start]
    for phi in candidates:
        mid = space.bound_map(phi, start, upper=True, budget=budget)
        if mid is not None:
            return [phi, mid, start]
        mid = space.bound_map(phi, start, upper=False, budget=budget)
        if mid is not None:
            return [phi, mid, start]
    return None


# ---------------------------------------------------------------------------
# symmetric / plain combinatorial homotopy deciders
# ---------------------------------------------------------------------------


def sym_comb_homotopic(maps, n, depth, mode="exact", budget=50_000):
    """Decide symmetric combinatorial homotopy of an equivariant tuple of
    monotone maps on an invariant open source.  Witness: a table over
    J_{n,m} with m the re-normalized path length."""
    if len(maps) != n:
        raise SourceMismatch(f"expected {n} maps, got {len(maps)}")
    Q, P = maps[0].source, maps[0].target
    for f in maps[1:]:
        if f.source != Q or f.target != P:
            raise SourceMismatch("tuple maps must share source and target")
    if not is_invariant_elements(Q.elements, symmetric_group(n), depth):
        raise NotEquivariant("source is not an invariant subset")
    tables = [f.mapping for f in maps]
    ok, viol = check_equivariant_tuple(tables, n, depth, domain=Q.elements)
    if not ok:
        raise NotEquivariant(f"tuple is not equivariant: violated at {viol!r}")

    G = tuple_constraint_group(n)
    space = _MonotoneSpace(Q, P)
    g_classes = _index_classes(space.els, space.ei, G.elements, depth)
    sigma_classes = _index_classes(space.els, space.ei, symmetric_group(n), depth)
    space.classes = g_classes
    start = space.values_of(tables[0])
    swaps = action_tables(
        [transposition(n, 1, j) for j in range(1, n + 1)], Q.elements, depth
    )

    def homotopy_of(path):
        seq = _alternate(path, space.pair_le)
        m = len(seq) - 1
        table = {}
        for x in Q.elements:
            table[(x, (0, 0))] = space.map_of(seq[0])[x]
        for l in range(1, m + 1):
            fl = space.map_of(seq[l])
            for j, act in enumerate(swaps, start=1):
                for x in Q.elements:
                    table[(x, (l, j))] = fl[act[x]]
        return CombinatorialHomotopy(
            n=n, m=m, depth=depth, symmetric=True,
            source=Q, target=P, table=table,
        )

    def is_diag(vals):
        return _constant_on(vals, sigma_classes)

    if is_diag(start):
        return SearchResult("yes", homotopy_of([start]), {"stage": "start"})

    if mode in ("auto", "bounded"):
        quick = _monotone_quick(space, sigma_classes, start, budget)
        if quick is not None:
            return SearchResult(
                "yes", homotopy_of(quick), {"stage": "quick"}
            )

    if not _constant_on(start, g_classes):
        raise NotEquivariant("tuple's first map is not constraint-invariant")
    status, parents, hit, record = _component_stage(
        space, start, is_diag, budget, mode
    )
    if mode != "bounded" and not Q.is_connected():
        record["disconnected_source"] = True
    if status != "yes":
        return SearchResult(status, record=record)
    path = _shortcut(_path_to(parents, hit)[::-1], space.directions)
    return SearchResult("yes", homotopy_of(path), record)


def plain_comb_homotopic(maps, depth=0, mode="exact", budget=50_000):
    """Are the monotone maps combinatorially homotopic (common fence start)?"""
    n = len(maps)
    Q, P = maps[0].source, maps[0].target
    for f in maps[1:]:
        if f.source != Q or f.target != P:
            raise SourceMismatch("tuple maps must share source and target")
    space = _MonotoneSpace(Q, P)
    starts = [space.values_of(f.mapping) for f in maps]

    def homotopy_of(branch_paths):
        seqs = [_alternate(p, space.pair_le) for p in branch_paths]
        m = max(len(s) - 1 for s in seqs)
        seqs = [s + [s[-1]] * (m - (len(s) - 1)) for s in seqs]
        table = {}
        for x in Q.elements:
            table[(x, (0, 0))] = space.map_of(seqs[0][0])[x]
        for j in range(1, n + 1):
            for l in range(1, m + 1):
                fl = space.map_of(seqs[j - 1][l])
                for x in Q.elements:
                    table[(x, (l, j))] = fl[x]
        return CombinatorialHomotopy(
            n=n, m=m, depth=depth, symmetric=False,
            source=Q, target=P, table=table,
        )

    if all(s == starts[0] for s in starts):
        return SearchResult(
            "yes", homotopy_of([[s] for s in starts]), {"stage": "start"}
        )

    if mode in ("auto", "bounded"):
        quick = _plain_quick_monotone(space, starts, budget)
        if quick is not None:
            return SearchResult("yes", homotopy_of(quick), {"stage": "quick"})

    status, parents, _, record = _component_stage(
        space, starts[0], _sees_all(starts), budget, mode
    )
    if status != "yes":
        return SearchResult(status, record=record)
    branch_paths = [
        _shortcut(_path_to(parents, s), space.directions) for s in starts
    ]
    return SearchResult("yes", homotopy_of(branch_paths), record)


def _plain_quick_monotone(space, starts, budget):
    """A common meeting map comparable with every start, or None.

    Candidates: the given maps and the constant maps (always monotone).
    """
    candidates = list(starts)
    candidates += [tuple([v] * len(space.els)) for v in range(len(space.tels))]
    for cand in candidates:
        if all(
            cand == s or space.pair_le(cand, s) or space.pair_le(s, cand)
            for s in starts
        ):
            return [[cand] if s == cand else [cand, s] for s in starts]
    return None
