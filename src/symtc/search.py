"""Decision procedures with certificates.

Two graph searches underlie everything:

* simplicial side: nodes are simplicial maps L -> K, edges join 1-contiguous
  maps (the union of the two images of every simplex is a simplex);
* finite-space side: nodes are monotone maps Q -> P, edges join pointwise
  comparable maps.  Reflexivity lets a zigzag repeat nodes, so plain
  connectivity in the comparability graph is equivalent to the alternating
  fence formulation; ``_shortcut`` puts every emitted path in alternating
  form.

In symmetric mode an equivariant n-tuple is represented by its first map,
constant on the orbits of Stab(1) = {g : g(1) = 1}, the subgroup generated
by the (1, g(j)) g (1, j) (see ``actions``); componentwise
conditions on tuples reduce to the same condition on first maps (the other
components differ by precomposition with a bijection of the invariant
source), and the goal is any node invariant under the full symmetric group,
which expands to a diagonal tuple.

Modes: one driver, ``_decide``, serves all four deciders, each of which
checks its tuple and builds its map space (``_check_inputs``) and turns a
yes into its certificate (the space's ``certificate``).  The cover engine
calls the same check once, on the top level's projections, and decides
each piece by the driver on that space restricted to the piece (the
space's ``restrict``); see ``complexity``.

Every mode answers "yes" at once when the start is already a goal (plain
deciders: when all starts are equal).  "exact" then runs ``_class_bfs``
from the start: moves that change the value of one orbit class at a time,
until a goal turns up or the start's component is exhausted.  That
component is the start's whole component in the graph above, so a "no"
carries an exhaustion record, and the budget bounds the explored nodes,
never the size of the map space.  (The cover engine decides many proper
pieces "no" before searching them, by an F_2 homology obstruction or, on
symmetric pieces, a quotient test, each with its own record, and the whole
space when its search overruns; see ``complexity``.)  On the finite-space
side the search runs on the core C of the source Q instead: what is left
once beat points are removed, a whole orbit of the symmetric group at a
time (plain deciders: one point at a time).  Removing a beat point is a
strong deformation retraction (Stong, "Finite topological spaces", Trans.
AMS 123, 1966), so the inclusion i: C -> Q and the retraction r: Q -> C
give i.r joined to the identity of Q by a fence of partial retractions,
each comparable with the next; the orbits being antichains, every step
commutes with the group.  Two maps on Q therefore lie in one component
exactly when their restrictions to C do (Barmak, Algebraic Topology of
Finite Topological Spaces and Applications, LNM 2032, ch. 1), a goal
restricts to a goal on C, and h -> h.r lifts a goal and a path on C back to
Q.  So a "no" says that the start's component was exhausted on the core,
whose size every such record holds as ``core``; a piece without beat points
is its own core.  "auto" first runs a quick stage over the goals among the
starts and the constant maps, which are maps of either kind and invariant
under every group: the first candidate equal or adjacent to every start
(the plain deciders try the starts themselves before the constants)
connects them in one step; on the symmetric side a constant c then connects
to the start in two steps through ``bridge(c, start, budget)``, a
class-constant map adjacent to both.  The bridge's first-fit walk gives up
once it has tried more values than the node budget, and the exact search
then decides under the same budget.  The start check and the quick stage
work on Q itself.  Otherwise "auto" runs the exact search.  "bounded" runs
the same two stages but reports "unknown" where exact would report "no"; it
never answers "no".  Any other mode raises UnsupportedMode.

The search packs each node, a class-constant map, into one int with a bit
field per source point, and each class memoizes its moves by the fields
its move test reads (the map space's ``reads``), so a node costs a few int
operations and hashes once; only the nodes of an emitted path are unpacked.
"""

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

from .actions import (
    equivariance_violation,
    orbit_partition,  # noqa: F401  (perfbench/tracing.py wraps it here)
    positions,
    reduction,
    symmetric_group,
)
from .complexes import base_of
from .errors import (
    BudgetExceeded,
    NotEquivariant,
    SourceMismatch,
    UnsupportedMode,
)
from .util import bits
from .witnesses import CombinatorialHomotopy, ContiguityChain


@dataclass
class SearchResult:
    status: str  # "yes" | "no" | "unknown"
    witness: object = None
    record: dict = field(default_factory=dict)

    @property
    def yes(self):
        return self.status == "yes"


def _check_inputs(maps, n, depth, mode, symmetric, simplicial):
    """The map space of a decider's tuple, after the checks each decider
    makes: the mode and the tuple's shape, and for a symmetric decider an
    invariant source (every image of a name is a name and, on a complex,
    every image of a facet a simplex) and an equivariant tuple.

    The space carries what the driver decides: ``starts``, the value tuples
    of the first map (symmetric) or of every map (plain), and ``classes``,
    ``goal`` and ``swaps``: for a symmetric decider those of
    ``actions.reduction``, read like the checks from one table of
    Sigma_n's positions on the source; singletons, None and None for a
    plain one."""
    if mode not in ("exact", "auto", "bounded"):
        raise UnsupportedMode(
            f"search mode must be 'exact', 'auto' or 'bounded', not {mode!r}"
        )
    if len(maps) != n:
        raise SourceMismatch(f"expected {n} maps, got {len(maps)}")
    src, tgt = maps[0].source, maps[0].target
    for f in maps[1:]:
        if f.source != src or f.target != tgt:
            raise SourceMismatch("tuple maps must share source and target")
    tables = [f.vertex_map if simplicial else f.mapping for f in maps]
    space = (_SimplicialSpace if simplicial else _MonotoneSpace)(src, tgt)
    if symmetric:
        group = symmetric_group(n)
        perms = positions(group, space.names, depth)
        members = set(src.ranked_simplices()) if simplicial else None
        for p in perms:
            if None in p or simplicial and any(
                    tuple(sorted([p[i] for i in t])) not in members
                    for t in space.facets):
                raise NotEquivariant("source is not an invariant " + (
                    "subcomplex" if simplicial else "subset"))
        viol = equivariance_violation(group, perms, tables, space.names)
        if viol is not None:
            raise NotEquivariant(
                f"tuple is not equivariant: violated at {viol!r}")
        space.classes, space.goal, space.swaps = reduction(group, perms)
        tables = tables[:1]
    space.starts = [space.values_of(t) for t in tables]
    return space


def _class_bfs(space, start, stop, budget):
    """Deterministic BFS over moves that change the value of one class.

    Nodes are the maps constant on each of ``space.classes``, packed into
    ints (see ``_PackedNodes``); a move of class ci to value w adds
    ``(w - v) * rep`` to the node, where v is the class's value and rep has
    a 1 at the low bit of each member's field.  ``allowed(ci, values)``
    from ``space.moves()`` is the int bitmask of the values class ci may
    move to; it reads ``values`` only at the indices ``space.reads[ci]``.
    So the moves of class ci depend only on ``node & readmask``, the fields
    of those indices, and each class keeps a memo, local to the call, from
    that key to its move deltas in ascending w (its own value left out);
    a miss decodes just the read fields.

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

    On the finite-space side the deciders run this search over maps on the
    core C of the source Q (``_beat_core``), and that loses nothing.  Each
    removal step R sends the points of one orbit to their beat values and
    fixes the rest; it is monotone, R <= id or R >= id, and commutes with
    the group.  So for any map f on Q, f, f.R_1, f.R_2.R_1, ..., f.r is a
    path of invariant maps when f is invariant, each comparable with the
    next, ending at f|C . r (Stong, Trans. AMS 123, 1966).  If f|C and g|C
    are joined on C, lifting that path by h -> h.r joins f to g on Q;
    conversely restriction to C keeps maps adjacent.  A map on C constant
    on the Sigma_n classes lifts to one on Q, and such a map on Q restricts
    to one on C, so the goal is reachable on Q iff it is on C.
    """
    width, full = space.width, space.full
    allowed = space.moves()
    values = [0] * space.size
    plan = [
        (space.rep(cls), width * cls[0], space.field_mask(reads),
         [(i, width * i) for i in reads], {})
        for cls, reads in zip(space.classes, space.reads)
    ]
    parents = {start: None}
    if stop(start):
        return parents, start
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for ci, (rep, shift, readmask, reads, memo) in enumerate(plan):
            key = cur & readmask
            deltas = memo.get(key)
            if deltas is None:
                for i, s in reads:
                    values[i] = cur >> s & full
                v = cur >> shift & full
                mask = allowed(ci, values) & ~(1 << v)
                deltas = []
                while mask:
                    low = mask & -mask
                    mask ^= low
                    deltas.append((low.bit_length() - 1 - v) * rep)
                deltas = memo[key] = tuple(deltas)
            for delta in deltas:
                nxt = cur + delta
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


def _constant_on(values, classes):
    return all(all(values[i] == values[cls[0]] for i in cls) for cls in classes)


def _shortcut(path, directions):
    """The subsequence of path, from its first node to its last, with the
    shortest alternating form (a DP over the path's own nodes), in that
    form.

    ``directions(a, b)`` is a bitmask of the ways a may step to b: 1 when
    a <= b, 2 when a >= b, 0 when they are not adjacent.  A step keeps the
    form 0 <= 1 >= 2 <= ... when it goes the needed way; otherwise its
    first node is repeated (valid either way) and it costs 2.  Contiguity
    steps go both ways, so there the DP counts hops and repeats nothing.
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
        prev = best[state[0]][state[1]][1]
        if prev is not None and prev[1] == state[1]:  # a step of cost 2
            out.append(path[prev[0]])
        state = prev
    return out[::-1]


def _sees_all(targets):
    """A stop predicate for _class_bfs: true once every target was seen."""
    remaining = set(targets)

    def stop(vals):
        remaining.discard(vals)
        return not remaining

    return stop


def _first_fit(space, fits, budget=None):
    """The lex-first value tuple constant on ``space.classes`` that fits,
    built class by class, or None.

    ``fits(ci, values)`` judges the value just written into class ci against
    the classes before it; later classes still hold -1.  ``trial`` keeps the
    next value to try for each class, so the walk needs no recursion: one
    frame per class would overflow Python's stack on large sources.  Once
    it has tried more than ``budget`` values the walk gives up with None.
    """
    classes = space.classes
    values = [-1] * space.size
    trial = [0] * len(classes)
    tried = 0
    ci = 0
    while 0 <= ci < len(classes):
        cls = classes[ci]
        v = trial[ci]
        while v < space.nvalues:
            for i in cls:
                values[i] = v
            v += 1
            tried += 1
            if budget is not None and tried > budget:
                return None
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
    return tuple(values) if ci == len(classes) else None


def _decide(space, mode, budget):
    """Start check, quick stage and component search of every decider, on
    the ``starts``, ``goal`` and ``swaps`` of ``space``.

    A symmetric decider has one start, and its goal is a map constant on
    the Sigma_n classes ``goal``; a plain decider, without them, has one
    component holding every start as its goal, from any map.  On "yes" the
    witness is ``levels``, where ``levels[l][j]`` is the l-th map of branch
    j as a dict on the source names, a shorter branch held at its last map.
    Plain branch j is a path from a common map to start j; symmetric branch
    j is the one path from a goal to the start, precomposed with the
    transposition (1, j + 1), whose source positions are ``swaps[j]``.
    Each path is in alternating form (see ``_shortcut``).
    """
    starts, goal = space.starts, space.goal
    symmetric = goal is not None

    def is_goal(values):
        return goal is None or _constant_on(values, goal)

    def yes(paths, record):
        branches = [_shortcut(p, space.directions) for p in paths]
        if symmetric:
            branches = [[tuple(values[i] for i in perm)
                         for values in branches[0]] for perm in space.swaps]
        levels = [[space.map_of(b[min(l, len(b) - 1)]) for b in branches]
                  for l in range(max(map(len, branches)))]
        return SearchResult("yes", levels, record)

    start = starts[0]
    if is_goal(start) and all(s == start for s in starts):
        return yes([[s] for s in starts], {"stage": "start"})
    if mode in ("auto", "bounded"):
        constants = [(w,) * space.size for w in range(space.nvalues)]
        candidates = [c for c in starts + constants if is_goal(c)]
        for cand in candidates:
            if all(cand == s or space.directions(cand, s) for s in starts):
                return yes([[cand] if s == cand else [cand, s]
                            for s in starts], {"stage": "quick"})
        if symmetric:
            for cand in candidates:
                mid = space.bridge(cand, start, budget)
                if mid is not None:
                    return yes([[cand, mid, start]], {"stage": "quick"})
    if not _constant_on(start, space.classes):
        raise NotEquivariant("tuple's first map is not constraint-invariant")
    status, paths, record = space.component_stage(budget, mode)
    if status != "yes":
        return SearchResult(status, record=record)
    return yes([paths[0][::-1]] if symmetric else paths, record)


def _decider(maps, n, depth, mode, budget, symmetric, simplicial,
             target=None):
    """Every decider: the input check and its map space, the driver, and
    for a yes the space's certificate, with ``target`` (an ordered
    complex) as its target when given."""
    space = _check_inputs(maps, n, depth, mode, symmetric, simplicial)
    res = _decide(space, mode, budget)
    source = maps[0].source
    if res.yes:
        res.witness = space.certificate(
            res.witness, n=n, depth=depth, symmetric=symmetric,
            source=source, target=target or maps[0].target)
    if (symmetric and not simplicial and res.record.get("stage") == "exact"
            and not source.is_connected()):
        res.record["disconnected_source"] = True
    return res


def _classes_on(classes, pos):
    """The classes that lie in the keys of ``pos``, renumbered by it."""
    return [[pos[i] for i in cls] for cls in classes if cls[0] in pos]


class _PackedNodes:
    """Value tuples packed into ints, for the map spaces below.

    The value of source index i sits in the field of ``width`` bits at
    ``width * i``, so a node is one int and hashes as one.  A space sets
    ``size``, the number of source indices, ``nvalues``, ``names[i]`` and
    ``tnames[v]``, the names of the source indices and of the values, and
    ``classes``; ``_check_inputs`` sets its decision's ``starts``, ``goal``
    and ``swaps``.  Its ``component_stage`` is the deciders' exact stage;
    the monotone space runs its stage on the core of the source.
    """

    starts, goal, swaps = (), None, None

    @cached_property
    def width(self):
        return max(1, (self.nvalues - 1).bit_length())

    @cached_property
    def full(self):
        return (1 << self.width) - 1

    def rep(self, indices):
        """The node with value 1 at ``indices`` and 0 elsewhere."""
        return sum(1 << self.width * i for i in indices)

    def field_mask(self, indices):
        return self.rep(indices) * self.full

    def pack(self, values):
        return sum(v << self.width * i for i, v in enumerate(values))

    def unpack(self, node):
        width, full = self.width, self.full
        return tuple(node >> width * i & full for i in range(self.size))

    def constant_test(self, classes):
        """A test on packed nodes: is the map constant on every class?"""
        full = self.full
        checks = [
            (self.field_mask(cls), self.width * cls[0], self.rep(cls))
            for cls in classes if len(cls) > 1
        ]

        def test(node):
            return all(node & fields == (node >> shift & full) * rep
                       for fields, shift, rep in checks)

        return test

    def component_stage(self, budget, mode):
        """Run _class_bfs from the first start; returns (status, paths,
        record).

        The search runs until it reaches a map constant on every class of
        ``goal`` or, without a goal, until every start was seen.  On "yes",
        ``paths`` holds the unpacked path from the first start to the hit,
        or to each start.  Exact mode answers "no" on an exhausted
        component; bounded mode keeps its contract and answers "unknown"
        instead.
        """
        targets = [self.pack(e) for e in self.starts if self.goal is None]
        stop = (_sees_all(targets) if self.goal is None
                else self.constant_test(self.goal))
        parents, hit = _class_bfs(self, self.pack(self.starts[0]), stop,
                                  budget)
        explored = len(parents)
        paths = None
        if hit is not None:
            paths = [[self.unpack(x) for x in _path_to(parents, end)]
                     for end in (targets or [hit])]
        if mode == "bounded":
            status = "yes" if hit is not None else "unknown"
            return status, paths, {"stage": "bounded", "explored": explored}
        record = {"total_nodes": explored, "explored": explored,
                  "stage": "exact"}
        if hit is None:
            record["exhausted_component"] = True
        return ("yes" if hit is not None else "no"), paths, record

    @cached_property
    def tindex(self):
        return {y: v for v, y in enumerate(self.tnames)}

    def values_of(self, mapping):
        """The value tuple of a map given as a dict on the source names."""
        return tuple(self.tindex[mapping[x]] for x in self.names)

    def map_of(self, values):
        return {x: self.tnames[v] for x, v in zip(self.names, values)}

    def _restricted(self, keep):
        """(space, pos): a space of this class over the source indices
        ``keep``, ascending, with ``pos`` sending each to its new index.

        The values and their names stay; the names, classes, starts, goal
        and swaps are restricted and renumbered, so ``keep`` must be a
        union of classes and of goal classes that every swap maps onto
        itself.  The caller sets the side's own source tables.
        """
        pos = {i: k for k, i in enumerate(keep)}
        out = object.__new__(type(self))
        out.size, out.nvalues = len(keep), self.nvalues
        out.names, out.tnames = [self.names[i] for i in keep], self.tnames
        out.classes = _classes_on(self.classes, pos)
        out.starts = [tuple([s[i] for i in keep]) for s in self.starts]
        if self.goal is not None:
            out.goal = _classes_on(self.goal, pos)
            out.swaps = [[pos[p[i]] for i in keep] for p in self.swaps]
        return out, pos


# ---------------------------------------------------------------------------
# simplicial map space
# ---------------------------------------------------------------------------


class _SimplicialSpace(_PackedNodes):
    """Moves, bridges and 1-contiguity tests over simplicial maps L -> K
    constant on ``classes``, lists of vertex indices (singletons without
    them).  L is held as ``facets``, sorted tuples of vertex indices."""

    def __init__(self, source, target, classes=None):
        source, target = base_of(source), base_of(target)
        self.target = target
        self.names, self.tnames = list(source.vertices), list(target.vertices)
        self.size, self.nvalues = len(self.names), len(self.tnames)
        self.facets = source.ranked_facets()  # ranks are index positions
        # keys are the target's simplex masks; ext[m] has bit w set when
        # m | 1 << w is a simplex mask too, so every face of a simplex gets
        # the simplex's remaining vertex
        self.ext = {}
        for t in target.ranked_simplices():  # ranks are tindex positions
            mask = sum(1 << i for i in t)
            self.ext[mask] = self.ext.get(mask, 0) | mask
            for i in t:
                bit = 1 << i
                if mask != bit:
                    self.ext[mask ^ bit] = self.ext.get(mask ^ bit, 0) | bit
        self.classes = classes or [[i] for i in range(self.size)]

    def restrict(self, facets):
        """This space on the subcomplex of L whose facets are ``facets``,
        sorted tuples of L's vertex indices: its vertices are theirs, and
        the target and ``ext`` are shared."""
        out, pos = self._restricted(sorted({i for f in facets for i in f}))
        out.target, out.ext = self.target, self.ext
        out.facets = sorted([tuple([pos[i] for i in f]) for f in facets])
        return out

    @staticmethod
    def certificate(levels, **header):
        """The ContiguityChain of a yes's ``levels``; ``header`` holds n,
        depth, symmetric, source and target."""
        return ContiguityChain(levels=levels, **header)

    @cached_property
    def _touched(self):
        """Per class, the facets holding one of its vertices."""
        facets_of_vertex = [[] for _ in range(self.size)]
        for fi, f in enumerate(self.facets):
            for i in f:
                facets_of_vertex[i].append(fi)
        return [sorted({fi for i in cls for fi in facets_of_vertex[i]})
                for cls in self.classes]

    @cached_property
    def reads(self):
        """Per class, the source indices ``allowed`` reads: the vertices of
        the touched facets, the class's own among them."""
        return [sorted({i for fi in touched for i in self.facets[fi]})
                for touched in self._touched]

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
        simplex: the new map is then simplicial and 1-contiguous with the
        current one.
        """
        ext, facets = self.ext, self.facets
        touched = self._touched
        every = (1 << self.nvalues) - 1

        def allowed(ci, values):
            out = every
            for fi in touched[ci]:
                mask = 0
                for i in facets[fi]:
                    mask |= 1 << values[i]
                out &= ext[mask]
            return out

        return allowed

    def pair_contiguous(self, a, b):
        for f in self.facets:
            mask = 0
            for i in f:
                mask |= (1 << a[i]) | (1 << b[i])
            if mask not in self.ext:
                return False
        return True

    def directions(self, a, b):
        """Contiguity is symmetric: both ways or neither (see _shortcut)."""
        return 3 if self.pair_contiguous(a, b) else 0

    def bridge(self, a, b, budget=None):
        """The lex-first class-constant map 1-contiguous with both a and b,
        or None, also once the walk has tried more than ``budget`` values.
        Such a map is simplicial, the simplex set being closed under
        faces."""
        am = self.full_masks(a)
        bm = self.full_masks(b)
        touched = self._touched

        def fits(ci, values):
            for fi in touched[ci]:
                mask = 0
                for i in self.facets[fi]:
                    if values[i] >= 0:
                        mask |= 1 << values[i]
                if not (mask | am[fi] in self.ext
                        and mask | bm[fi] in self.ext):
                    return False
            return True

        return _first_fit(self, fits, budget)


# ---------------------------------------------------------------------------
# symmetric / plain contiguity deciders
# ---------------------------------------------------------------------------


def sym_contiguous(maps, n, depth, mode="exact", budget=50_000,
                   target_ordered=None):
    """Decide symmetric contiguity of an equivariant tuple of simplicial maps.

    Returns SearchResult; a yes carries a ContiguityChain from a diagonal
    invariant tuple to the given tuple.
    """
    return _decider(maps, n, depth, mode, budget, True, True, target_ordered)


def plain_contiguous(maps, depth=0, mode="exact", budget=50_000,
                     target_ordered=None):
    """Do the maps lie in one contiguity class?  Witness: chain from a
    diagonal tuple (no invariance requirement) to the given tuple."""
    return _decider(maps, len(maps), depth, mode, budget, False, True,
                    target_ordered)


# ---------------------------------------------------------------------------
# monotone map space
# ---------------------------------------------------------------------------


def _beat_value(x, alive, below, above):
    """The point the beat point x of the ``alive`` points retracts to: the
    maximum of the alive points below x, else the minimum of those above
    it; None when x is no beat point of them."""
    for side in (below, above):
        near = side[x] & alive
        rest = near
        while rest:
            low = rest & -rest
            rest ^= low
            y = low.bit_length() - 1
            if near & ~side[y] == low:  # every other near point is past y
                return y
    return None


def _beat_core(below, above, orbits):
    """The core of a finite poset: what is left once beat points are
    removed, a whole orbit at a time, until none is left (Stong, Trans.
    AMS 123, 1966).

    ``below[i]`` and ``above[i]`` are the bitmasks of the points strictly
    below and above point i.  ``orbits`` are the orbits of a group of
    automorphisms, hence antichains, and a group element carries a beat
    point and its beat value onto another such pair, so the points of an
    orbit are beat points together.  Passes go through ``orbits`` in their
    order and remove each orbit of beat points of what is still there, until
    a pass removes none; the loop needs no recursion.

    Returns (keep, steps): the points left, ascending, and per removed orbit
    a dict from each of its points to its beat value.  The step moving
    those points and fixing the rest is monotone (a point below a removed x
    lies below its maximum, a point above it above x), lies below or above
    the identity, and commutes with the group.
    """
    alive = (1 << len(below)) - 1
    steps = []
    removed = True
    while removed:
        removed = False
        for orbit in orbits:
            if not alive >> orbit[0] & 1:
                continue
            step = {x: _beat_value(x, alive, below, above) for x in orbit}
            if None in step.values():
                continue
            steps.append(step)
            for x in orbit:
                alive ^= 1 << x
            removed = True
    return bits(alive), steps


def _without_loops(path):
    """``path`` with the stretch between two visits of a node cut out, so
    no node appears twice."""
    out, at = [], {}
    for node in path:
        if node in at:
            for dropped in out[at[node] + 1:]:
                del at[dropped]
            del out[at[node] + 1:]
        else:
            at[node] = len(out)
            out.append(node)
    return out


class _MonotoneSpace(_PackedNodes):
    """Moves, bridges and comparability tests over monotone maps Q -> P
    constant on ``classes``, lists of element indices (singletons without
    them).

    Q is held as ``below[i]`` and ``above[i]``, the bitmasks of the points
    strictly below and strictly above point i; P as ``up[v]`` and
    ``down[v]``, the bitmasks of the values at least and at most v.  A
    space built from Q keeps it as ``Q``; a restricted one keeps only its
    masks.
    """

    def __init__(self, Q, P, classes=None):
        self.Q, self.P = Q, P
        self.names, self.tnames = list(Q.elements), list(P.elements)
        self.below = [m ^ 1 << i for i, m in enumerate(Q.down)]
        self.above = [m ^ 1 << i for i, m in enumerate(Q.up)]
        self.up, self.down = P.up, P.down
        self.size, self.nvalues = len(self.names), len(self.tnames)
        self.classes = classes or [[i] for i in range(self.size)]

    def restrict(self, keep):
        """This space on the points ``keep`` of Q, ascending, with the
        order Q induces on them; P and its masks are shared."""
        out, pos = self._restricted(keep)
        kept = sum(1 << i for i in keep)
        out.below, out.above = (
            [sum(1 << pos[j] for j in bits(masks[i] & kept)) for i in keep]
            for masks in (self.below, self.above))
        out.P, out.up, out.down = self.P, self.up, self.down
        return out

    @staticmethod
    def certificate(levels, **header):
        """The CombinatorialHomotopy of a yes's ``levels``, with cell
        (x, (0, 0)) from level 0's first map and cell (x, (l, j)) from
        level l's j-th; ``header`` holds n, depth, symmetric, source and
        target."""
        table = {(x, (0, 0)): v for x, v in levels[0][0].items()}
        for l, level in enumerate(levels[1:], start=1):
            for j, f in enumerate(level, start=1):
                for x, v in f.items():
                    table[(x, (l, j))] = v
        return CombinatorialHomotopy(m=len(levels) - 1, table=table, **header)

    @cached_property
    def _neighbours(self):
        """Per class, the points outside it below some member, and those
        above some member."""
        below, above = [], []
        for cls in self.classes:
            members = sum(1 << i for i in cls)
            for masks, out in ((self.below, below), (self.above, above)):
                near = 0
                for i in cls:
                    near |= masks[i]
                out.append(bits(near & ~members))
        return below, above

    @cached_property
    def reads(self):
        """Per class, the source indices ``allowed`` reads: its head and
        the points below and above it."""
        below, above = self._neighbours
        return [[cls[0], *down, *up]
                for cls, down, up in zip(self.classes, below, above)]

    def moves(self):
        """``allowed`` for _class_bfs over self.classes.

        Class ci may move to a value comparable with its current one that
        stays below the values of the points above the class and above those
        of the points below it: the new map is then monotone and comparable
        with the current one.
        """
        up, down = self.up, self.down
        below, above = self._neighbours
        heads = [cls[0] for cls in self.classes]

        def allowed(ci, values):
            v = values[heads[ci]]
            out = up[v] | down[v]
            for j in below[ci]:
                out &= up[values[j]]
            for j in above[ci]:
                out &= down[values[j]]
            return out

        return allowed

    def directions(self, a, b):
        """1 when a <= b, plus 2 when a >= b (see _shortcut)."""
        return self.pair_le(a, b) | (self.pair_le(b, a) << 1)

    def pair_le(self, a, b):
        return all(self.up[x] >> y & 1 for x, y in zip(a, b))

    def bridge(self, a, b, budget=None):
        """The lex-first class-constant monotone map above both a and b,
        else the lex-first one below both, or None; each walk gives up once
        it has tried more than ``budget`` values."""
        below, above = self._neighbours
        for bound in (self.up, self.down):
            limits = [-1] * len(self.classes)
            for ci, cls in enumerate(self.classes):
                for i in cls:
                    limits[ci] &= bound[a[i]] & bound[b[i]]

            def fits(ci, values):
                v = values[self.classes[ci][0]]
                if not limits[ci] >> v & 1:
                    return False
                for j in below[ci]:
                    if values[j] >= 0 and not self.up[values[j]] >> v & 1:
                        return False
                for j in above[ci]:
                    if values[j] >= 0 and not self.down[values[j]] >> v & 1:
                        return False
                return True

            if all(limits):
                found = _first_fit(self, fits, budget)
                if found is not None:
                    return found
        return None

    def core(self, orbits):
        """(core, pos, steps): this space restricted to the source's core,
        with ``steps`` from ``_beat_core`` over ``orbits`` and ``pos``
        sending each kept source point, ascending, to its index in the
        core.  The classes and the goal classes must refine the orbits, so
        the core is a union of each."""
        keep, steps = _beat_core(self.below, self.above, orbits)
        return self.restrict(keep), {i: k for k, i in enumerate(keep)}, steps

    def component_stage(self, budget, mode):
        """The base component_stage on the core of the source, its paths
        lifted.

        The core C comes from ``_beat_core`` over the orbits of ``goal``
        (the symmetric group's), or over single points without one, and the
        record gains ``"core": |C|``.  The starts and the goal restrict to
        C, and a path found there lifts back by h -> h.r.  It is joined to
        each start e by e, e.R_1, e.R_2.R_1, ..., e.r, whose last map is
        the lift of e|C (see _class_bfs for why these are paths).  On a
        core equal to the source the paths are the search's own.
        """
        core, pos, steps = self.core(
            [[i] for i in range(self.size)] if self.goal is None
            else self.goal
        )
        status, paths, record = _PackedNodes.component_stage(
            core, budget, mode)
        record["core"] = core.size
        if paths is None:
            return status, paths, record
        images = [list(range(self.size))]  # the partial retractions
        for step in steps:
            images.append([step.get(x, x) for x in images[-1]])
        r = [pos[x] for x in images[-1]]

        def fence(values):
            return [tuple(values[x] for x in image) for image in images]

        lifted = [fence(self.starts[0]) + [tuple(h[k] for k in r)
                                           for h in p[1:]]
                  for p in paths]
        if self.goal is None:
            lifted = [p + fence(e)[-2::-1]
                      for p, e in zip(lifted, self.starts)]
        return status, [_without_loops(p) for p in lifted], record


# ---------------------------------------------------------------------------
# symmetric / plain combinatorial homotopy deciders
# ---------------------------------------------------------------------------


def sym_comb_homotopic(maps, n, depth, mode="exact", budget=50_000):
    """Decide symmetric combinatorial homotopy of an equivariant tuple of
    monotone maps on an invariant open source.  Witness: a table over
    J_{n,m} with m the alternating path length."""
    return _decider(maps, n, depth, mode, budget, True, False)


def plain_comb_homotopic(maps, depth=0, mode="exact", budget=50_000):
    """Are the monotone maps combinatorially homotopic (common fence start)?"""
    return _decider(maps, len(maps), depth, mode, budget, False, False)
