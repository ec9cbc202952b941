"""Section-existence route: enumerate sections of the fence evaluation map
directly, fence length m = 0, 1, 2, ... up to a proven stabilization point.

This is the independent second code path behind the finite-space complexity
at subdivision level 0.  A section over an invariant open Q is determined by
its layer maps h^0, h^1, ..., h^m (h^l sends x to the path value at l on the
first fence; the other branches are forced by equivariance), which form an
alternating zigzag in the poset of Stab(1)-invariant monotone maps ending
at the projection.  Small m values (0, 1, 2) are checked by targeted
constructions first; the sweep decides the rest.  m = 1 asks for one
invariant map below the projection, a masked walk; m = 2 tries only the
constant maps, each with one masked walk for a common upper bound with the
projection.  Any other invariant map at m = 2 is left to the sweep, which
is complete by the class-move argument below.
``cc_by_sections`` decides the pieces smallest first and skips each piece
above a bad one.

The sweep builds the layers A_0 = B_0 = {projection}, A_m = {h <= some
member of B_{m-1}} and B_m = {h >= some member of A_{m-1}}; a symmetric map
in A_m is h^0 of a section of length m.  The layers grow: A_1 and B_1
contain the projection because the order is reflexive, and B_{m-1}
containing B_{m-2} makes A_m contain A_{m-1} (likewise for B).  So A_m is
A_{m-1} together with the down-closure of the maps new to B_{m-1}, and
growth gives A_m containing A_{m-2}: once the layer sizes at m equal those
at m - 2 the layers no longer change, no larger m can help, and a "no" is
proven.

Closures are walks over single-class moves, so only the maps the layers
reach are ever built.  The orbit classes of Stab(1) are antichains
(an automorphism with g.x < x would give x = g^k.x < ... < g.x < x), so
among class-constant monotone maps h <= g iff g reaches h by moves that
lower one class each, every step monotone: lower a class holding a point
minimal where h and g differ; the set where they differ is invariant, so
every member of the class is minimal in it, the points below already agree
with h and the points above keep g's larger values (cf. Barmak, Algebraic
Topology of Finite Topological Spaces and Applications, LNM 2032, ch. 1).
Raising is symmetric.  A_m and B_m are down- and up-closed, so a walk stops
at maps already in its layer, and each map is entered and expanded at most
once per side.  The budget bounds the maps reached, the union of the two
layers, and is checked as each map is added.

The hit is the lowest invariant map of A_m by its class values (the order
``posets.MonotoneWalk`` walks in), and the layers h^1..h^{m-1} are
taken greedily, each the lowest map of the right layer comparable with the
one before.
"""

from dataclasses import dataclass, field
from itertools import combinations

from .actions import orbit_partition, positions, reduction, symmetric_group
from .errors import DisconnectedPoset, SizeLimitExceeded
from .posets import MonotoneWalk, multi_fence, power_poset
from .verify import projection_of_name
from .witnesses import SectionWitness


@dataclass
class SectionOutcome:
    status: str  # "yes" | "no"
    witness: object = None
    record: dict = field(default_factory=dict)

    @property
    def yes(self):
        return self.status == "yes"


def _rho_tables(Q, P, n, depth):
    return [
        {x: projection_of_name(x, depth, j, P.le) for x in Q.elements}
        for j in range(1, n + 1)
    ]


def section_search(Q, P, n, depth, budget=50_000):
    """Does the fence evaluation map admit an equivariant section over Q?"""
    rho = _rho_tables(Q, P, n, depth)
    ti = {x: i for i, x in enumerate(P.elements)}
    group = symmetric_group(n)
    g_classes, sigma_classes, swaps = reduction(
        group, positions(group, Q.elements, depth))
    start = tuple(ti[rho[0][x]] for x in Q.elements)
    walk = MonotoneWalk(Q, P, g_classes)

    def found(layers, record):
        """A yes from the layer maps h^0..h^m, value tuples over Q; branch
        j reads h^l through ``swaps[j - 1]``, the positions of (1, j)."""
        names, values = Q.elements, P.elements
        paths = {}
        for i, x in enumerate(names):
            gamma = {(0, 0): values[layers[0][i]]}
            for l, h in enumerate(layers[1:], start=1):
                for j, p in enumerate(swaps, start=1):
                    gamma[(l, j)] = values[h[p[i]]]
            paths[x] = gamma
        m = len(layers) - 1
        assert set(paths[names[0]]) == set(multi_fence(n, m).poset.elements)
        return SectionOutcome("yes", SectionWitness(
            n=n, m=m, depth=depth, symmetric=True, source=Q, target=P,
            paths=paths, projection_endpoints=True,
        ), record)

    def invariant(vals):
        return all(
            all(vals[i] == vals[cls[0]] for i in cls) for cls in sigma_classes
        )

    # m = 0: the projection family itself must be a diagonal invariant tuple
    if invariant(start):
        return found([start], {"m": 0, "stage": "small-m"})

    # m = 1: an invariant map pointwise below the projection, the lowest
    # constant (always monotone and invariant), else the first in canonical
    # order by a masked walk
    below = walk.full
    for v in start:
        below &= walk.down[v]
    if below:
        phi = tuple([(below & -below).bit_length() - 1] * len(start))
    else:
        phi = MonotoneWalk(Q, P, sigma_classes).first(
            [walk.down[v] for v in start]
        )
    if phi is not None:
        return found([phi, start], {"m": 1, "stage": "small-m"})

    # m = 2: a constant map with a common upper bound with the projection;
    # the sweep decides every other map
    for v in range(len(P.elements)):
        mid = walk.first([walk.up[v] & walk.up[b] for b in start])
        if mid is not None:
            phi = tuple([v] * len(start))
            return found([phi, mid, start], {"m": 2, "stage": "small-m"})

    # the sweep, from the projection: A_0 = B_0 = {projection}
    sweep = _Sweep(Q, walk, sigma_classes, budget)
    start_key = sweep.key(start)
    a_at, b_at = {}, {}  # map -> the first m with the map in A_m / B_m
    fresh_a = fresh_b = [start_key]
    sizes = [(1, 1)]
    m = 0
    while True:
        m += 1
        new_a = sweep.close(a_at, b_at, fresh_b, m, sweep.lower)
        new_b = sweep.close(b_at, a_at, fresh_a, m, sweep.upper)
        fresh_a, fresh_b = new_a, new_b
        sizes.append((len(a_at), len(b_at)))
        hits = [k for k in new_a if sweep.invariant(k)]
        if hits:
            layers = sweep.reconstruct(min(hits), start_key, a_at, b_at, m)
            return found([sweep.expand(k) for k in layers],
                         {"m": m, "stage": "sweep", "reached": sweep.reached})
        if m >= 2 and sizes[m] == sizes[m - 2]:
            return SectionOutcome(
                "no",
                record={"stabilized_at": m, "reached": sweep.reached},
            )


class _Sweep:
    """Layer closures over the class-constant monotone maps Q -> P.

    A map is keyed by one int: its value on class c in the bit field at
    ``shifts[c]``, the first class highest, so keys order as the tuples of
    class values do (the order ``MonotoneWalk`` walks in).  ``lower`` and
    ``upper`` give the single-class moves: class c goes to a value strictly
    below (above) its own, and not below (above) the value of any class
    ``fence[c]`` lists, those with an element below (above) one of its
    elements, so the map stays monotone; each class memoizes its key deltas
    by the fields of the class and its fence (see ``close``).  ``same``
    pairs the classes that one Sigma_n orbit joins.  ``reached`` counts the
    maps in A_m or B_m; the budget bounds it.
    """

    def __init__(self, Q, walk, sigma_classes, budget):
        classes = walk.classes
        nc, npp = len(classes), len(walk.up)
        members = [sum(1 << i for i in cls) for cls in classes]
        under = [0] * nc
        for c, cls in enumerate(classes):
            for x in cls:
                under[c] |= Q.down[x]
        below = [
            [d for d in range(nc) if d != c and under[c] & members[d]]
            for c in range(nc)
        ]
        above = [[d for d in range(nc) if c in below[d]] for c in range(nc)]
        width = max(1, (npp - 1).bit_length())
        self.shifts = [width * (nc - 1 - c) for c in range(nc)]
        self.field = (1 << width) - 1
        self.class_of = {i: c for c, cls in enumerate(classes) for i in cls}
        self.same = [
            (c, cs[0])
            for cs in (sorted({self.class_of[i] for i in sc})
                       for sc in sigma_classes)
            for c in cs[1:]
        ]
        self.nq = len(Q.elements)
        self.lower = self._moves(
            [walk.down[v] ^ 1 << v for v in range(npp)], walk.up, below
        )
        self.upper = self._moves(
            [walk.up[v] ^ 1 << v for v in range(npp)], walk.down, above
        )
        self.walk = walk
        self.budget = budget
        self.reached = 0

    def _moves(self, strict, away, fence):
        """Per class: its shift, the fields of the class and its fence,
        the fence's shifts and an empty memo for ``close``."""
        field, shifts = self.field, self.shifts
        plan = [
            (s, sum(field << shifts[d] for d in [c, *fence[c]]),
             [shifts[d] for d in fence[c]], {})
            for c, s in enumerate(shifts)
        ]
        return strict, away, plan

    def key(self, values):
        """The key of a value tuple over Q's elements."""
        cls = self.walk.classes
        return sum(values[c[0]] << s for c, s in zip(cls, self.shifts))

    def values(self, key):
        """The class values of a key."""
        f = self.field
        return [key >> s & f for s in self.shifts]

    def invariant(self, key):
        """Is the map constant on every Sigma_n orbit?"""
        v = self.values(key)
        return all(v[c] == v[d] for c, d in self.same)

    def expand(self, key):
        """The value tuple over Q's elements of a key."""
        v = self.values(key)
        return tuple(v[self.class_of[i]] for i in range(self.nq))

    def close(self, at, other, seeds, m, moves):
        """Add to the layer ``at`` the closure of ``seeds`` under ``moves``,
        entering at step m; returns the maps added, in order.

        ``at`` is closed under the moves before the call, so a map already
        in it needs no walk: each map is entered and expanded once.  The
        moves of a class depend only on the fields of the class and its
        fence, so each class keeps a memo, for the life of the sweep, from
        those fields of a key to its key deltas in ascending value."""
        strict, away, plan = moves
        budget, field = self.budget, self.field
        new = []

        def add(key):
            at[key] = m
            new.append(key)
            if key not in other:
                self.reached += 1
                if budget is not None and self.reached > budget:
                    raise SizeLimitExceeded(
                        f"more than {budget} monotone maps"
                    )

        for key in seeds:
            if key not in at:
                add(key)
        i = 0
        while i < len(new):
            key = new[i]
            i += 1
            for s, reads, fence, memo in plan:
                seen = key & reads
                deltas = memo.get(seen)
                if deltas is None:
                    value = key >> s & field
                    mask = strict[value]
                    for t in fence:
                        mask &= away[key >> t & field]
                    deltas = []
                    while mask:
                        low = mask & -mask
                        mask ^= low
                        deltas.append((low.bit_length() - 1 - value) << s)
                    deltas = memo[seen] = tuple(deltas)
                for delta in deltas:
                    nxt = key + delta
                    if nxt not in at:
                        add(nxt)
        return new

    def reconstruct(self, h0, start, a_at, b_at, m):
        """Greedy layer extraction: h^0 in A_m, then alternately the lowest
        key above h^{l-1} in B_{m-l} and below it in A_{m-l}, ending at the
        projection, the one map of A_0 = B_0."""
        seq = [h0]
        for l in range(1, m):
            cur = self.values(seq[-1])
            at, table = (
                (b_at, self.walk.up) if l % 2 else (a_at, self.walk.down)
            )
            seq.append(min(
                k for k, first in at.items() if first <= m - l and all(
                    table[a] >> b & 1 for a, b in zip(cur, self.values(k))
                )
            ))
        seq.append(start)
        return seq


# ---------------------------------------------------------------------------
# the full complexity value through sections
# ---------------------------------------------------------------------------


def invariant_open_pieces(L, n, depth):
    """All nonempty invariant opens of L as element frozensets, via orbits."""
    group = symmetric_group(n)
    orbits = orbit_partition(group, L.elements, depth)
    pieces = {frozenset()}
    for orb in orbits:
        down = L.down_closure(orb)
        pieces |= {p | down for p in pieces}
    pieces.discard(frozenset())
    return sorted(
        pieces, key=lambda s: (len(s), sorted(L.index[x] for x in s))
    )


def cc_by_sections(P, n, budget=50_000):
    """Minimum size of an invariant open cover admitting sections, r = 0.

    Independent of the homotopy route: goodness of a piece is decided by
    ``section_search`` and the cover minimum by subset enumeration over
    maximal good pieces.  A section over a piece restricts to one over each
    invariant open piece inside it, so a piece holding a bad piece is bad.
    The pieces are walked smallest first and one above a bad piece already
    decided is skipped undecided; ``pieces_tested`` counts the decisions.
    """
    if not P.is_connected():
        raise DisconnectedPoset("the input poset must be connected")
    L = power_poset(P, n)
    whole = frozenset(L.elements)
    memo = {}

    def good(piece):
        memo[piece] = section_search(L.restrict(piece), P, n, 0, budget=budget)
        return memo[piece].yes

    def result(cover):
        return {
            "k": len(cover) or None,
            "cover": cover,
            "witnesses": {p: memo[p] for p in cover},
            "m": max((memo[p].witness.m for p in cover), default=None),
            "pieces_tested": len(memo),
            "whole_space_good": cover == [whole],
        }

    if good(whole):
        return result([whole])
    # maximal good pieces, then covers by them upward in size
    goods, bad = [], []
    for p in invariant_open_pieces(L, n, 0):
        if p != whole and not any(b < p for b in bad):
            (goods if good(p) else bad).append(p)
    maximal = [p for p in goods if not any(p < q for q in goods)]
    for k in range(2, len(maximal) + 1):
        for combo in combinations(maximal, k):
            if frozenset().union(*combo) == whole:
                return result(list(combo))
    return result([])
