"""The top-level invariants: minimum covers by good pieces.

A piece is good when the restricted projection family admits the required
witness (a symmetric contiguity chain on the simplicial side, a symmetric
combinatorial homotopy on the finite-space side; plain variants drop the
equivariance).  Goodness passes to sub-pieces, so only maximal good pieces
matter and the value is a minimum set cover over them.

Pieces are unions of orbit units, held as int bitmasks (bit u is unit u):
simplex orbits on the simplicial side, pieces closed under faces; element
orbits on the finite-space side, pieces closed downward (invariant opens).
A unit holds its members as positions in the top level, sorted vertex-rank
tuples or element indices.  A piece is decided on one map space of the top
level, built and checked once by the deciders' own input check and
restricted to the piece's positions (its facets, or its elements): a piece
is a union of Sigma_n-orbits, so it is invariant and the restricted
projections are equivariant without a new check.  Names come back only for
a cover piece, whose complex or poset and certificate are built once.
Each unit has a down mask, itself and the units below it.  The order on
units is transitive, since the group carries one witnessing pair of members
onto another, so the down-closure of a piece is one OR of down masks.
A cover need only cover the universe units (facet orbits, or orbits of
maximal elements), and a good piece D gives the good piece
↓(D ∩ universe), so exact mode walks sets F of universe units from the top
through bad ↓F and keeps the maximal good ones; upper mode grows seeds
greedily instead.  The value is infinite exactly when some unit's generated
piece is already bad.  The unit lattice is also the cover engine: it holds
the memo, the known good and bad pieces and the stats, and runs both modes.

A proper piece is first tested by F_2 homology, before it is built.
Contiguous maps, and comparable monotone maps on order complexes, are
homotopic, so they induce the same map on H_1(-; F_2); and symmetric
goodness joins rho_1 to each rho_j, so it implies plain goodness of
(rho_1, rho_j).  A 1-cycle z of the piece with rho_1(z) + rho_j(z) not a
boundary of the target therefore makes the piece bad, plain or symmetric,
and its "no" carries the record {"stage": "obstruction", "j", "cycle"}
instead of an exhaustion record (``verify.check_obstruction`` re-checks
it).  On a symmetric lattice a piece Q that passes gets the quotient test
next.  A symmetric chain or fence joins rho_1 to a map f constant on the
Sigma_n-orbits, so f factors through the quotient q: Q -> L onto the orbit
complex, whose simplices are the images of Q's own.  A 1-cycle z and a
2-chain c of Q with q(z) the boundary of q(c) make f(z) a boundary, so if
rho_1(z) is no boundary of the target the piece is bad, with the record
{"stage": "quotient", "cycle", "chain"} (re-checked by the same checker).
Pieces that pass both tests are searched.  The whole space is
searched first, so its record stays an exhaustion record, unless the
search overruns its node budget: then the two tests decide it if they can,
and the overrun stands if not.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property, partial

from .actions import (
    identity,
    orbit_partition,
    orbit_partition_simplices,
    symmetric_group,
)
from .complexes import (
    base_of,
    closure_of,
    restrict_map,  # noqa: F401  (perfbench/tracing.py wraps it here)
    subcomplex_from_simplices,
)
from .constructions import (
    build_tower,
    check_depth,
    poset_tower,
    projection_pi,
    projection_rho,
)
from .covers import min_cover
from .errors import (
    BudgetExceeded,
    DisconnectedPoset,
    MonotonicityViolation,
    UnsupportedMode,
)
from .io import complex_to_doc, poset_to_doc
from .posets import chain_walk
from .search import SearchResult, _check_inputs, _decide
# the deciders, which perfbench/tracing.py wraps here
from .search import plain_comb_homotopic, plain_contiguous  # noqa: F401
from .search import sym_comb_homotopic, sym_contiguous  # noqa: F401
from .util import bits

INFINITY = math.inf

DEFAULT_BUDGETS = {
    "simplices": 200_000,
    "nodes": 50_000,
    "lattice": 4_096,
    "cover": 100_000,
}


def budgets_with(budget=None):
    out = dict(DEFAULT_BUDGETS)
    if budget is not None:
        if isinstance(budget, dict):
            out.update(budget)
        else:
            out.update(
                simplices=int(budget), nodes=int(budget),
                lattice=max(int(budget) // 16, 64), cover=int(budget),
            )
    return out


@dataclass
class GoodPiece:
    units: tuple
    size: int
    witness: object
    piece_doc: dict


@dataclass
class ComplexityResult:
    invariant: str
    n: int
    r: int
    kind: str  # "exact" | "upper" | "infinite"
    lower: int
    upper: object
    value: object = None
    m: object = None
    cover: list = field(default_factory=list)
    whole_space_good: object = None
    stats: dict = field(default_factory=dict)
    # exact mode: every maximal good piece, as unit-id tuples (not serialized)
    candidates: list = field(default_factory=list)

    def best(self):
        """The headline number: the value when exact, else the upper bound."""
        return self.value if self.kind == "exact" else self.upper

    def to_doc(self):
        def num(v):
            return "infinity" if v == INFINITY else v

        return {
            "invariant": self.invariant,
            "n": self.n,
            "r": self.r,
            "kind": self.kind,
            "value": num(self.value),
            "lower": num(self.lower),
            "upper": num(self.upper),
            "m": self.m,
            "whole_space_good": self.whole_space_good,
            "cover": [
                {
                    "size": p.size,
                    "piece": p.piece_doc,
                    "witness": p.witness.to_doc(),
                }
                for p in self.cover
            ],
            "stats": self.stats,
        }


def _fundamental_cycles(edges):
    """Walk a spanning forest of ``edges``, (a, b, unit, value); per edge
    off the forest whose fundamental cycle has a nonzero XOR of values, in
    walk order, yield that XOR and a function giving the cycle's edge
    positions.  (The cycles left out add nothing to a span of their sums.)

    The walk sets a potential, the values summed along the forest from a
    root; an edge off it closes a cycle whose sum is its value plus its
    ends' potentials, and an edge of the forest sums to 0.
    """
    adj = {}
    for k, (a, b, _, _) in enumerate(edges):
        adj.setdefault(a, []).append(k)
        adj.setdefault(b, []).append(k)
    pot, parent, closed = {}, {}, set()

    def to_root(x):
        path = set()
        while parent[x] is not None:
            path.add(parent[x])
            x = edges[parent[x]][0] + edges[parent[x]][1] - x
        return path

    def cycle(x, y, k):
        return to_root(x) ^ to_root(y) | {k}

    for root in adj:
        if root in pot:
            continue
        pot[root], parent[root] = 0, None
        stack = [root]
        while stack:
            x = stack.pop()
            for k in adj[x]:
                a, b, _, value = edges[k]
                y = a + b - x
                if y not in pot:
                    pot[y], parent[y] = pot[x] ^ value, k
                    stack.append(y)
                elif (odd := pot[x] ^ pot[y] ^ value) and k not in closed:
                    closed.add(k)
                    yield odd, partial(cycle, x, y, k)


# ---------------------------------------------------------------------------
# the unit lattice
# ---------------------------------------------------------------------------


class _UnitLattice:
    """The orbit units of a tower's top level, with pieces as bitmasks.

    A unit is an orbit as a sorted tuple of positions in the top level:
    of simplices as sorted vertex-rank tuples on the simplicial side
    (pieces closed under faces), of element indices on the finite-space
    side (pieces closed downward).  Names come back only in ``piece``;
    only building and restricting a piece depend on the side.

    It is also the cover engine and holds its state: the memo of decisions
    (overruns included), ``stats``, and, since goodness passes to sub-pieces
    and badness to super-pieces, the maximal known-good and minimal
    known-bad pieces, which settle every comparable query.  ``decide`` is
    the raw decision; ``settle`` goes through that state first.
    """

    def __init__(self, tower, symmetric, budgets):
        self.tower = tower
        self.n = tower.n
        self.depth = tower.r
        self.symmetric = symmetric
        self.budgets = budgets
        self.level = level = tower.top()
        group = symmetric_group(self.n) if symmetric else [identity(self.n)]
        self.poset = tower.kind == "poset"
        if self.poset:
            index = level.index
            self.units = [
                tuple([index[x] for x in orb])
                for orb in orbit_partition(group, level.elements, self.depth)
            ]
            tops = {i for i, up in enumerate(level.up) if up == 1 << i}
            project = projection_rho
        else:
            K = base_of(level)
            self.units = orbit_partition_simplices(group, K, self.depth)
            tops = set(K.ranked_facets())
            project = projection_pi
        self.all = (1 << len(self.units)) - 1
        self.universe = sum(
            1 << ui for ui, orb in enumerate(self.units) if orb[0] in tops
        )
        self.maps = [project(tower, j) for j in range(1, self.n + 1)]
        self.memo, self.goods, self.bads = {}, [], []
        self.stats = {"units": len(self.units),
                      "universe": self.universe.bit_count(),
                      "universe_units": bits(self.universe),
                      "pieces_tested": 0, "lattice_visited": 0}

    @cached_property
    def unit_of(self):
        return {x: ui for ui, orb in enumerate(self.units) for x in orb}

    @cached_property
    def _masks(self):
        """Per unit, the mask of the units below it.

        A unit is below another when some member lies below some member;
        the group carries any such pair onto one ending at the other
        unit's first member, so that member's faces (or down set) suffice.
        """
        unit_of = self.unit_of
        down = []
        for orb in self.units:
            if self.poset:
                below = bits(self.level.down[orb[0]])
            else:
                below = closure_of([orb[0]])[0]
            mask = 0
            for x in below:
                mask |= 1 << unit_of[x]
            down.append(mask)
        return down

    def down_closure(self, mask):
        """One pass closes: the unit order is transitive (see _masks)."""
        down = self._masks
        out = 0
        for u in bits(mask):
            out |= down[u]
        return out

    def piece(self, mask):
        if mask == self.all:
            return self.level if self.poset else base_of(self.level)
        members = [x for ui in bits(mask) for x in self.units[ui]]
        if self.poset:
            names = self.level.elements
            return self.level.restrict([names[i] for i in members])
        names = self.level.vertices
        return subcomplex_from_simplices(
            self.level, [[names[i] for i in s] for s in members])

    @cached_property
    def _edge_table(self):
        """(names, edges, width, firsts): per top-level edge, in canonical
        order, its vertex positions in ``names``, its unit and its residues.

        An edge is a 1-simplex, or a strict pair a < b, whose unit is b's
        (pieces are closed downward).  Its residues are the classes of its
        images in C_1(T)/B_1(T) over F_2, T the target complex or the order
        complex of the target poset: ``width`` bits for each j >= 2 packed
        into one int, the classes of rho_1(e) + rho_j(e), and in ``firsts``,
        by the edge's place, the class of rho_1(e).  Each image is reduced
        by an echelon basis of B_1, from the boundaries of T's 2-simplices
        (its 3-chains), with distinct leading bits: that leaves no leading
        bit set, so one representative per class, and the sum of two
        representatives is the representative of the sum.
        """
        if self.poset:
            names, T = self.level.elements, self.tower.factor
            edges = [(a, b, self.unit_of[b])
                     for a in range(len(names))
                     for b in bits(self.level.up[a]) if b != a]
            chains, index = chain_walk(T), T.index
            images = [[index[f.mapping[x]] for x in names] for f in self.maps]
        else:
            K, T = base_of(self.level), base_of(self.tower.factor)
            names = K.vertices
            edges = [(a, b, self.unit_of[a, b])
                     for a, b in (s for s in K.ranked_simplices()
                                  if len(s) == 2)]
            chains = T.ranked_simplices()
            images = [[T.rank[f.vertex_map[x]] for x in names]
                      for f in self.maps]
        tbit = {c: 1 << k
                for k, c in enumerate(c for c in chains if len(c) == 2)}
        pivots = {}
        for a, b, c in (t for t in chains if len(t) == 3):
            v = tbit[a, b] ^ tbit[a, c] ^ tbit[b, c]
            while v.bit_length() - 1 in pivots:
                v ^= pivots[v.bit_length() - 1]
            if v:
                pivots[v.bit_length() - 1] = v
        echelon = sorted(pivots.items(), reverse=True)

        def residue(img, a, b):
            x, y = sorted((img[a], img[b]))
            v = 0 if x == y else tbit[x, y]
            for h, row in echelon:
                if v >> h & 1:
                    v ^= row
            return v

        width, table, firsts = len(tbit), [], []
        for a, b, unit in edges:
            first, packed = residue(images[0], a, b), 0
            for j, img in enumerate(images[1:]):
                packed |= (first ^ residue(img, a, b)) << j * width
            table.append((a, b, unit, packed))
            firsts.append(first)
        return names, table, width, firsts

    @cached_property
    def _orbit_table(self):
        """(edges, triangles) for the quotient test, symmetric lattices only.

        q sends a vertex to its orbit: the unit of (i,) on the simplicial
        side, of i on the finite-space side.  Per top-level edge, in
        ``_edge_table``'s order, (a, b, unit, value): value holds the bit
        of the orbit edge q(e) above the ``width`` bits of rho_1(e)'s
        class; an edge within one orbit has no q bit (its image is
        degenerate).  Per 2-simplex (3-chain a < b < c), its vertex
        positions, its unit (its own, or c's) and the q bits of its
        boundary, the XOR of its edges' q bits, shifted alike.
        """
        _, table, width, firsts = self._edge_table
        unit_of = self.unit_of
        orbit = unit_of.__getitem__ if self.poset else (lambda i: unit_of[i,])
        qbit, qof, edges = {}, {}, []
        for (a, b, unit, _), first in zip(table, firsts):
            pair = frozenset((orbit(a), orbit(b)))
            q = qbit.setdefault(pair, 1 << len(qbit)) if len(pair) == 2 else 0
            qof[a, b] = q
            edges.append((a, b, unit, q << width | first))
        if self.poset:
            up = self.level.up
            simplices = [((a, b, c), unit_of[c])
                         for a, b in qof for c in bits(up[b]) if c != b]
        else:
            simplices = [(s, unit_of[s])
                         for s in base_of(self.level).ranked_simplices()
                         if len(s) == 3]
        triangles = [((a, b, c), unit,
                      (qof[a, b] ^ qof[b, c] ^ qof[a, c]) << width)
                     for (a, b, c), unit in simplices]
        return edges, triangles

    def obstruction(self, mask):
        """The record of a 1-cycle z of the piece with rho_1(z) + rho_j(z)
        not a boundary of T, else None.

        Contiguous maps, and comparable monotone maps on order complexes,
        are homotopic, so they induce the same map on H_1(-; F_2); and a
        symmetric chain or fence to a diagonal tuple joins rho_1 to each
        rho_j.  So such a piece is bad, plain or symmetric.  The fundamental
        cycles of a spanning forest of the piece's edges span its cycles,
        so one of them has residues exactly when some cycle has.
        """
        names, table, width, _ = self._edge_table
        present = [e for e in table if mask >> e[2] & 1]
        if not any(e[3] for e in present):
            return None
        found = next(_fundamental_cycles(present), None)
        if found is None:
            return None
        odd, cycle = found
        return {
            "stage": "obstruction",
            "j": 2 + ((odd & -odd).bit_length() - 1) // width,
            "cycle": [(names[present[k][0]], names[present[k][1]])
                      for k in sorted(cycle())],
        }

    def quotient(self, mask):
        """The record of a 1-cycle z of a symmetric piece Q and a 2-chain c
        of Q with q(z) = the boundary of q(c) and rho_1(z) not a boundary
        of T, else None (see the module's docstring for why Q is bad).

        Only the piece's own 2-simplices may enter c: L is the quotient of
        Q, not of the top level.  The boundaries of q(c) for single
        simplices, then the fundamental cycles' (q(z), rho_1(z)), are
        eliminated on their q parts, each row remembering the simplices
        and cycles it sums.  The first row whose q part vanishes while its
        rho_1 part does not is the record; there is one whenever some
        cycle of Q with q(z) a boundary has rho_1(z) outside B_1(T).
        """
        names, _, width, _ = self._edge_table
        edges, triangles = self._orbit_table
        low = (1 << width) - 1
        present = [e for e in edges if mask >> e[2] & 1]
        if not any(e[3] & low for e in present):
            return None
        chain = [t for t in triangles if mask >> t[1] & 1]
        rows = {}  # leading bit of a q part -> (value, sources)

        def reduce(v, sources):
            while v > low and v.bit_length() - 1 in rows:
                row, summed = rows[v.bit_length() - 1]
                v, sources = v ^ row, sources ^ summed
            if v > low:
                rows[v.bit_length() - 1] = v, sources
            return v, sources

        for k, (_, _, boundary) in enumerate(chain):
            reduce(boundary, 1 << k)
        cycles = []
        for value, cycle in _fundamental_cycles(present):
            v, sources = reduce(value, 1 << (len(chain) + len(cycles)))
            cycles.append(cycle)
            if 0 < v <= low:
                z = set()
                for i in bits(sources >> len(chain)):
                    z ^= cycles[i]()
                return {
                    "stage": "quotient",
                    "cycle": [(names[present[k][0]], names[present[k][1]])
                              for k in sorted(z)],
                    "chain": [tuple(names[x] for x in chain[k][0])
                              for k in bits(sources)
                              if k < len(chain)],
                }
        return None

    def refute(self, mask):
        """A record that the piece of ``mask`` is bad, found without a
        search, else None: the F_2 test, then on a symmetric lattice the
        quotient test."""
        record = self.obstruction(mask)
        if record is None and self.symmetric:
            record = self.quotient(mask)
        return record

    @cached_property
    def space(self):
        """The top level's map space, its projections checked once by the
        deciders' own input check; every piece is decided on it."""
        return _check_inputs(self.maps, self.n, self.depth, "auto",
                             self.symmetric, not self.poset)

    def restrict(self, mask):
        """``space`` restricted to the piece of ``mask``: to its element
        indices, or to its facets, the members of its maximal units (a unit
        below another has each member below one of the other's, see
        _masks)."""
        if self.poset:
            return self.space.restrict(
                sorted([x for u in bits(mask) for x in self.units[u]]))
        below = 0
        for u in bits(mask):
            below |= self._masks[u] ^ 1 << u
        return self.space.restrict(
            [s for u in bits(mask & ~below) for s in self.units[u]])

    def decide(self, mask):
        """A proper piece is refuted first, else searched on its restricted
        space; the whole space is searched first, and refuted only when the
        search overruns.  A yes keeps the driver's levels as its witness
        (``good_piece`` makes the certificate)."""
        whole = mask == self.all
        if not whole and (record := self.refute(mask)):
            return SearchResult("no", None, record)
        try:
            return _decide(self.space if whole else self.restrict(mask),
                           "auto", self.budgets["nodes"])
        except BudgetExceeded:
            if not whole or not (record := self.refute(mask)):
                raise
            return SearchResult("no", None, record)

    def settle(self, S):
        """Memo, then dominance, then ``decide``; overruns are remembered."""
        memo = self.memo
        if S in memo:
            out = memo[S]
            if isinstance(out, BudgetExceeded):
                raise type(out)(*out.args)
            return out
        # dominance results carry no witness; good_piece decides again
        if any(S & G == S for G in self.goods):
            out = SearchResult("yes", None, {"by_dominance": True})
        elif any(B & S == B for B in self.bads):
            out = SearchResult("no", None, {"by_dominance": True})
        else:
            try:
                out = self.decide(S)
            except BudgetExceeded as exc:
                memo[S] = type(exc)(*exc.args)
                raise
            self.stats["pieces_tested"] += 1
            if out.yes:
                self.goods = [G for G in self.goods if G & S != G] + [S]
            elif out.status == "no":
                self.bads = [B for B in self.bads if B & S != S] + [S]
        memo[S] = out
        return out

    def good_piece(self, S):
        """Settled good S with its certificate, on the piece's names: S is
        decided again if settled by dominance, and the driver's levels
        become a certificate once."""
        res = self.memo[S]
        if res.witness is None:
            res = self.memo[S] = self.decide(S)
            self.stats["pieces_tested"] += 1
        piece = self.piece(S)
        if isinstance(res.witness, list):  # the levels of ``decide``
            res.witness = self.space.certificate(
                res.witness, n=self.n, depth=self.depth,
                symmetric=self.symmetric, source=piece,
                target=self.tower.factor)
            res.witness.projection_endpoints = True
        units = tuple(bits(S))
        to_doc = poset_to_doc if self.poset else complex_to_doc
        return GoodPiece(units, sum(len(self.units[u]) for u in units),
                         res.witness, to_doc(piece))

    def _result(self, invariant, kind, upper, cover_sets):
        """Value ``upper`` unless in upper mode; lower 2 unless exact."""
        cover = [self.good_piece(S) for S in cover_sets]
        ms = [p.witness.m for p in cover] if self.poset else []
        return ComplexityResult(
            invariant=invariant,
            n=self.n,
            r=self.depth,
            kind=kind,
            lower=upper if kind == "exact" else 2,
            upper=upper,
            value=None if kind == "upper" else upper,
            m=max(ms) if ms else None,
            cover=cover,
            whole_space_good=self.memo[self.all].yes,
            stats=self.stats,
        )

    def _min_cover(self, pieces):
        k, chosen = min_cover(
            bits(self.universe), [bits(S & self.universe) for S in pieces],
            budget=self.budgets["cover"])
        return k, [pieces[i] for i in chosen]

    def cover(self, mode, invariant):
        """The value of ``invariant`` in ``mode``, exact or upper."""
        stats = self.stats
        whole = self.settle(self.all)
        stats["whole_record"] = dict(whole.record)
        if whole.yes:
            return self._result(invariant, "exact", 1, [self.all])

        # infeasibility: a universe unit whose generated piece is already bad
        for u in bits(self.universe):
            if not self.settle(self.down_closure(1 << u)).yes:
                stats["infeasible_unit"] = u
                return self._result(invariant, "infinite", INFINITY, [])

        # every universe unit's piece is good, so each mode's pieces cover
        if mode == "exact":
            maxima = self.maximal_good_sets()
            k, chosen = self._min_cover(maxima)
            stats["candidate_pieces"] = len(maxima)
            out = self._result(invariant, "exact", k, chosen)
            out.candidates = [tuple(bits(S)) for S in maxima]
            return out

        # upper mode: grow each universe seed one quantum (a unit, or a facet
        # orbit) at a time.  One first-fit pass suffices: goodness is
        # anti-monotone in piece size, so a rejected addition would be
        # rejected against any larger piece too.  A step whose decision
        # overruns the node budget counts as rejected: the cover uses only
        # pieces decided "yes", so the bound stays sound.
        quanta = range(len(self.units)) if self.poset else bits(self.universe)
        grown = []
        for u in bits(self.universe):
            S = self.down_closure(1 << u)
            for w in quanta:
                if S >> w & 1:
                    continue
                T = S | self.down_closure(1 << w)
                try:
                    good = self.settle(T).yes
                except BudgetExceeded:
                    stats["overrun_steps"] = stats.get("overrun_steps", 0) + 1
                    continue
                if good:
                    S = T
            if S not in grown:
                grown.append(S)
        k, chosen = self._min_cover(grown)
        return self._result(invariant, "upper", k, chosen)

    def maximal_good_sets(self):
        """All maximal good pieces ↓F, F a set of universe units.

        When a piece D is good so is ↓(D ∩ universe), which covers the same
        universe units, so the maximal F with ↓F good suffice.  The walk
        starts at the universe (↓universe is the whole space), stops at a
        good F and steps from a bad F to F minus one unit.  It is complete
        because every strict superset of a maximal F is bad, and removing
        one unit at a time from a bad superset reaches F.  Universe units
        are maximal, so distinct F give distinct pieces.  ``cover`` has
        found each ↓{u} good, so the walk never reaches the empty set.
        """
        budget = self.budgets["lattice"]
        goods, visited, stack = [], set(), [self.universe]
        while stack:
            F = stack.pop()
            if F in visited:
                continue
            visited.add(F)
            self.stats["lattice_visited"] += 1
            if len(visited) > budget:
                raise BudgetExceeded(f"maximal-piece enumeration exceeded "
                                     f"{budget} lattice nodes")
            if self.settle(self.down_closure(F)).yes:
                goods.append(F)
                continue
            stack.extend(F ^ (1 << u) for u in bits(F))
        maxima = []
        for F in sorted(goods, key=int.bit_count, reverse=True):
            if not any(F & T == F for T in maxima):
                maxima.append(F)
        # deterministic order
        return sorted(map(self.down_closure, maxima),
                      key=lambda S: (S.bit_count(), bits(S)))


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def _cover(invariant, instance, n, r, mode, budget):
    """Check the mode, then a poset's connectivity; cover the tower."""
    if mode not in ("exact", "upper"):
        raise UnsupportedMode(
            f"cover mode must be 'exact' or 'upper', not {mode!r}")
    poset = invariant.startswith("cc")
    if poset and not instance.is_connected():
        raise DisconnectedPoset(
            "complexity searches require a connected poset")
    budgets = budgets_with(budget)
    make = poset_tower if poset else build_tower
    tower = make(instance, n, r, budget=budgets["simplices"])
    lattice = _UnitLattice(tower, invariant.endswith("sigma"), budgets)
    return lattice.cover(mode, invariant)


def sc_sigma(K, n=2, r=0, mode="exact", budget=None):
    """Symmetric simplicial complexity at subdivision level r."""
    return _cover("sc_sigma", K, n, r, mode, budget)


def sc_plain(K, n=2, r=0, mode="exact", budget=None):
    """Plain simplicial complexity at subdivision level r."""
    return _cover("sc_plain", K, n, r, mode, budget)


def cc_sigma(P, n=2, r=0, mode="exact", budget=None):
    """Symmetric combinatorial complexity at subdivision level r (stable m)."""
    return _cover("cc_sigma", P, n, r, mode, budget)


def cc_plain(P, n=2, r=0, mode="exact", budget=None):
    """Plain combinatorial complexity at subdivision level r."""
    return _cover("cc_plain", P, n, r, mode, budget)


def tc_sigma_finite(P, n=2, mode="exact", budget=None):
    """The finite-space symmetric complexity: the level-0 value, computed by
    the homotopy route."""
    res = cc_sigma(P, n=n, r=0, mode=mode, budget=budget)
    res.invariant = "tc_sigma_finite"
    return res


def tc_sigma_finite_sections(P, n=2, budget=None):
    """The same number computed by the independent section-enumeration route."""
    from .sections import cc_by_sections

    budgets = budgets_with(budget)
    out = cc_by_sections(P, n, budget=budgets["nodes"])
    k = out["k"]
    return ComplexityResult(
        invariant="tc_sigma_finite_sections",
        n=n,
        r=0,
        kind="exact" if k is not None else "infinite",
        lower=k if k is not None else 2,
        upper=k if k is not None else INFINITY,
        value=k if k is not None else INFINITY,
        m=out["m"],
        cover=[],
        whole_space_good=out["whole_space_good"],
        stats={"pieces_tested": out["pieces_tested"], "route": "sections"},
    )


STABILIZE_INVARIANTS = {
    "sc-sigma": sc_sigma,
    "sc-plain": sc_plain,
    "cc-sigma": cc_sigma,
    "cc-plain": cc_plain,
}


def stabilize_over_r(invariant, instance, n=2, max_r=1, mode="exact",
                     budget=None):
    """Values (or bounds) for r = 0..max_r with the running minimum.

    A strict increase between consecutive exact values is a hard error: the
    per-level values form a non-increasing sequence.
    """
    fn = STABILIZE_INVARIANTS[invariant]
    check_depth(max_r, "max_r")
    rows = []
    running = INFINITY
    for r in range(max_r + 1):
        res = fn(instance, n=n, r=r, mode=mode, budget=budget)
        rows.append(res)
        if (
            len(rows) >= 2
            and rows[-2].kind == "exact"
            and rows[-1].kind == "exact"
            and rows[-1].value > rows[-2].value
        ):
            raise MonotonicityViolation(
                f"{invariant} increased from r={r - 1} to r={r}: "
                f"{rows[-2].value} -> {rows[-1].value}"
            )
        running = min(running, res.best())
    return {"rows": rows, "min": running}
