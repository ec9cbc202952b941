"""Finite posets viewed as finite T0 spaces.

Order is stored after reflexive-transitive closure as one int bitmask per
element and direction: ``up[i]`` has bit j set when element i <= element j,
and ``down`` is its transpose.  A comparability query is one shift, and the
map searches, the section sweep, the order complex and the checker read
these masks as they are.  Open sets are down-sets: the minimal open set
containing x is ``U_x = {y : y <= x}``, the bits of ``down``.
"""

from dataclasses import dataclass
from itertools import combinations, product as iproduct

from .complexes import OrderedComplex, SimplicialComplex
from .errors import (
    BadArity,
    BudgetExceeded,
    CycleDetected,
    UnknownElement,
)
from .util import bits, csorted


class FinitePoset:
    """Immutable finite poset over canonically sorted elements.

    ``elements`` must already be in canonical order.  ``up[i]`` is the int
    bitmask of the elements above element i (bit j set when i <= j) and
    ``down[i]`` that of the elements below it, the transpose.
    """

    __slots__ = ("elements", "index", "up", "down", "_key")

    def __init__(self, elements, up):
        self.elements = tuple(elements)
        self.index = {e: i for i, e in enumerate(self.elements)}
        self.up = tuple(up)
        down = [0] * len(self.up)
        for i, mask in enumerate(self.up):
            bit = 1 << i
            for j in bits(mask):
                down[j] |= bit
        self.down = tuple(down)
        self._key = (self.elements, self.up)

    # -- basic queries ---------------------------------------------------

    def __contains__(self, x):
        return x in self.index

    def _i(self, x):
        try:
            return self.index[x]
        except KeyError:
            raise UnknownElement(f"element {x!r} not in poset") from None

    def le(self, a, b):
        return bool(self.up[self._i(a)] >> self._i(b) & 1)

    def lt(self, a, b):
        return a != b and self.le(a, b)

    def comparable(self, a, b):
        i, j = self._i(a), self._i(b)
        return bool((self.up[i] | self.down[i]) >> j & 1)

    def down_set(self, x):
        """U_x = {y : y <= x}."""
        return frozenset(self.elements[j] for j in bits(self.down[self._i(x)]))

    def up_set(self, x):
        return frozenset(self.elements[j] for j in bits(self.up[self._i(x)]))

    def is_open(self, S):
        """A subset is open iff it is downward closed."""
        S = frozenset(S)
        for x in S:
            if not self.down_set(x) <= S:
                return False
        return True

    def down_closure(self, S):
        out = set()
        for x in S:
            out |= self.down_set(x)
        return frozenset(out)

    def maximal_of(self, S=None):
        """Maximal elements of a subset (default: of the whole poset)."""
        S = list(self.elements) if S is None else csorted(S)
        return [
            x for x in S if not any(self.lt(x, y) for y in S)
        ]

    def minimal_of(self, S=None):
        S = list(self.elements) if S is None else csorted(S)
        return [
            x for x in S if not any(self.lt(y, x) for y in S)
        ]

    def max_of(self, S):
        """The maximum of a totally ordered subset."""
        best = None
        for x in S:
            if best is None or self.le(best, x):
                best = x
            elif not self.le(x, best):
                raise CycleDetected(f"subset is not totally ordered at {x!r}")
        if best is None:
            raise UnknownElement("max of empty subset")
        return best

    def covers(self):
        """Hasse diagram pairs (a, b) with a < b and nothing in between,
        in row-major order of the element indices."""
        above = [m ^ 1 << i for i, m in enumerate(self.up)]
        out = []
        for i, over in enumerate(above):
            between = 0
            for k in bits(over):
                between |= above[k]
            out.extend((self.elements[i], self.elements[j])
                       for j in bits(over & ~between))
        return out

    def is_connected(self):
        """Is the comparability graph connected?  The empty poset is not: it
        has no component at all."""
        if not self.up:
            return False
        seen = frontier = 1
        while frontier:
            reach = 0
            for i in bits(frontier):
                reach |= self.up[i] | self.down[i]
            frontier = reach & ~seen
            seen |= frontier
        return seen == (1 << len(self.up)) - 1

    def restrict(self, S):
        """Induced sub-poset on a subset of elements."""
        S = csorted(set(S))
        idx = [self._i(x) for x in S]
        return FinitePoset(S, [
            sum(1 << k for k, j in enumerate(idx) if self.up[i] >> j & 1)
            for i in idx
        ])

    def __eq__(self, other):
        return isinstance(other, FinitePoset) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"FinitePoset({len(self.elements)} elements)"


def poset_from_relations(elements, generators):
    """Reflexive-transitive closure of generating pairs (a, b) meaning a <= b."""
    elements = tuple(csorted(set(elements)))
    index = {e: i for i, e in enumerate(elements)}
    pairs = []
    for a, b in generators:
        if a not in index:
            raise unknown_element(a)
        if b not in index:
            raise unknown_element(b)
        pairs.append((index[a], index[b]))
    return poset_from_index_pairs(elements, pairs)


def unknown_element(x):
    """The error for a relation naming ``x``, which is not an element."""
    return UnknownElement(f"relation uses unknown element {x!r}")


def poset_from_index_pairs(elements, pairs):
    """The poset on canonically sorted, distinct ``elements`` generated by
    index pairs (i, j) meaning elements[i] <= elements[j]."""
    up = [1 << i for i in range(len(elements))]
    for i, j in pairs:
        up[i] |= 1 << j
    # Warshall closure: whatever reaches k reaches all k reaches
    for k in range(len(up)):
        bit = 1 << k
        for i, mask in enumerate(up):
            if mask & bit:
                up[i] = mask | up[k]
    for i, mask in enumerate(up):
        for j in bits(mask ^ 1 << i):
            if up[j] >> i & 1:
                raise CycleDetected(
                    f"antisymmetry violated: {elements[i]!r} <= "
                    f"{elements[j]!r} <= {elements[i]!r}"
                )
    return FinitePoset(elements, up)


def _componentwise(P, rows):
    """The up masks of the componentwise order of P on index tuples
    ``rows``: row a lies below row b when each coordinate of a lies below
    that of b in P."""
    width = len(rows[0]) if rows else 0
    # above[k][v]: the rows whose k-th coordinate lies above value v
    above = [[0] * len(P.elements) for _ in range(width)]
    for b, row in enumerate(rows):
        bit = 1 << b
        for col, v in zip(above, row):
            for u in bits(P.down[v]):
                col[u] |= bit
    full = (1 << len(rows)) - 1
    up = []
    for row in rows:
        mask = full
        for col, v in zip(above, row):
            mask &= col[v]
        up.append(mask)
    return up


def power_poset(P, n):
    """P^n with componentwise order; elements are n-tuples."""
    if n < 1:
        raise BadArity("power requires n >= 1")
    elements = csorted(tuple(t) for t in iproduct(P.elements, repeat=n))
    rows = [[P.index[x] for x in t] for t in elements]
    return FinitePoset(elements, _componentwise(P, rows))


class MonotoneMap:
    """An order preserving map between finite posets."""

    __slots__ = ("source", "target", "mapping")

    def __init__(self, source, target, mapping):
        self.source = source
        self.target = target
        self.mapping = dict(mapping)

    def __call__(self, x):
        return self.mapping[x]


class MonotoneWalk:
    """The lowest class-constant monotone map Q -> P under per-element value
    masks, walked over tables prepared once per (Q, P, classes).

    ``classes`` optionally partitions Q's element indices; maps are required
    to be constant on each class (used for group-invariant maps).
    ``up[v]`` and ``down[v]`` are the int bitmasks over P of the values
    >= v and <= v.

    Classes are filled in order, each with its admissible values ascending,
    so the first map found is the lowest in lexicographic order of the class
    values.  The admissible values of a class form a bitmask over P: the
    masks of all its elements, ANDed with ``up[values[j]]`` for every
    element j of an earlier class below one of its elements and with
    ``down[values[j]]`` for every such j above one (``bounds`` lists these
    pairs per class).  ``untried[ci]`` holds the values class ci has still
    to try, so the walk needs no recursion: one frame per class would
    overflow Python's stack on large sources.
    """

    __slots__ = ("nq", "full", "classes", "up", "down", "bounds")

    def __init__(self, Q, P, classes=None):
        nq, npp = len(Q.elements), len(P.elements)
        if classes is None:
            classes = [[i] for i in range(nq)]
        up, down = P.up, P.down
        bounds, earlier = [], []
        for cls in classes:
            members = sum(1 << i for i in cls)
            bounds.append(
                [(j, up) for j in earlier if Q.up[j] & members]
                + [(j, down) for j in earlier if Q.down[j] & members]
            )
            earlier.extend(cls)
        self.nq, self.full = nq, (1 << npp) - 1
        self.classes, self.up, self.down, self.bounds = classes, up, down, bounds

    def first(self, masks):
        """The lowest map whose value at element i is in ``masks[i]``, as a
        value-index tuple, or None when there is none."""
        classes, bounds = self.classes, self.bounds
        base = []
        for cls in classes:
            mask = self.full
            for i in cls:
                mask &= masks[i]
            base.append(mask)
        if not all(base):
            return None
        nc = len(classes)
        values = [-1] * self.nq
        untried = base[:1] + [0] * (nc - 1)
        ci = 0
        while 0 <= ci < nc:
            rest = untried[ci]
            if not rest:
                ci -= 1
                continue
            low = rest & -rest
            untried[ci] = rest ^ low
            v = low.bit_length() - 1
            for i in classes[ci]:
                values[i] = v
            ci += 1
            if ci < nc:
                mask = base[ci]
                for j, table in bounds[ci]:
                    mask &= table[values[j]]
                untried[ci] = mask
        return tuple(values) if ci == nc else None


# -- chains, order complex, face poset --------------------------------------


def chain_walk(P, budget=None, admits=None):
    """Every nonempty chain of P as a sorted tuple of element indices, in
    depth-first order.

    The walk extends a chain by the strict successors of its last element,
    read once per element from ``up``.  With ``admits``, a chain is kept
    and extended only when ``admits(chain)`` holds for its list of indices;
    the test must hold on every subchain of a chain it admits.  Raises
    BudgetExceeded as soon as more than ``budget`` chains have been found.
    """
    n = len(P.elements)
    succ = [bits(m ^ 1 << i) for i, m in enumerate(P.up)]
    chains, chain = [], []
    stack = [iter(range(n))]
    while stack:
        y = next(stack[-1], None)
        if y is None:
            stack.pop()
            del chain[-1:]
            continue
        chain.append(y)
        if admits is not None and not admits(chain):
            chain.pop()
            continue
        chains.append(tuple(sorted(chain)))
        if budget is not None and len(chains) > budget:
            raise BudgetExceeded(f"more than {budget} chains")
        stack.append(iter(succ[y]))
    return chains


def all_chains(P, budget=None):
    """Every nonempty chain of P, as frozensets, in depth-first order;
    ``budget`` as in ``chain_walk``."""
    els = P.elements
    return [frozenset([els[i] for i in c]) for c in chain_walk(P, budget)]


def order_complex(P, budget=None):
    """K(P): simplices are the nonempty chains of P, ordered by P itself.

    The chains go over as sorted index tuples: P's elements are the
    complex's canonically sorted vertices, so an index is a vertex rank.
    """
    base = SimplicialComplex.from_ranked(
        P.elements, P.index, chain_walk(P, budget=budget)
    )
    return OrderedComplex(base, P)


def face_poset(K):
    """X(K): simplices of K ordered by face inclusion.

    Elements are canonical sorted vertex tuples.  The relation is filled
    from the faces of each simplex's rank tuple, so it costs the number of
    faces, not the square of the number of simplices.
    """
    if isinstance(K, OrderedComplex):
        K = K.base
    ranked = K.ranked_simplices()
    index = {t: i for i, t in enumerate(ranked)}
    up = [0] * len(ranked)
    for j, t in enumerate(ranked):
        bit = 1 << j
        for k in range(1, len(t) + 1):
            for sub in combinations(t, k):
                up[index[sub]] |= bit
    return FinitePoset(K.simplex_names(), up)


def sd_poset(P, budget=None):
    """Barycentric subdivision of a finite space: X(K(P))."""
    return face_poset(order_complex(P, budget=budget))


# -- fences ------------------------------------------------------------------


BASEPOINT = (0, 0)


@dataclass(frozen=True)
class MultiFence:
    """J_{n,m}: n fences of length m glued at the basepoint (0, 0).

    Points are (0, 0) and (l, j) for 1 <= l <= m, 1 <= j <= n.  The terminal
    relation's direction is determined by the parity of m.
    """

    n: int
    m: int
    poset: FinitePoset

    def point(self, l, j):
        if l == 0:
            return BASEPOINT
        if not (1 <= l <= self.m and 1 <= j <= self.n):
            raise UnknownElement(f"no point ({l}, {j}) in J_{{{self.n},{self.m}}}")
        return (l, j)

    def end(self, j):
        """m_j, the far end of the j-th fence (the basepoint when m = 0)."""
        return self.point(self.m, j)


def multi_fence(n, m):
    """J_{n,m}, a poset of nm + 1 points."""
    if n < 2:
        raise BadArity("multi fence requires n >= 2")
    if m < 0:
        raise BadArity("multi fence requires m >= 0")
    points = [BASEPOINT] + [(l, j) for l in range(1, m + 1) for j in range(1, n + 1)]
    gens = []
    for j in range(1, n + 1):
        prev = BASEPOINT
        for l in range(1, m + 1):
            cur = (l, j)
            if l % 2 == 1:
                gens.append((prev, cur))
            else:
                gens.append((cur, prev))
            prev = cur
    P = poset_from_relations(points, gens)
    return MultiFence(n, m, P)
