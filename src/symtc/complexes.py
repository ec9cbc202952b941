"""Finite (ordered) simplicial complexes, simplicial maps and their validation.

Simplices are stored as frozensets of vertex labels; a complex keeps its full
simplex set (the downward closure of the declared facets plus all singleton
vertices) so that "is this set a simplex" is a set lookup.  All instances are
immutable after construction.
"""

from itertools import combinations

from .errors import EmptyFacet, NotASubcomplex, UnknownVertex, UnorderedInput
from .util import ckey, csorted, name_of


def closure_of(facets):
    """Downward closure: every nonempty subset of every facet.

    Larger sets go first, so a set already reached as a face of another
    adds nothing and is skipped.
    """
    out = set()
    for f in sorted(map(frozenset, facets), key=len, reverse=True):
        if f in out:
            continue
        f = tuple(f)
        for k in range(1, len(f) + 1):
            for sub in combinations(f, k):
                out.add(frozenset(sub))
    return out


class SimplicialComplex:
    """Vertex set plus a family of nonempty subsets closed under subsets.

    ``rank`` numbers the canonically sorted vertices; simplices are ordered
    by the sorted tuples of their vertex ranks, which is the canonical order
    of their names (see ``util``) without keying a name per simplex.
    """

    __slots__ = (
        "vertices", "rank", "simplices", "_facets", "_facet_ranks", "_key"
    )

    def __init__(self, vertices, facets=(), simplices=None):
        vertices = tuple(csorted(set(vertices)))
        if simplices is None:
            simplices = closure_of(facets)
        simplices = frozenset(frozenset(s) for s in simplices) | frozenset(
            frozenset([v]) for v in vertices
        )
        self.vertices = vertices
        self.rank = {v: i for i, v in enumerate(vertices)}
        self.simplices = simplices
        self._facets = None
        self._facet_ranks = None
        self._key = (vertices, tuple(self._ranked(simplices)))

    def _ranked(self, simplices):
        """Sorted rank tuples of a family of simplices."""
        rank = self.rank
        return sorted(tuple(sorted([rank[v] for v in s])) for s in simplices)

    def _names(self, ranked):
        vs = self.vertices
        return [tuple([vs[i] for i in t]) for t in ranked]

    def ranked_simplices(self):
        """All simplices as sorted rank tuples, canonically ordered."""
        return self._key[1]

    def ranked_facets(self):
        """Maximal simplices as sorted rank tuples, canonically ordered.
        Computed lazily.

        A simplex is maximal iff no single-vertex extension of it is a
        simplex, so striking every codimension-1 face of every simplex
        leaves exactly the facets.
        """
        if self._facet_ranks is None:
            ranked = self._key[1]
            struck = set()
            for t in ranked:
                if len(t) > 1:
                    for i in range(len(t)):
                        struck.add(t[:i] + t[i + 1:])
            self._facet_ranks = tuple(t for t in ranked if t not in struck)
        return self._facet_ranks

    @property
    def facets(self):
        """Maximal simplices, as frozensets of vertices.  Computed lazily."""
        if self._facets is None:
            vs = self.vertices
            self._facets = frozenset(
                frozenset([vs[i] for i in t]) for t in self.ranked_facets()
            )
        return self._facets

    def is_simplex(self, s):
        return frozenset(s) in self.simplices

    def dim(self):
        return max(len(s) for s in self.simplices) - 1

    def simplex_names(self):
        """All simplices as canonical sorted tuples, canonically ordered."""
        return self._names(self._key[1])

    def facet_names(self):
        return self._names(self.ranked_facets())

    def star(self, v):
        """Combinatorial star: the simplices containing vertex v."""
        if v not in self.rank:
            raise UnknownVertex(f"vertex {v!r} not in complex")
        return frozenset(s for s in self.simplices if v in s)

    def __eq__(self, other):
        return isinstance(other, SimplicialComplex) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return (
            f"SimplicialComplex({len(self.vertices)} vertices, "
            f"{len(self.simplices)} simplices)"
        )


def from_facets(vertices, facets):
    """Build and validate a complex from declared vertices and facets."""
    vset = set(vertices)
    facets = list(facets)
    for f in facets:
        if len(f) == 0:
            raise EmptyFacet("facets must be nonempty")
        for v in f:
            if v not in vset:
                raise UnknownVertex(
                    f"facet {sorted(f, key=ckey)!r} uses undeclared vertex {v!r}"
                )
    return SimplicialComplex(vset, facets)


def euler_characteristic(K):
    """Alternating sum of simplex counts by dimension."""
    K = base_of(K)
    return sum((-1) ** (len(s) - 1) for s in K.simplices)


class OrderedComplex:
    """A complex with a vertex partial order, total on every simplex.

    ``order`` is a FinitePoset over exactly the vertex set.
    """

    __slots__ = ("base", "order")

    def __init__(self, base, order):
        if tuple(order.elements) != tuple(base.vertices):
            raise UnorderedInput("vertex order must cover exactly the vertex set")
        for s in base.simplices:
            members = list(s)
            for a, b in combinations(members, 2):
                if not (order.le(a, b) or order.le(b, a)):
                    raise UnorderedInput(
                        f"simplex {name_of(s)!r} is not totally ordered: "
                        f"{a!r} and {b!r} incomparable"
                    )
        self.base = base
        self.order = order

    @property
    def vertices(self):
        return self.base.vertices

    @property
    def facets(self):
        return self.base.facets

    @property
    def simplices(self):
        return self.base.simplices

    def is_simplex(self, s):
        return self.base.is_simplex(s)

    def simplex_names(self):
        return self.base.simplex_names()

    def facet_names(self):
        return self.base.facet_names()

    def max_vertex(self, s):
        """Largest vertex of a simplex under the vertex order."""
        return self.order.max_of(s)

    def __eq__(self, other):
        return (
            isinstance(other, OrderedComplex)
            and self.base == other.base
            and self.order == other.order
        )

    def __hash__(self):
        return hash((self.base, self.order))

    def __repr__(self):
        return f"Ordered{self.base!r}"


class SimplicialMap:
    """A vertex function whose simplex images are required to be simplices."""

    __slots__ = ("source", "target", "vertex_map")

    def __init__(self, source, target, vertex_map):
        self.source = base_of(source)
        self.target = base_of(target)
        self.vertex_map = dict(vertex_map)

    def __call__(self, v):
        return self.vertex_map[v]

    def image(self, s):
        return frozenset(self.vertex_map[v] for v in s)

    def compose(self, other):
        """self after other (other's target feeds self's source)."""
        return SimplicialMap(
            other.source,
            self.target,
            {v: self.vertex_map[w] for v, w in other.vertex_map.items()},
        )

    def __eq__(self, other):
        return (
            isinstance(other, SimplicialMap)
            and self.source == other.source
            and self.target == other.target
            and self.vertex_map == other.vertex_map
        )

    def __hash__(self):
        return hash(
            (self.source, self.target, tuple(csorted(self.vertex_map.items())))
        )


def base_of(K):
    """The underlying SimplicialComplex of a plain or ordered complex."""
    return K.base if isinstance(K, OrderedComplex) else K


def identity_map(K):
    K = base_of(K)
    return SimplicialMap(K, K, {v: v for v in K.vertices})


def validate_simplicial_map(f, report=False):
    """True iff every simplex of the source maps to a simplex of the target.

    Degenerate images (lower dimension) are fine.  With ``report=True``
    returns ``(ok, offending_simplex_or_None)``.
    """
    for v in f.source.vertices:
        if v not in f.vertex_map:
            bad = frozenset([v])
            return (False, bad) if report else False
    for s in f.source.simplices:
        if not f.target.is_simplex(f.image(s)):
            return (False, s) if report else False
    return (True, None) if report else True


def is_subcomplex(L, K):
    """True iff every simplex of L is a simplex of K."""
    L, K = base_of(L), base_of(K)
    return L.simplices <= K.simplices


def restrict_map(f, L):
    """Restrict a simplicial map to a subcomplex of its source."""
    Lb = base_of(L)
    if not is_subcomplex(Lb, f.source):
        raise NotASubcomplex("restriction domain is not a subcomplex of the source")
    return SimplicialMap(Lb, f.target, {v: f.vertex_map[v] for v in Lb.vertices})


def subcomplex_from_simplices(K, simplices):
    """The subcomplex of K spanned by the downward closure of ``simplices``."""
    K = base_of(K)
    simplices = frozenset(frozenset(s) for s in simplices)
    for s in simplices:
        if not K.is_simplex(s):
            raise NotASubcomplex(
                f"{name_of(s)!r} is not a simplex of the ambient complex"
            )
    verts = set()
    for s in simplices:
        verts |= s
    return SimplicialComplex(verts, simplices)
