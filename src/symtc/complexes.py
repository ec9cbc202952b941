"""Finite (ordered) simplicial complexes, simplicial maps and their validation.

A complex numbers its canonically sorted vertices (``rank``) and stores each
simplex once, as the sorted tuple of its vertex ranks: the downward closure
of the declared facets plus every singleton vertex.  Faces are made from
those tuples, so building a complex hashes each vertex name once, and "is
this set a simplex" is one tuple lookup.  The simplices as frozensets of
names (``simplices``) are built on first use only, for callers that read
them.  All instances are immutable after construction.
"""

from itertools import combinations

from .errors import EmptyFacet, NotASubcomplex, UnknownVertex, UnorderedInput
from .util import ckey, csorted, name_of


def closure_of(ranked):
    """Downward closure of a family of sorted rank tuples: every nonempty
    sub-tuple of each.  Returns the closure and the family's maximal
    tuples, which are the closure's facets.

    ``combinations`` of a sorted tuple come out sorted, so no face is sorted
    or keyed by name.  Larger tuples go first, so one already reached as a
    face of another adds nothing and is skipped; the tuples not skipped are
    the maximal ones.
    """
    out, tops = set(), []
    for t in sorted(ranked, key=len, reverse=True):
        if t in out:
            continue
        tops.append(t)
        for k in range(1, len(t) + 1):
            out.update(combinations(t, k))
    return out, tops


def undeclared(facet, v):
    """The message for ``facet`` (its vertex names) using the undeclared
    vertex ``v``."""
    return f"facet {sorted(facet, key=ckey)!r} uses undeclared vertex {v!r}"


def _rank_tuples(rank, family):
    """Each member of ``family`` (a collection of vertex names) as the
    sorted tuple of its vertex ranks."""
    out = []
    for s in family:
        if len(s) == 0:
            raise EmptyFacet("facets must be nonempty")
        try:
            out.append(tuple(sorted({rank[v] for v in s})))
        except KeyError:
            v = next(v for v in s if v not in rank)
            raise UnknownVertex(undeclared(s, v)) from None
    return out


class SimplicialComplex:
    """Vertex set plus a family of nonempty subsets closed under subsets.

    ``rank`` numbers the canonically sorted vertices; simplices are stored
    as sorted rank tuples and ordered by them, which is the canonical order
    of their names (see ``util``) without keying a name per simplex.
    ``facets`` and ``simplices`` are raised to names on first use.
    """

    __slots__ = (
        "vertices", "rank", "_ranked", "_sorted", "_facet_ranks", "_facets",
        "_simplices",
    )

    def __init__(self, vertices, facets=()):
        vertices = tuple(csorted(set(vertices)))
        rank = {v: i for i, v in enumerate(vertices)}
        self._close(vertices, rank, _rank_tuples(rank, facets))

    @classmethod
    def from_rank_tuples(cls, vertices, rank, family):
        """A complex from canonically sorted, distinct ``vertices``, their
        numbering ``rank`` and the sorted rank tuples of a family of
        nonempty simplices, closed under faces here."""
        K = cls.__new__(cls)
        K._close(vertices, rank, family)
        return K

    def _close(self, vertices, rank, family):
        ranked, tops = closure_of(family)
        tops += [(i,) for i in range(len(vertices)) if (i,) not in ranked]
        self._store(vertices, rank, ranked, tuple(sorted(tops)))

    @classmethod
    def from_ranked(cls, vertices, rank, ranked):
        """A complex from canonically sorted, distinct ``vertices``, their
        numbering ``rank`` (a poset's ``index``) and a family of sorted rank
        tuples over them closed under faces."""
        K = cls.__new__(cls)
        K._store(tuple(vertices), rank, set(ranked))
        return K

    def _store(self, vertices, rank, ranked, facet_ranks=None):
        ranked.update((i,) for i in range(len(vertices)))
        self.vertices = vertices
        self.rank = rank
        self._ranked = ranked
        self._sorted = None
        self._facet_ranks = facet_ranks
        self._facets = self._simplices = None

    def _names(self, ranked):
        vs = self.vertices
        return [tuple([vs[i] for i in t]) for t in ranked]

    def _sets(self, ranked):
        vs = self.vertices
        return frozenset(frozenset([vs[i] for i in t]) for t in ranked)

    def ranked_simplices(self):
        """All simplices as sorted rank tuples, canonically ordered.
        Sorted on first use: a complex read back from a certificate is
        checked on its facets alone."""
        if self._sorted is None:
            self._sorted = tuple(sorted(self._ranked))
        return self._sorted

    @property
    def _key(self):
        return (self.vertices, self.ranked_simplices())

    def ranked_facets(self):
        """Maximal simplices as sorted rank tuples, canonically ordered.
        Kept from the closure when the complex is built from facets, else
        computed lazily.

        A simplex is maximal iff no single-vertex extension of it is a
        simplex, so striking every codimension-1 face of every simplex
        leaves exactly the facets.
        """
        if self._facet_ranks is None:
            ranked = self.ranked_simplices()
            struck = set()
            for t in ranked:
                if len(t) > 1:
                    struck.update(combinations(t, len(t) - 1))
            self._facet_ranks = tuple(t for t in ranked if t not in struck)
        return self._facet_ranks

    @property
    def facets(self):
        """Maximal simplices, as frozensets of vertices.  Computed lazily."""
        if self._facets is None:
            self._facets = self._sets(self.ranked_facets())
        return self._facets

    @property
    def simplices(self):
        """All simplices, as frozensets of vertices.  Computed lazily."""
        if self._simplices is None:
            self._simplices = self._sets(self._ranked)
        return self._simplices

    def is_simplex(self, s):
        rank = self.rank
        try:
            t = tuple(sorted({rank[v] for v in s}))
        except KeyError:
            return False
        return t in self._ranked

    def simplex_names(self):
        """All simplices as canonical sorted tuples, canonically ordered."""
        return self._names(self.ranked_simplices())

    def facet_names(self):
        return self._names(self.ranked_facets())

    def __eq__(self, other):
        return isinstance(other, SimplicialComplex) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return (
            f"SimplicialComplex({len(self.vertices)} vertices, "
            f"{len(self._ranked)} simplices)"
        )


def from_facets(vertices, facets):
    """Build and validate a complex from declared vertices and facets."""
    return SimplicialComplex(vertices, facets)


def euler_characteristic(K):
    """Alternating sum of simplex counts by dimension."""
    K = base_of(K)
    return sum((-1) ** (len(t) - 1) for t in K.ranked_simplices())


class OrderedComplex:
    """A complex with a vertex partial order, total on every simplex.

    ``order`` is a FinitePoset over exactly the vertex set, so an element's
    index in the order is its vertex rank.  A face of a chain is a chain,
    so the order is checked on facets only: a facet is a chain when its
    vertex mask lies inside the comparability mask of each of its vertices.
    """

    __slots__ = ("base", "order")

    def __init__(self, base, order):
        if tuple(order.elements) != tuple(base.vertices):
            raise UnorderedInput("vertex order must cover exactly the vertex set")
        # comparable[i]: the int bitmask of the vertices comparable to i
        comparable = [u | d for u, d in zip(order.up, order.down)]
        for t in base.ranked_facets():
            mask = 0
            for i in t:
                mask |= 1 << i
            for i in t:
                apart = mask & ~comparable[i]
                if apart:
                    vs = base.vertices
                    b = (apart & -apart).bit_length() - 1
                    raise UnorderedInput(
                        f"simplex {tuple(vs[j] for j in t)!r} is not "
                        f"totally ordered: {vs[i]!r} and {vs[b]!r} "
                        f"incomparable"
                    )
        self.base = base
        self.order = order

    @property
    def vertices(self):
        return self.base.vertices

    def max_vertex(self, s):
        """Largest vertex of a simplex under the vertex order."""
        return self.order.max_of(s)

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


def base_of(K):
    """The underlying SimplicialComplex of a plain or ordered complex."""
    return K.base if isinstance(K, OrderedComplex) else K


def identity_map(K):
    K = base_of(K)
    return SimplicialMap(K, K, {v: v for v in K.vertices})


def validate_simplicial_map(f, report=False):
    """True iff every simplex of the source maps to a simplex of the target.

    Degenerate images (lower dimension) are fine.  Images of faces lie in
    images of facets, so facets are checked, in canonical order.  With
    ``report=True`` returns ``(ok, offending_simplex_or_None)``.
    """
    for v in f.source.vertices:
        if v not in f.vertex_map:
            bad = frozenset([v])
            return (False, bad) if report else False
    for s in f.source.facet_names():
        if not f.target.is_simplex(f.image(s)):
            return (False, frozenset(s)) if report else False
    return (True, None) if report else True


def is_subcomplex(L, K):
    """True iff every simplex of L is a simplex of K.

    Checking L's facets suffices, K being closed under faces.  Both vertex
    tuples are canonically sorted, so L's ranks map into K's in order and a
    facet's rank tuple stays sorted.
    """
    L, K = base_of(L), base_of(K)
    if L is K:
        return True
    into = [K.rank.get(v) for v in L.vertices]
    if None in into:
        return False
    return all(
        tuple([into[i] for i in t]) in K._ranked for t in L.ranked_facets()
    )


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
