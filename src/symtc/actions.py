"""The permutation action on powers and their iterated subdivisions.

A permutation acts on base vertices/elements (n-tuples) by
``(g . x)_j = x_{g(j)}`` and on a subdivision name (a canonical tuple of
previous-level names) memberwise, re-sorting canonically.  ``depth`` counts
how many naming levels sit above the tuple level: 0 for K^n / P^n itself,
1 for its first subdivision, and so on.

A group acts on a family of names as index positions (``positions``): per
element g, the index of each name's image.  A symmetric decision builds that
table once for its source and reads from it the orbits, the reduction
classes and the branch transpositions (``reduction``), and the invariance
and equivariance checks (``equivariance_violation``).

Equivariant tuples (f_1, ..., f_n) with f_j(g.x) = f_{g(j)}(x) are in
bijection with single maps f_1 invariant under the subgroup generated by
all (1, g(j)) g (1, j); the tuple is recovered by f_j(x) = f_1((1, j).x).
That subgroup is Stab(1) = {g : g(1) = 1}.  Every generator fixes 1, and
every g in Stab(1) is a generator: j = 1 gives (1, g(1)) g (1, 1) = g.
"""

from itertools import permutations as ipermutations

from .errors import LevelMismatch
from .util import csorted, name_of


class Permutation:
    """A permutation of {1, ..., n}; composition is (g*h)(j) = g(h(j))."""

    __slots__ = ("n", "images")

    def __init__(self, images):
        images = tuple(images)
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {images}")
        self.n = n
        self.images = images

    def __call__(self, j):
        return self.images[j - 1]

    def __mul__(self, other):
        if self.n != other.n:
            raise LevelMismatch("permutation arities differ")
        return Permutation(tuple(self(other(j)) for j in range(1, self.n + 1)))

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation{self.images}"


def identity(n):
    return Permutation(range(1, n + 1))


def transposition(n, a, b):
    images = list(range(1, n + 1))
    images[a - 1], images[b - 1] = b, a
    return Permutation(images)


def symmetric_group(n):
    """All of Sigma_n, materialized in lexicographic order (keep n small)."""
    if n > 6:
        raise LevelMismatch("materializing Sigma_n is limited to n <= 6")
    return [Permutation(p) for p in ipermutations(range(1, n + 1))]


# -- the induced action on names ---------------------------------------------


def act_name(g, x, depth):
    """Apply g to a vertex/element name at the given naming depth."""
    if depth == 0:
        if not isinstance(x, tuple) or len(x) != g.n:
            raise LevelMismatch(f"expected an {g.n}-tuple at depth 0, got {x!r}")
        return tuple(x[g(j) - 1] for j in range(1, g.n + 1))
    if not isinstance(x, tuple):
        raise LevelMismatch(f"expected a chain name at depth {depth}, got {x!r}")
    return name_of(act_name(g, m, depth - 1) for m in x)


def act_simplex(g, s, depth):
    """Apply g to a simplex (a set of names) memberwise."""
    return frozenset(act_name(g, v, depth) for v in s)


def act_fence_point(g, t):
    """The action on J_{n,m}: l_j goes to l_{g(j)}, the basepoint is fixed."""
    l, j = t
    if l == 0:
        return t
    return (l, g(j))


def orbit_partition(group, names, depth):
    """Orbits of a family of names, canonically ordered by their least member."""
    names = csorted(set(names))
    return [tuple([names[i] for i in orb])
            for orb in orbits_of(positions(group, names, depth))]


def positions(group, names, depth):
    """Per group element g, the list whose i-th entry is the index in
    ``names`` of g . names[i], or None when that image is not among
    ``names``; one ``action_tables`` call."""
    index = {x: i for i, x in enumerate(names)}
    return [[index.get(w) for w in t.values()]
            for t in action_tables(group, names, depth)]


def orbits_of(perms):
    """The orbits of the indices under a group's ``positions``, ascending,
    by least member; images outside the family are left out.  For names in
    canonical order these are ``orbit_partition``'s orbits."""
    seen, out = set(), []
    for i in range(len(perms[0])):
        if i not in seen:
            orb = sorted({p[i] for p in perms} - {None})
            seen.update(orb)
            out.append(orb)
    return out


def reduction(group, perms):
    """(classes, orbits, swaps) from the positions of Sigma_n on an
    invariant source, ``group`` as ``symmetric_group`` lists it: the orbits
    of Stab(1), on which a first map is constant; those of Sigma_n, on
    which a diagonal tuple's map is; and per j the positions of the
    transposition (1, j), which carry the first map to the j-th."""
    n = group[0].n
    at = dict(zip(group, perms))
    return (orbits_of([p for g, p in at.items() if g(1) == 1]),
            orbits_of(perms),
            [at[transposition(n, 1, j)] for j in range(1, n + 1)])


def equivariance_violation(group, perms, maps, names):
    """The first (g, x, j) with f_j(g.x) != f_{g(j)}(x), g in ``group``
    with ``perms`` its positions on ``names`` and the maps dicts on them,
    or None; an image outside ``names`` is a violation."""
    for g, p in zip(group, perms):
        for j in range(1, g.n + 1):
            fj, fgj = maps[j - 1], maps[g(j) - 1]
            for x, i in zip(names, p):
                if i is None or fj[names[i]] != fgj[x]:
                    return g, x, j
    return None


def action_tables(group, names, depth):
    """One table ``{x: g . x}`` over the names per group element.

    The tables are built level by level: the members of the names one
    naming level down are acted on first, and a name's image is its
    members' images in canonical order.  Every sub-name is thus acted on
    and keyed once per group element, not once per name containing it,
    and acting on a family of simplices costs one lookup per member.  Each
    table lists the distinct names in the order given.
    """
    levels = [dict.fromkeys(names)]
    for d in range(depth, 0, -1):
        below = set()
        for x in levels[-1]:
            if not isinstance(x, tuple):
                raise LevelMismatch(
                    f"expected a chain name at depth {d}, got {x!r}"
                )
            below.update(x)
        levels.append(below)
    tables = []
    for g in group:
        act = {x: act_name(g, x, 0) for x in levels[-1]}
        for level in reversed(levels[:-1]):
            rank = {y: i for i, y in enumerate(csorted(set(act.values())))}
            act = {
                x: tuple(sorted([act[m] for m in x], key=rank.__getitem__))
                for x in level
            }
        tables.append(act)
    return tables


def orbit_partition_simplices(group, K, depth):
    """Orbits of the simplices of an invariant complex K, each as the
    sorted tuple of its members' sorted vertex-rank tuples.

    Orbits come in the order of their least member; rank tuples sort in
    the canonical order of the names (see ``util``).  Each group element
    acts as a permutation of K's vertex positions (``positions``), and a
    simplex's image is the sorted tuple of its vertices' image positions.
    """
    perms = positions(group, K.vertices, depth)
    seen, parts = set(), []
    for s in K.ranked_simplices():
        if s not in seen:
            orb = sorted({tuple(sorted([p[i] for i in s])) for p in perms})
            seen.update(orb)
            parts.append(tuple(orb))
    return parts


def check_equivariant_tuple(maps, n, depth, domain=None):
    """Check f_j(g.x) = f_{g(j)}(x) for every g in Sigma_n; returns
    (ok, violation_or_None)."""
    if len(maps) != n:
        raise LevelMismatch(f"expected {n} maps, got {len(maps)}")
    names = list(maps[0] if domain is None else domain)
    group = symmetric_group(n)
    viol = equivariance_violation(group, positions(group, names, depth),
                                  maps, names)
    return viol is None, viol
