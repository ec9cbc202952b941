"""Barycentric subdivision, ordered powers, towers and projection families.

The approximation of the identity used everywhere is the last-element map:
a subdivision vertex (a simplex / chain of the previous level) goes to its
largest member under that level's order.
"""

from dataclasses import dataclass, field

from .complexes import (
    OrderedComplex,
    SimplicialComplex,
    SimplicialMap,
    base_of,
)
from .errors import (
    BadArity,
    BudgetExceeded,
    EmptySpace,
    NegativeDepth,
    UnorderedInput,
)
from .posets import (
    FinitePoset,
    MonotoneMap,
    chain_walk,
    face_poset,
    order_complex,
    power_poset,
    sd_poset,
)
from .util import csorted


def totalize(K):
    """View a plain complex as ordered via the canonical total label order."""
    if isinstance(K, OrderedComplex):
        return K
    els = tuple(csorted(K.vertices))
    full = (1 << len(els)) - 1
    return OrderedComplex(
        K, FinitePoset(els, [full >> i << i for i in range(len(els))])
    )


def barycentric_subdivide(K, budget=None):
    """sd(K) = K(X(K)): vertices are the simplices of K, ordered by inclusion.

    Raises BudgetExceeded as soon as more than ``budget`` simplices (chains
    of faces) have been found.
    """
    return order_complex(face_poset(base_of(K)), budget=budget)


@dataclass(frozen=True)
class ProductComplex:
    """An ordered power K^n with its coordinate projections."""

    factor: OrderedComplex
    n: int
    result: OrderedComplex
    projections: tuple


def ordered_power(K, n, budget=None):
    """K^n: vertices are n-tuples, order componentwise; a tuple chain is a
    simplex iff each de-duplicated coordinate projection is a simplex of K."""
    if not isinstance(K, OrderedComplex):
        raise UnorderedInput("ordered_power requires an ordered complex")
    if n < 1:
        raise BadArity("power requires n >= 1")
    if not K.vertices:
        raise EmptySpace("the complex has no vertices to take a power of")
    order = power_poset(K.order, n)
    els = order.elements
    base = base_of(K)

    def projections_ok(chain):
        return all(base.is_simplex({els[i][k] for i in chain})
                   for k in range(n))

    try:
        ranked = chain_walk(order, budget, projections_ok)
    except BudgetExceeded:
        raise BudgetExceeded(f"power exceeds {budget} simplices") from None
    result = OrderedComplex(
        SimplicialComplex.from_ranked(els, order.index, ranked), order
    )
    projs = tuple(
        SimplicialMap(result.base, base, {t: t[j] for t in els})
        for j in range(n)
    )
    return ProductComplex(K, n, result, projs)


def iota(K, sd=None):
    """The last-element approximation of the identity, sd(K) -> K."""
    if not isinstance(K, OrderedComplex):
        raise UnorderedInput("iota requires an ordered complex")
    if sd is None:
        sd = barycentric_subdivide(K)
    vm = {name: K.max_vertex(name) for name in sd.vertices}
    return SimplicialMap(sd.base, K.base, vm)


def tau(P, sd=None):
    """The last-element map sd(P) -> P on finite spaces."""
    if sd is None:
        sd = sd_poset(P)
    return MonotoneMap(sd, P, {c: P.max_of(c) for c in sd.elements})


@dataclass
class SubdivisionTower:
    """Levels sd^0 .. sd^r of a power, with the approximation at each level.

    ``maps[i]`` goes from level i+1 down to level i.  For the complex kind the
    levels are OrderedComplex and maps SimplicialMap; for the poset kind the
    levels are FinitePoset and maps MonotoneMap.
    """

    kind: str
    factor: object
    n: int
    levels: list = field(default_factory=list)
    maps: list = field(default_factory=list)
    projections: tuple = ()

    @property
    def r(self):
        return len(self.levels) - 1

    def top(self):
        return self.levels[-1]

    def approx_to_base(self, x):
        """iota^r (resp. tau^r): send a top-level vertex/element to level 0."""
        for f in reversed(self.maps):
            x = f(x)
        return x


def check_depth(r, what="subdivision depth r"):
    """Raise NegativeDepth unless r >= 0."""
    if r < 0:
        raise NegativeDepth(f"{what} must be at least 0, got {r}")


def build_tower(K, n, r, budget=200_000):
    """Tower of iterated subdivisions of the ordered power K^n."""
    check_depth(r)
    K = totalize(K)
    power = ordered_power(K, n, budget=budget)
    levels = [power.result]
    maps = []
    for _ in range(r):
        try:
            sd = barycentric_subdivide(levels[-1], budget=budget)
        except BudgetExceeded:
            raise BudgetExceeded(
                f"subdivision exceeds {budget} simplices"
            ) from None
        levels.append(sd)
        maps.append(iota(levels[-2], sd=sd))
    return SubdivisionTower(
        kind="complex",
        factor=K,
        n=n,
        levels=levels,
        maps=maps,
        projections=power.projections,
    )


def projection_pi(tower, j):
    """pi_j = p_j o iota^r : sd^r(K^n) -> K as a simplicial map."""
    if not (1 <= j <= tower.n):
        raise BadArity(f"projection index {j} out of range 1..{tower.n}")
    top = tower.top()
    p_j = tower.projections[j - 1]
    vm = {v: p_j(tower.approx_to_base(v)) for v in top.vertices}
    return SimplicialMap(base_of(top), p_j.target, vm)


def poset_tower(P, n, r, budget=200_000):
    """Tower of iterated subdivisions of the product order P^n."""
    check_depth(r)
    if not P.elements:
        raise EmptySpace("the poset has no elements to take a power of")
    power = power_poset(P, n)
    levels = [power]
    maps = []
    for _ in range(r):
        try:
            sd = sd_poset(levels[-1], budget=budget)
        except BudgetExceeded:
            raise BudgetExceeded(
                f"subdivision exceeds {budget} elements"
            ) from None
        levels.append(sd)
        maps.append(tau(levels[-2], sd=sd))
    return SubdivisionTower(kind="poset", factor=P, n=n, levels=levels, maps=maps)


def projection_rho(tower, j):
    """rho_j = p_j o tau^r : sd^r(P^n) -> P as a monotone map."""
    if not (1 <= j <= tower.n):
        raise BadArity(f"projection index {j} out of range 1..{tower.n}")
    top = tower.top()
    P = tower.factor
    mapping = {x: tower.approx_to_base(x)[j - 1] for x in top.elements}
    return MonotoneMap(top, P, mapping)


def carrier_condition_holds(approx, sd_level):
    """Check iota(sigma-hat) is contained in the top member of every chain.

    ``sd_level`` is the subdivided complex, whose simplices are chains of
    the previous level's simplices (as canonical name tuples).
    """
    for chain in base_of(sd_level).simplex_names():
        top = max((frozenset(c) for c in chain), key=len)
        img = {approx(c) for c in chain}
        if not img <= top:
            return False
    return True
