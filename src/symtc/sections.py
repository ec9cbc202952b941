"""Section-existence route: enumerate sections of the fence evaluation map
directly, fence length m = 0, 1, 2, ... up to a proven stabilization point.

This is the independent second code path behind the finite-space complexity
at subdivision level 0.  A section over an invariant open Q is determined by
its layer maps h^0, h^1, ..., h^m (h^l sends x to the path value at l on the
first fence; the other branches are forced by equivariance), which form an
alternating zigzag in the poset of constraint-invariant monotone maps ending
at the projection.  For each m the set of feasible h^0 is computed by a
backward closure sweep; the sweep's layer sets only grow with m, so once
two consecutive layers repeat, no larger m can help and a "no" is proven.
Small m values (0, 1, 2) are checked by targeted constructions first, so
well-behaved instances never enumerate the map space.

The sweep works on bitsets.  The N enumerated maps are numbered in
enumeration order and a set of them is a Python int, bit i for map i.
``le_bits[k][v]`` marks the maps whose k-th value is <= v and
``ge_bits[k][v]`` those whose k-th value is >= v, so the cone {h <= g} of a
map g is the AND of one bitset per element of Q, and no N x N relation is
built (N reaches 32,148 on the power of the 4-point circle).  The layers
are A_0 = B_0 = {projection}, A_m = {h <= some member of B_{m-1}} and
B_m = {h >= some member of A_{m-1}}.  They grow: A_1 and B_1 contain the
projection because the order is reflexive, and B_{m-1} containing B_{m-2}
makes A_m contain A_{m-1} (likewise for B).  A cone of a union is the union
of the cones, so A_m is A_{m-1} together with the cones of the maps new to
B_{m-1}: the closure is incremental and takes each map's cone at most once
per direction.  Growth also gives A_m containing A_{m-2}, so the stopping
test A_m = A_{m-2}, B_m = B_{m-2} means the layers no longer change.  The
first hit is the lowest set bit, the first invariant map in enumeration
order.
"""

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .actions import (
    act_name,
    orbit_partition,
    symmetric_group,
    transposition,
    tuple_constraint_group,
)
from .errors import BudgetExceeded, DisconnectedPoset
from .posets import monotone_value_tuples, multi_fence, power_poset
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


def _witness_from_layers(Q, P, n, depth, layers):
    """Build the section from layer maps h^0..h^m (dicts on Q)."""
    m = len(layers) - 1
    J = multi_fence(n, m)
    paths = {}
    for x in Q.elements:
        gamma = {(0, 0): layers[0][x]}
        for l in range(1, m + 1):
            for j in range(1, n + 1):
                t = transposition(n, 1, j)
                gamma[(l, j)] = layers[l][act_name(t, x, depth)]
        paths[x] = gamma
    assert set(paths[Q.elements[0]]) == set(J.poset.elements)
    return SectionWitness(
        n=n,
        m=m,
        depth=depth,
        symmetric=True,
        source=Q,
        target=P,
        paths=paths,
        projection_endpoints=True,
    )


def section_search(Q, P, n, depth, budget=50_000):
    """Does the fence evaluation map admit an equivariant section over Q?"""
    rho = _rho_tables(Q, P, n, depth)
    ei = {x: i for i, x in enumerate(Q.elements)}
    ti = {x: i for i, x in enumerate(P.elements)}
    G = tuple_constraint_group(n)
    g_classes = [
        [ei[x] for x in part]
        for part in orbit_partition(G.elements, Q.elements, depth)
    ]
    sigma_classes = [
        [ei[x] for x in part]
        for part in orbit_partition(symmetric_group(n), Q.elements, depth)
    ]
    start = tuple(ti[rho[0][x]] for x in Q.elements)

    def as_map(vals):
        return {x: P.elements[v] for x, v in zip(Q.elements, vals)}

    def invariant(vals):
        return all(
            all(vals[i] == vals[cls[0]] for i in cls) for cls in sigma_classes
        )

    # m = 0: the projection family itself must be a diagonal invariant tuple
    if invariant(start):
        return SectionOutcome(
            "yes", _witness_from_layers(Q, P, n, depth, [as_map(start)]),
            {"m": 0, "stage": "small-m"},
        )

    # constants first (always monotone and invariant); a full enumeration of
    # invariant maps only within a small budget, the sweep decides anyway
    invariants = [
        tuple([v] * len(Q.elements)) for v in range(len(P.elements))
    ]
    constants = set(invariants)
    try:
        invariants += [
            t for t in monotone_value_tuples(
                Q, P, budget=2_000, classes=sigma_classes
            ) if t not in constants
        ]
    except BudgetExceeded:
        pass
    leq = P.leq

    def below(a, b):
        return all(leq[x, y] for x, y in zip(a, b))

    # m = 1: an invariant map pointwise below the projection
    for phi in invariants:
        if below(phi, start):
            return SectionOutcome(
                "yes",
                _witness_from_layers(Q, P, n, depth, [as_map(phi), as_map(start)]),
                {"m": 1, "stage": "small-m"},
            )

    # m = 2: an invariant map with a common upper bound with the projection
    for phi in invariants:
        mid = _bounded_map(Q, P, g_classes, phi, start)
        if mid is not None:
            return SectionOutcome(
                "yes",
                _witness_from_layers(
                    Q, P, n, depth, [as_map(phi), as_map(mid), as_map(start)]
                ),
                {"m": 2, "stage": "small-m"},
            )

    # full sweep over the constraint-invariant map space
    nodes = monotone_value_tuples(Q, P, budget=budget, classes=g_classes)
    arr = np.array(nodes, dtype=np.intp).reshape(len(nodes), -1)
    inv_rows = np.ones(len(nodes), dtype=bool)
    for cls in sigma_classes:
        for i in cls[1:]:
            inv_rows &= arr[:, i] == arr[:, cls[0]]
    inv_bits = _bits(inv_rows)
    le_bits, ge_bits = _order_bits(arr, leq)

    def closure(new, bits):
        """Union of the cones of the nodes in the bitset ``new``."""
        out = 0
        for i in _members(new, len(nodes)):
            out |= _cone(bits, nodes[i])
        return out

    start_bit = 1 << nodes.index(start)
    a_layers = [start_bit]
    b_layers = [start_bit]
    fresh_a = fresh_b = start_bit  # the maps new to A_{m-1} and B_{m-1}
    m = 0
    while True:
        m += 1
        a_next = a_layers[-1] | closure(fresh_b, le_bits)
        b_next = b_layers[-1] | closure(fresh_a, ge_bits)
        fresh_a, fresh_b = a_next & ~a_layers[-1], b_next & ~b_layers[-1]
        a_layers.append(a_next)
        b_layers.append(b_next)
        hit = a_next & inv_bits
        if hit:
            layers = _reconstruct(
                nodes, le_bits, ge_bits, a_layers, b_layers,
                _lowest(hit), m,
            )
            return SectionOutcome(
                "yes",
                _witness_from_layers(
                    Q, P, n, depth, [as_map(v) for v in layers]
                ),
                {"m": m, "stage": "sweep", "nodes": len(nodes)},
            )
        if m >= 2 and (
            a_next == a_layers[m - 2] and b_next == b_layers[m - 2]
        ):
            return SectionOutcome(
                "no",
                record={
                    "stabilized_at": m,
                    "nodes": len(nodes),
                    "invariant_nodes": inv_bits.bit_count(),
                },
            )


def _bits(mask):
    """A boolean vector over the nodes as an int: bit i is node i."""
    packed = np.packbits(mask, bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def _members(bits, size):
    """The node indices set in ``bits``, ascending."""
    raw = np.frombuffer(bits.to_bytes((size + 7) // 8, "little"), np.uint8)
    return np.flatnonzero(np.unpackbits(raw, bitorder="little")).tolist()


def _lowest(bits):
    return (bits & -bits).bit_length() - 1


def _order_bits(arr, leq):
    """``le_bits[k][v]``: the nodes whose k-th value is <= v; ``ge_bits``
    likewise for >= v."""
    le_bits, ge_bits = [], []
    for k in range(arr.shape[1]):
        col = arr[:, k]
        le_bits.append([_bits(leq[col, v]) for v in range(leq.shape[0])])
        ge_bits.append([_bits(leq[v, col]) for v in range(leq.shape[0])])
    return le_bits, ge_bits


def _cone(bits, g):
    """The nodes h <= g (with ``le_bits``) or h >= g (with ``ge_bits``)."""
    out = -1
    for k, v in enumerate(g):
        out &= bits[k][v]
    return out


def _reconstruct(nodes, le_bits, ge_bits, a_layers, b_layers, h0_idx, m):
    """Greedy layer extraction: h^0 in A_m, alternating down the sweep."""
    seq = [h0_idx]
    cur = h0_idx
    for l in range(1, m + 1):
        if l % 2 == 1:  # cur <= next
            cand = _cone(ge_bits, nodes[cur]) & b_layers[m - l]
        else:
            cand = _cone(le_bits, nodes[cur]) & a_layers[m - l]
        assert cand, "sweep reconstruction lost the path"
        cur = _lowest(cand)
        seq.append(cur)
    return [nodes[i] for i in seq]


def _bounded_map(Q, P, classes, a, b):
    """A class-constant monotone map above both a and b, or None."""
    npp = len(P.elements)
    allowed = []
    for i in range(len(Q.elements)):
        s = {v for v in range(npp) if P.leq[a[i], v] and P.leq[b[i], v]}
        if not s:
            return None
        allowed.append(s)
    found = monotone_value_tuples(
        Q, P, budget=None, classes=classes, allowed=allowed, first_only=True
    )
    return found[0] if found else None


# ---------------------------------------------------------------------------
# the full complexity value through sections
# ---------------------------------------------------------------------------


def invariant_open_pieces(L, n, depth):
    """All nonempty invariant opens of L as element frozensets, via orbits."""
    group = symmetric_group(n)
    orbits = orbit_partition(group, L.elements, depth)
    masks = [frozenset(orb) for orb in orbits]
    down = [L.down_closure(mask) for mask in masks]
    pieces = set()

    def rec(i, current):
        if i == len(masks):
            if current:
                pieces.add(frozenset(current))
            return
        rec(i + 1, current)
        rec(i + 1, current | down[i])

    rec(0, frozenset())
    return sorted(
        pieces, key=lambda s: (len(s), sorted(L.index[x] for x in s))
    )


def cc_by_sections(P, n, budget=50_000):
    """Minimum size of an invariant open cover admitting sections, r = 0.

    Independent of the homotopy route: goodness of a piece is decided by the
    section sweep and the cover minimum by subset enumeration over maximal
    good pieces.
    """
    if not P.is_connected():
        raise DisconnectedPoset("the input poset must be connected")
    L = power_poset(P, n)
    depth = 0
    pieces = invariant_open_pieces(L, n, depth)
    memo = {}

    def good(piece):
        if piece not in memo:
            Q = L.restrict(piece)
            memo[piece] = section_search(Q, P, n, depth, budget=budget)
        return memo[piece]

    whole = frozenset(L.elements)
    witnesses = {}
    if good(whole).yes:
        witnesses[whole] = memo[whole]
        return {
            "k": 1,
            "cover": [whole],
            "witnesses": witnesses,
            "m": memo[whole].record.get("m", memo[whole].witness.m),
            "pieces_tested": len(memo),
            "whole_space_good": True,
        }

    # maximal good pieces: prune non-maximal ones, then search covers upward
    goods = [p for p in pieces if p != whole and good(p).yes]
    maximal = [p for p in goods if not any(p < q for q in goods)]
    universe = frozenset(L.elements)
    for k in range(2, len(maximal) + 1):
        found = None
        for combo in combinations(range(len(maximal)), k):
            union = frozenset().union(*(maximal[i] for i in combo))
            if union == universe:
                found = combo
                break
        if found is not None:
            cover = [maximal[i] for i in found]
            for p in cover:
                witnesses[p] = memo[p]
            return {
                "k": k,
                "cover": cover,
                "witnesses": witnesses,
                "m": max(memo[p].witness.m for p in cover),
                "pieces_tested": len(memo),
                "whole_space_good": False,
            }
    return {
        "k": None,
        "cover": [],
        "witnesses": {},
        "m": None,
        "pieces_tested": len(memo),
        "whole_space_good": False,
    }
