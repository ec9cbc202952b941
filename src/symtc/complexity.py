"""The top-level invariants: minimum covers by good pieces.

A piece is good when the restricted projection family admits the required
witness (a symmetric contiguity chain on the simplicial side, a symmetric
combinatorial homotopy on the finite-space side; plain variants drop the
equivariance).  Goodness passes to sub-pieces, so only maximal good pieces
matter and the value is a minimum set cover over them.

Pieces are unions of orbit units: simplex orbits (simplicial side, pieces
closed under faces) or element orbits (finite-space side, pieces closed
downward, i.e. invariant opens).  Exact mode enumerates all maximal good
pieces by walking the down-set lattice from the top through bad sets, which
is complete because every strict superset of a maximal good piece is bad;
upper mode grows seeds greedily instead.  The value is infinite exactly when
some unit's generated piece is already bad.
"""

import math
from dataclasses import dataclass, field

from .actions import (
    identity,
    orbit_partition,
    orbit_partition_simplices,
    symmetric_group,
)
from .complexes import base_of, restrict_map, subcomplex_from_simplices
from .constructions import build_tower, poset_tower, projection_pi, projection_rho
from .covers import min_cover
from .errors import (
    BudgetExceeded,
    DisconnectedPoset,
    MonotonicityViolation,
    UnsupportedMode,
)
from .io import complex_to_doc, poset_to_doc
from .posets import MonotoneMap
from .search import (
    SearchResult,
    plain_comb_homotopic,
    plain_contiguous,
    sym_comb_homotopic,
    sym_contiguous,
)

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


# ---------------------------------------------------------------------------
# cover problems
# ---------------------------------------------------------------------------


class _ComplexProblem:
    """Pieces are face-closed unions of simplex orbits of a tower level."""

    def __init__(self, tower, symmetric, budgets):
        self.tower = tower
        self.n = tower.n
        self.depth = tower.r
        self.symmetric = symmetric
        self.budgets = budgets
        level = tower.top()
        self.level = level
        group = symmetric_group(self.n) if symmetric else [identity(self.n)]
        self.units = orbit_partition_simplices(
            group, base_of(level).simplices, self.depth
        )
        self.unit_of = {}
        for ui, orb in enumerate(self.units):
            for s in orb:
                self.unit_of[s] = ui
        facets = set(base_of(level).facets)
        self.universe = frozenset(
            ui for ui, orb in enumerate(self.units) if orb[0] in facets
        )
        self._leq = {}
        self.maps = [projection_pi(tower, j) for j in range(1, self.n + 1)]

    def unit_le(self, u, w):
        key = (u, w)
        if key not in self._leq:
            self._leq[key] = any(
                s <= t for s in self.units[u] for t in self.units[w]
            )
        return self._leq[key]

    def down_closure(self, unit_set):
        out = set(unit_set)
        for w in list(out):
            for u in range(len(self.units)):
                if u not in out and self.unit_le(u, w):
                    out.add(u)
        return frozenset(out)

    def up_removal(self, unit_set, u):
        return frozenset(
            w for w in unit_set if not self.unit_le(u, w)
        )

    def grow_units(self):
        """Upper-mode growth quanta: one facet orbit at a time."""
        return sorted(self.universe)

    def maximal_units(self, unit_set):
        return sorted(
            u for u in unit_set
            if not any(w != u and self.unit_le(u, w) for w in unit_set)
        )

    def piece_complex(self, unit_set):
        if len(unit_set) == len(self.units):
            return base_of(self.level)
        simplices = set()
        for ui in unit_set:
            simplices.update(self.units[ui])
        return subcomplex_from_simplices(self.level, simplices)

    def piece_size(self, unit_set):
        return sum(len(self.units[ui]) for ui in unit_set)

    def piece_doc(self, unit_set):
        return complex_to_doc(self.piece_complex(unit_set))

    def decide(self, unit_set):
        piece = self.piece_complex(unit_set)
        restricted = [restrict_map(f, piece) for f in self.maps]
        if self.symmetric:
            res = sym_contiguous(
                restricted, self.n, self.depth, mode="auto",
                budget=self.budgets["nodes"], target_ordered=self.tower.factor,
            )
        else:
            res = plain_contiguous(
                restricted, depth=self.depth, mode="auto",
                budget=self.budgets["nodes"], target_ordered=self.tower.factor,
            )
        if res.yes:
            res.witness.projection_endpoints = True
        return res

    def witness_m(self, res):
        return None


class _PosetProblem:
    """Pieces are invariant opens: down-closed unions of element orbits."""

    def __init__(self, tower, symmetric, budgets):
        self.tower = tower
        self.n = tower.n
        self.depth = tower.r
        self.symmetric = symmetric
        self.budgets = budgets
        self.level = tower.top()
        group = symmetric_group(self.n) if symmetric else [identity(self.n)]
        self.units = orbit_partition(group, self.level.elements, self.depth)
        self.unit_of = {}
        for ui, orb in enumerate(self.units):
            for x in orb:
                self.unit_of[x] = ui
        maximal = set(self.level.maximal_of())
        self.universe = frozenset(
            ui for ui, orb in enumerate(self.units) if orb[0] in maximal
        )
        self._leq = {}
        self.maps = [projection_rho(tower, j) for j in range(1, self.n + 1)]

    def unit_le(self, u, w):
        key = (u, w)
        if key not in self._leq:
            self._leq[key] = any(
                self.level.le(x, y)
                for x in self.units[u]
                for y in self.units[w]
            )
        return self._leq[key]

    def down_closure(self, unit_set):
        out = set(unit_set)
        changed = True
        while changed:
            changed = False
            for w in list(out):
                for u in range(len(self.units)):
                    if u not in out and self.unit_le(u, w):
                        out.add(u)
                        changed = True
        return frozenset(out)

    def up_removal(self, unit_set, u):
        out = set(unit_set)
        changed = True
        while changed:
            changed = False
            for w in list(out):
                if w == u or self.unit_le(u, w):
                    out.discard(w)
                    changed = True
        # removing an up-set keeps the rest down-closed
        return frozenset(out)

    def grow_units(self):
        """Upper-mode growth quanta: one element orbit at a time."""
        return range(len(self.units))

    def maximal_units(self, unit_set):
        return sorted(
            u for u in unit_set
            if not any(w != u and self.unit_le(u, w) for w in unit_set)
        )

    def piece_poset(self, unit_set):
        elements = set()
        for ui in unit_set:
            elements.update(self.units[ui])
        return self.level.restrict(elements)

    def piece_size(self, unit_set):
        return sum(len(self.units[ui]) for ui in unit_set)

    def piece_doc(self, unit_set):
        return poset_to_doc(self.piece_poset(unit_set))

    def decide(self, unit_set):
        Q = self.piece_poset(unit_set)
        restricted = [
            MonotoneMap(Q, f.target, {x: f.mapping[x] for x in Q.elements})
            for f in self.maps
        ]
        if self.symmetric:
            res = sym_comb_homotopic(
                restricted, self.n, self.depth, mode="auto",
                budget=self.budgets["nodes"],
            )
        else:
            res = plain_comb_homotopic(
                restricted, depth=self.depth, mode="auto",
                budget=self.budgets["nodes"],
            )
        if res.yes:
            res.witness.projection_endpoints = True
        return res

    def witness_m(self, res):
        return res.witness.m if res.yes else None


# ---------------------------------------------------------------------------
# the cover engine
# ---------------------------------------------------------------------------


def _cover_engine(problem, mode, invariant_name):
    budgets = problem.budgets
    all_units = frozenset(range(len(problem.units)))
    memo = {}
    stats = {
        "units": len(problem.units),
        "universe": len(problem.universe),
        "universe_units": sorted(problem.universe),
        "pieces_tested": 0,
        "lattice_visited": 0,
    }

    def decide(unit_set):
        if unit_set in memo:
            return memo[unit_set]
        # dominance shortcuts: goodness passes to sub-pieces, badness to
        # super-pieces, so known answers settle comparable piece queries.
        # Shortcut results carry no witness; piece_of recomputes on demand.
        for other, res in memo.items():
            if res.status == "yes" and unit_set <= other:
                out = SearchResult("yes", None, {"by_dominance": True})
                memo[unit_set] = out
                return out
            if res.status == "no" and other <= unit_set:
                out = SearchResult("no", None, {"by_dominance": True})
                memo[unit_set] = out
                return out
        memo[unit_set] = problem.decide(unit_set)
        stats["pieces_tested"] += 1
        return memo[unit_set]

    def piece_of(unit_set):
        res = memo[unit_set]
        if res.witness is None:
            res = problem.decide(unit_set)
            stats["pieces_tested"] += 1
            memo[unit_set] = res
        return GoodPiece(
            units=tuple(sorted(unit_set)),
            size=problem.piece_size(unit_set),
            witness=res.witness,
            piece_doc=problem.piece_doc(unit_set),
        )

    def result(kind, lower, upper, cover_sets, whole_good, value=None):
        cover = [piece_of(s) for s in cover_sets]
        ms = [problem.witness_m(memo[s]) for s in cover_sets]
        ms = [m for m in ms if m is not None]
        return ComplexityResult(
            invariant=invariant_name,
            n=problem.n,
            r=problem.depth,
            kind=kind,
            lower=lower,
            upper=upper,
            value=value,
            m=max(ms) if ms else None,
            cover=cover,
            whole_space_good=whole_good,
            stats=stats,
        )

    whole = decide(all_units)
    stats["whole_record"] = dict(whole.record)
    if whole.yes:
        return result("exact", 1, 1, [all_units], True, value=1)

    # infeasibility: a universe unit whose generated piece is already bad
    for u in sorted(problem.universe):
        seed = problem.down_closure(frozenset([u]))
        if not decide(seed).yes:
            stats["infeasible_unit"] = u
            return result("infinite", 2, INFINITY, [], False, value=INFINITY)

    if mode == "exact":
        maxima = _maximal_good_sets(problem, decide, all_units, stats)
        sets = [frozenset(s & problem.universe) for s in maxima]
        k, chosen = min_cover(
            problem.universe, sets, budget=budgets["cover"]
        )
        stats["candidate_pieces"] = len(maxima)
        if k is None:
            out = result("infinite", 2, INFINITY, [], False, value=INFINITY)
        else:
            cover_sets = [maxima[i] for i in chosen]
            out = result("exact", k, k, cover_sets, False, value=k)
        out.candidates = [tuple(sorted(s)) for s in maxima]
        return out

    # upper mode: grow each universe seed one orbit at a time.
    # One first-fit pass suffices: goodness is anti-monotone in piece size,
    # so a rejected addition would be rejected against any larger piece too.
    grown = []
    for u in sorted(problem.universe):
        S = problem.down_closure(frozenset([u]))
        for w in problem.grow_units():
            if w in S:
                continue
            T = problem.down_closure(S | {w})
            if decide(T).yes:
                S = T
        if S not in grown:
            grown.append(S)
    sets = [frozenset(s & problem.universe) for s in grown]
    k, chosen = min_cover(problem.universe, sets, budget=budgets["cover"])
    if k is None:
        return result("infinite", 2, INFINITY, [], False, value=INFINITY)
    cover_sets = [grown[i] for i in chosen]
    return result("upper", 2, k, cover_sets, False)


def _maximal_good_sets(problem, decide, all_units, stats):
    """All maximal good pieces, walking the down-set lattice from the top.

    Complete because every strict superset of a maximal good piece is bad,
    so the walk only stops descending at good sets; and every bad set above
    a maximal good piece has a maximal unit outside it, so removing maximal
    units (the Hasse steps of the down-set lattice) reaches every maximal
    good piece.
    """
    budget = problem.budgets["lattice"]
    goods = []
    visited = set()
    stack = [all_units]
    while stack:
        S = stack.pop()
        if S in visited or not S:
            continue
        visited.add(S)
        stats["lattice_visited"] += 1
        if len(visited) > budget:
            raise BudgetExceeded(
                f"maximal-piece enumeration exceeded {budget} lattice nodes"
            )
        if decide(S).yes:
            goods.append(S)
            continue
        for u in problem.maximal_units(S):
            child = S - {u}
            if child and child not in visited:
                stack.append(child)
    maxima = [S for S in goods if not any(S < T for T in goods)]
    # deterministic order
    maxima.sort(key=lambda s: (len(s), sorted(s)))
    return maxima


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def _check_mode(mode):
    if mode not in ("exact", "upper"):
        raise UnsupportedMode(
            f"cover mode must be 'exact' or 'upper', not {mode!r}"
        )


def sc_sigma(K, n=2, r=0, mode="exact", budget=None):
    """Symmetric simplicial complexity at subdivision level r."""
    _check_mode(mode)
    budgets = budgets_with(budget)
    tower = build_tower(K, n, r, budget=budgets["simplices"])
    problem = _ComplexProblem(tower, symmetric=True, budgets=budgets)
    return _cover_engine(problem, mode, "sc_sigma")


def sc_plain(K, n=2, r=0, mode="exact", budget=None):
    """Plain simplicial complexity at subdivision level r."""
    _check_mode(mode)
    budgets = budgets_with(budget)
    tower = build_tower(K, n, r, budget=budgets["simplices"])
    problem = _ComplexProblem(tower, symmetric=False, budgets=budgets)
    return _cover_engine(problem, mode, "sc_plain")


def _check_connected(P):
    if not P.is_connected():
        raise DisconnectedPoset(
            "complexity searches require a connected poset"
        )


def cc_sigma(P, n=2, r=0, mode="exact", budget=None):
    """Symmetric combinatorial complexity at subdivision level r (stable m)."""
    _check_mode(mode)
    _check_connected(P)
    budgets = budgets_with(budget)
    tower = poset_tower(P, n, r, budget=budgets["simplices"])
    problem = _PosetProblem(tower, symmetric=True, budgets=budgets)
    return _cover_engine(problem, mode, "cc_sigma")


def cc_plain(P, n=2, r=0, mode="exact", budget=None):
    """Plain combinatorial complexity at subdivision level r."""
    _check_mode(mode)
    _check_connected(P)
    budgets = budgets_with(budget)
    tower = poset_tower(P, n, r, budget=budgets["simplices"])
    problem = _PosetProblem(tower, symmetric=False, budgets=budgets)
    return _cover_engine(problem, mode, "cc_plain")


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
