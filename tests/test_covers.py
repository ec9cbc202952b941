import pytest

from symtc.covers import min_cover
from symtc.errors import BudgetExceeded

from helpers import brute_force_min_cover


def test_trivial_cover():
    k, chosen = min_cover({1, 2, 3}, [frozenset({1, 2, 3})])
    assert k == 1 and chosen == [0]


def test_min_cover_beats_greedy():
    # the classic instance where greedy picks the big set but 2 suffice
    universe = set(range(6))
    sets = [
        frozenset({0, 1, 2, 3}),
        frozenset({0, 2, 4}),
        frozenset({1, 3, 5}),
        frozenset({4, 5}),
    ]
    k, chosen = min_cover(universe, sets)
    assert k == 2
    assert k == brute_force_min_cover(universe, sets)


def test_no_cover():
    k, chosen = min_cover({1, 2}, [frozenset({1})])
    assert k is None and chosen is None


def test_empty_universe():
    assert min_cover(set(), [frozenset({1})]) == (0, [])


def test_matches_brute_force_on_small_instances():
    import itertools

    universe = frozenset(range(5))
    pool = [
        frozenset(s)
        for k in (1, 2, 3)
        for s in itertools.combinations(range(5), k)
    ]
    import random

    rng = random.Random(7)
    for _ in range(30):
        sets = rng.sample(pool, 6)
        want = brute_force_min_cover(universe, sets)
        got, chosen = min_cover(universe, sets)
        assert got == want
        if got is not None:
            assert frozenset().union(*(sets[i] for i in chosen)) >= universe


def test_budget():
    universe = set(range(12))
    sets = [frozenset({i, (i + 1) % 12}) for i in range(12)]
    with pytest.raises(BudgetExceeded):
        min_cover(universe, sets, budget=0)


def test_deterministic():
    universe = set(range(4))
    sets = [frozenset({0, 1}), frozenset({2, 3}), frozenset({1, 2}),
            frozenset({0, 3})]
    a = min_cover(universe, sets)
    b = min_cover(universe, sets)
    assert a == b
