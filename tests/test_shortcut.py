"""The path normaliser against the two passes it replaced.

``_shortcut`` picks the subsequence of a path with the shortest alternating
form and emits that form, repeats included.  Before, the searchers took the
subsequence and then inserted the repeats with a second pass; both are kept
in ``helpers`` as the reference.  Paths are drawn with Hypothesis over two
relations: inclusion of 4-bit masks (comparability, steps go one way or
both) and integers at distance at most 2 (contiguity, steps go both ways).
"""

from hypothesis import given, settings, strategies as st

from symtc.search import _shortcut

from helpers import alternate, shortcut_without_repeats


def _inclusion(a, b):
    return (a & ~b == 0) | (b & ~a == 0) << 1


def _near(a, b):
    return 3 if abs(a - b) <= 2 else 0


@st.composite
def comparability_paths(draw):
    path = [draw(st.integers(0, 15))]
    for m in draw(st.lists(st.integers(0, 15), max_size=10)):
        path.append(path[-1] | m if draw(st.booleans()) else path[-1] & m)
    return path


@st.composite
def contiguity_paths(draw):
    path = [draw(st.integers(0, 9))]
    for step in draw(st.lists(st.integers(-2, 2), max_size=10)):
        path.append(path[-1] + step)
    return path


def _check(path, directions):
    got = _shortcut(path, directions)
    assert got == alternate(shortcut_without_repeats(path, directions),
                            lambda a, b: directions(a, b) & 1)
    assert got[0] == path[0] and got[-1] == path[-1]
    for step, (a, b) in enumerate(zip(got, got[1:])):
        assert directions(a, b) & (1 << step % 2)


@settings(max_examples=300, deadline=None)
@given(comparability_paths())
def test_shortcut_matches_old_passes_on_comparability_paths(path):
    _check(path, _inclusion)


@settings(max_examples=300, deadline=None)
@given(contiguity_paths())
def test_shortcut_matches_old_passes_on_contiguity_paths(path):
    _check(path, _near)
