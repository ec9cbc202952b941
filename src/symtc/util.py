"""Canonical ordering helpers.

Every iteration order in the package derives from ``ckey`` so that searches,
certificates and serialized documents come out byte-identical across runs.
Labels may be ints, strings, or arbitrarily nested tuples of those (product
vertices are tuples, subdivision vertices are tuples of tuples, and so on).

Complexes key their vertices once: a complex sorts its vertex set with
``ckey`` and stores each simplex only as the sorted tuple of its vertex
ranks, building frozensets of names (``simplices``) on first use.  Since
``ckey`` of a name compares its members' keys lexicographically and ranks
preserve that order, sorting those tuples gives the order of ``csorted``
over the canonical names, at no cost per simplex beyond comparing small
ints.  An order complex and a power take their vertex positions from the
poset they are built on, so a tower's names are keyed once per level.
"""


def ckey(x):
    """Total order key for heterogeneous, possibly nested labels."""
    if isinstance(x, bool):
        return (0, int(x))
    if isinstance(x, int):
        return (0, x)
    if isinstance(x, float):
        return (0, x)
    if isinstance(x, str):
        return (1, x)
    if isinstance(x, (tuple, list, frozenset, set)):
        if isinstance(x, (frozenset, set)):
            inner = sorted((ckey(m) for m in x))
        else:
            inner = [ckey(m) for m in x]
        return (2, tuple(inner))
    raise TypeError(f"label of unsupported type {type(x)!r}: {x!r}")


def _memo_key(x, memo):
    """``ckey`` of x, tuple keys kept in ``memo``."""
    if type(x) is not tuple:
        return ckey(x)
    k = memo.get(x)
    if k is None:
        k = memo[x] = (2, tuple([_memo_key(m, memo) for m in x]))
    return k


def csorted(items):
    """Sort labels canonically.

    Tuple keys go through a memo local to the call, so a sub-label shared
    by many items (a vertex of many simplex names) is keyed once per sort;
    the memo is freed when the call returns (the key function holds it,
    and nothing holds the key function).
    """
    memo = {}
    return sorted(items, key=lambda x: _memo_key(x, memo))


def name_of(members):
    """Canonical name of a finite set of labels: the ckey-sorted tuple."""
    return tuple(csorted(members))


def freeze(x):
    """Recursively turn lists (e.g. parsed JSON labels) into tuples.

    Leaves are tested inline, so a label costs one call per list in it,
    not one per member.
    """
    if type(x) is list:
        return tuple([freeze(m) if type(m) is list else m for m in x])
    return x


def bits(mask):
    """The positions of the set bits of an int, ascending.

    One scan of its binary digits, lowest first: peeling the low bit off
    instead costs a copy of the whole int per bit, quadratic on the
    whole-space mask of a deep tower.
    """
    return [i for i, d in enumerate(bin(mask)[:1:-1]) if d == "1"]
