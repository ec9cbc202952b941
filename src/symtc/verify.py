"""Independent certificate validation.

Everything here re-checks invariants from scratch using only the complex and
poset primitives; no code is shared with the searchers.  Projections claimed
by a certificate are recomputed from the vertex/element names alone: a name
at depth d is a tower of chains over base n-tuples, the last-element map
descends it by taking the largest member (by inclusion above the base, by
the componentwise target order at the base), and the j-th coordinate of the
resulting tuple is the projection value.
"""

from dataclasses import dataclass, field

from .actions import act_fence_point, act_name, symmetric_group
from .complexes import OrderedComplex, base_of
from .posets import multi_fence
from .util import name_of


@dataclass
class Report:
    ok: bool = True
    failures: list = field(default_factory=list)

    def fail(self, msg):
        self.ok = False
        if len(self.failures) < 50:
            self.failures.append(msg)

    def __bool__(self):
        return self.ok


def descend_name(x, depth):
    """Apply the last-element map depth-1 times by inclusion, returning the
    base-level chain (a tuple of n-tuples) or, at depth 0, the tuple itself."""
    for _ in range(depth - 1):
        members = [frozenset(m) for m in x]
        members.sort(key=len)
        for a, b in zip(members, members[1:]):
            if not a <= b:
                raise ValueError(f"name {x!r} is not an inclusion chain")
        x = max(x, key=lambda m: len(m))
    return x


def projection_of_name(x, depth, j, base_le):
    """pi_j / rho_j of a depth-d name, via the last-element approximation.

    ``base_le(u, v)`` compares base vertices (factor elements).
    """
    if depth >= 1:
        chain = descend_name(x, depth)
        best = None
        for t in chain:
            if best is None:
                best = t
            else:
                if all(base_le(a, b) for a, b in zip(best, t)):
                    best = t
                elif not all(base_le(b, a) for a, b in zip(best, t)):
                    raise ValueError(f"chain {chain!r} is not totally ordered")
        x = best
    if not isinstance(x, tuple) or len(x) < j:
        raise ValueError(f"{x!r} is not a base tuple with {j} coordinates")
    return x[j - 1]


def _base_le_from_target(target):
    """A comparator on factor vertices/elements derived from the target."""
    if isinstance(target, OrderedComplex):
        order = target.order
        return lambda a, b: order.le(a, b)
    if hasattr(target, "le"):
        return lambda a, b: target.le(a, b)
    return None


def validate(cert):
    """Re-verify every invariant of a certificate from scratch."""
    kind = type(cert).__name__
    if kind == "ContiguityChain":
        return _validate_chain(cert)
    if kind == "CombinatorialHomotopy":
        return _validate_homotopy(cert)
    if kind == "SectionWitness":
        return _validate_section(cert)
    rep = Report()
    rep.fail(f"unknown certificate type {kind}")
    return rep


# ---------------------------------------------------------------------------


def _validate_chain(cert):
    rep = Report()
    source = base_of(cert.source)
    target = base_of(cert.target)
    n = cert.n
    if not cert.levels:
        rep.fail("chain has no levels")
        return rep
    verts = list(source.vertices)
    tverts = set(target.vertices)

    for l, level in enumerate(cert.levels):
        if len(level) != n:
            rep.fail(f"level {l} has {len(level)} maps, expected {n}")
            return rep
        for j, vm in enumerate(level, start=1):
            for v in verts:
                if v not in vm:
                    rep.fail(f"level {l} map {j} misses vertex {v!r}")
                    return rep
                if vm[v] not in tverts:
                    rep.fail(
                        f"level {l} map {j} sends {v!r} outside the target"
                    )
                    return rep
            for s in source.simplices:
                img = frozenset(vm[v] for v in s)
                if not target.is_simplex(img):
                    rep.fail(
                        f"level {l} map {j} sends simplex {name_of(s)!r} to "
                        f"a non-simplex"
                    )

    first = cert.levels[0]
    for vm in first[1:]:
        if vm != first[0]:
            rep.fail("first level is not a diagonal tuple")
            break

    for l in range(1, len(cert.levels)):
        prev, cur = cert.levels[l - 1], cert.levels[l]
        for j in range(n):
            for s in source.simplices:
                union = frozenset(prev[j][v] for v in s) | frozenset(
                    cur[j][v] for v in s
                )
                if not target.is_simplex(union):
                    rep.fail(
                        f"levels {l - 1} and {l} are not 1-contiguous on "
                        f"branch {j + 1} at {name_of(s)!r}"
                    )

    if cert.symmetric:
        group = symmetric_group(n)
        for g in group:
            for v in verts:
                gv = act_name(g, v, cert.depth)
                if first[0].get(gv) != first[0].get(v):
                    rep.fail(
                        f"first level is not invariant: g={g!r}, v={v!r}"
                    )
                    break
        for l, level in enumerate(cert.levels):
            for g in group:
                for j in range(1, n + 1):
                    fj, fgj = level[j - 1], level[g(j) - 1]
                    for v in verts:
                        if fj[act_name(g, v, cert.depth)] != fgj[v]:
                            rep.fail(
                                f"level {l} violates equivariance at "
                                f"(g={g!r}, v={v!r}, j={j})"
                            )
                            break

    if cert.projection_endpoints:
        base_le = _base_le_from_target(cert.target)
        if base_le is None:
            rep.fail("projection endpoints claimed but target has no order")
        else:
            last = cert.levels[-1]
            for j in range(1, n + 1):
                for v in verts:
                    try:
                        want = projection_of_name(v, cert.depth, j, base_le)
                    except ValueError as exc:
                        rep.fail(str(exc))
                        return rep
                    if last[j - 1][v] != want:
                        rep.fail(
                            f"final level branch {j} disagrees with the "
                            f"projection at {v!r}"
                        )
    return rep


# ---------------------------------------------------------------------------


def _fence_table_monotone(rep, table, Q, J, P, what):
    for x in Q.elements:
        for t in J.poset.elements:
            if (x, t) not in table:
                rep.fail(f"{what} misses entry ({x!r}, {t!r})")
                return False
            if table[(x, t)] not in P:
                rep.fail(f"{what} value at ({x!r}, {t!r}) outside the target")
                return False
    for x in Q.elements:
        for t1 in J.poset.elements:
            for t2 in J.poset.elements:
                if J.poset.le(t1, t2) and not P.le(
                    table[(x, t1)], table[(x, t2)]
                ):
                    rep.fail(
                        f"{what} not monotone along the fence at {x!r}: "
                        f"{t1!r} <= {t2!r}"
                    )
                    return False
    for t in J.poset.elements:
        for x1 in Q.elements:
            for x2 in Q.elements:
                if Q.le(x1, x2) and not P.le(table[(x1, t)], table[(x2, t)]):
                    rep.fail(
                        f"{what} not monotone in the source at {t!r}: "
                        f"{x1!r} <= {x2!r}"
                    )
                    return False
    return True


def _validate_homotopy(cert):
    rep = Report()
    Q, P = cert.source, cert.target
    n, m = cert.n, cert.m
    J = multi_fence(n, m)
    if not _fence_table_monotone(rep, cert.table, Q, J, P, "homotopy table"):
        return rep

    if cert.symmetric:
        group = symmetric_group(n)
        for g in group:
            for x in Q.elements:
                gx = act_name(g, x, cert.depth)
                if gx not in set(Q.elements):
                    rep.fail(f"source is not invariant: {x!r} -> {gx!r}")
                    return rep
                for t in J.poset.elements:
                    if cert.table[(gx, t)] != cert.table[
                        (x, act_fence_point(g, t))
                    ]:
                        rep.fail(
                            f"table violates symmetry at (g={g!r}, x={x!r}, "
                            f"t={t!r})"
                        )

    if cert.projection_endpoints:
        base_le = _base_le_from_target(P)
        for j in range(1, n + 1):
            for x in Q.elements:
                try:
                    want = projection_of_name(x, cert.depth, j, base_le)
                except ValueError as exc:
                    rep.fail(str(exc))
                    return rep
                if cert.table[(x, J.end(j))] != want:
                    rep.fail(
                        f"endpoint branch {j} disagrees with the projection "
                        f"at {x!r}"
                    )
    return rep


# ---------------------------------------------------------------------------


def _validate_section(cert):
    rep = Report()
    Q, P = cert.source, cert.target
    n, m = cert.n, cert.m
    J = multi_fence(n, m)
    points = list(J.poset.elements)
    for x in Q.elements:
        if x not in cert.paths:
            rep.fail(f"section misses a path for {x!r}")
            return rep
        gamma = cert.paths[x]
        for t in points:
            if t not in gamma:
                rep.fail(f"path for {x!r} misses point {t!r}")
                return rep
            if gamma[t] not in P:
                rep.fail(f"path value at ({x!r}, {t!r}) outside the target")
                return rep
        for t1 in points:
            for t2 in points:
                if J.poset.le(t1, t2) and not P.le(gamma[t1], gamma[t2]):
                    rep.fail(f"path for {x!r} is not monotone: {t1!r} <= {t2!r}")
                    return rep

    for x1 in Q.elements:
        for x2 in Q.elements:
            if Q.le(x1, x2):
                for t in points:
                    if not P.le(cert.paths[x1][t], cert.paths[x2][t]):
                        rep.fail(
                            f"section not monotone: {x1!r} <= {x2!r} at {t!r}"
                        )

    if cert.symmetric:
        group = symmetric_group(n)
        for g in group:
            for x in Q.elements:
                gx = act_name(g, x, cert.depth)
                for t in points:
                    if cert.paths[gx][t] != cert.paths[x][act_fence_point(g, t)]:
                        rep.fail(
                            f"section violates equivariance at (g={g!r}, "
                            f"x={x!r}, t={t!r})"
                        )

    if cert.projection_endpoints:
        base_le = _base_le_from_target(P)
        for j in range(1, n + 1):
            for x in Q.elements:
                try:
                    want = projection_of_name(x, cert.depth, j, base_le)
                except ValueError as exc:
                    rep.fail(str(exc))
                    return rep
                if cert.paths[x][J.end(j)] != want:
                    rep.fail(
                        f"path endpoint branch {j} disagrees with the "
                        f"projection at {x!r}"
                    )
    return rep
