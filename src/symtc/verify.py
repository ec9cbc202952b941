"""Independent certificate validation.

Everything here re-checks invariants from scratch using only the complex and
poset primitives; no code is shared with the searchers.  Projections claimed
by a certificate are recomputed from the vertex/element names alone: a name
at depth d is a tower of chains over base n-tuples, the last-element map
descends it by taking the largest member (by inclusion above the base, by
the componentwise target order at the base), and the j-th coordinate of the
resulting tuple is the projection value.

The checker acts on names with its own table (``_name_action``), built once
per validation call, level by level, so each nested sub-name is acted on
once per group element.  Order relations are compared through the posets'
``up`` masks by element index, each label looked up once per call.

A contiguity chain is checked by vertex position.  Source vertices are
numbered by their rank in the source, target vertices by one bit each, and
every map becomes the list of its target bits by source position, so each
name is hashed once per map.  A simplex's image is the OR of its vertices'
bits, tested against the target's simplices as bitmasks.  Only the facets
are tested at first: the target is closed under faces, so if a simplex's
image is not a simplex then neither is the image of any facet containing
it, and the same holds for the union of two maps' images in the contiguity
test.  The failing simplices are then collected among the faces of the
failing facets, so a valid chain pays for its facets alone.  Equivariance
and the diagonal compare these position lists; the group acts through one
permutation of positions per element.
"""

from dataclasses import dataclass, field
from itertools import combinations

from .actions import act_fence_point, symmetric_group
from .complexes import OrderedComplex, base_of
from .errors import LevelMismatch
from .posets import multi_fence
from .util import csorted

_MISSING = object()


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


def _last_base_tuple(x, depth, base_le):
    """The base n-tuple a depth-d name goes to under the last-element
    approximation: the largest member of its descended chain.

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
    return x


def _coordinate(x, j):
    if not isinstance(x, tuple) or len(x) < j:
        raise ValueError(f"{x!r} is not a base tuple with {j} coordinates")
    return x[j - 1]


def projection_of_name(x, depth, j, base_le):
    """pi_j / rho_j of a depth-d name, via the last-element approximation."""
    return _coordinate(_last_base_tuple(x, depth, base_le), j)


def _base_le_from_target(target):
    """A comparator on factor vertices/elements derived from the target."""
    if isinstance(target, OrderedComplex):
        order = target.order
        return lambda a, b: order.le(a, b)
    if hasattr(target, "le"):
        return lambda a, b: target.le(a, b)
    return None


def _name_action(group, names, depth):
    """Per group element, the table ``{x: g . x}`` over ``names``.

    On base n-tuples ``(g . x)_j = x_{g(j)}``; a name one level up goes to
    the canonically sorted tuple of its members' images.  The names are
    split into levels first and acted on from the base up, so a sub-name
    shared by many names is acted on once per group element.
    """
    levels = [set(names)]
    for d in range(depth, 0, -1):
        below = set()
        for x in levels[-1]:
            if not isinstance(x, tuple):
                raise LevelMismatch(
                    f"expected a chain name at depth {d}, got {x!r}"
                )
            below.update(x)
        levels.append(below)
    base = levels.pop()
    n = group[0].n
    for x in base:
        if not isinstance(x, tuple) or len(x) != n:
            raise LevelMismatch(f"expected an {n}-tuple at depth 0, got {x!r}")
    tables = []
    for g in group:
        perm = [g(j) - 1 for j in range(1, n + 1)]
        image = {x: tuple([x[i] for i in perm]) for x in base}
        for level in reversed(levels):
            order = {y: i for i, y in enumerate(csorted(image.values()))}
            image = {
                x: tuple(sorted([image[m] for m in x], key=order.__getitem__))
                for x in level
            }
        tables.append(image)
    return tables


def _leq_pairs(poset):
    """Index pairs (a, b) with a <= b, in row-major order of the elements."""
    pairs = []
    for a, mask in enumerate(poset.up):
        while mask:
            low = mask & -mask
            pairs.append((a, low.bit_length() - 1))
            mask ^= low
    return pairs


def validate(cert):
    """Re-verify every invariant of a certificate from scratch."""
    kind = type(cert).__name__
    if kind == "ContiguityChain":
        return _validate_chain(cert)
    if kind == "CombinatorialHomotopy":
        return _validate_table(cert, cert.table, "homotopy table")
    if kind == "SectionWitness":
        return _validate_section(cert)
    rep = Report()
    rep.fail(f"unknown certificate type {kind}")
    return rep


# ---------------------------------------------------------------------------


def _image(bits, simplex):
    """OR of the target bits of a simplex's vertex positions."""
    m = 0
    for i in simplex:
        m |= bits[i]
    return m


def _bad_simplices(facets, bits, masks):
    """Source simplices whose image is not a target simplex, as sorted rank
    tuples in canonical order.

    ``bits`` holds the target vertex bit of each source position and
    ``masks`` the target's simplices as bitmasks.  The facets are tested
    first; the faces of a facet are tested only when its image fails.
    """
    bad = set()
    seen = set()
    for facet in facets:
        if _image(bits, facet) in masks:
            continue
        for k in range(1, len(facet) + 1):
            for s in combinations(facet, k):
                if s not in seen:
                    seen.add(s)
                    if _image(bits, s) not in masks:
                        bad.add(s)
    return sorted(bad)


def _target_bits(rep, vm, rank, verts, tbit, l, j):
    """The target bit of ``vm`` at each source position, or None after a
    failure for the first vertex the map misses or sends outside, or for
    its first key that is not a source vertex."""
    values = [vm.get(v, _MISSING) for v in verts]
    bits = [tbit.get(w) for w in values]
    if None not in bits:
        if len(vm) == len(verts):
            return bits
        extra = next(k for k in vm if k not in rank)
        rep.fail(f"level {l} map {j} has key {extra!r} outside the source")
        return None
    i = bits.index(None)
    if values[i] is _MISSING:
        rep.fail(f"level {l} map {j} misses vertex {verts[i]!r}")
    else:
        rep.fail(f"level {l} map {j} sends {verts[i]!r} outside the target")
    return None


def _first_mismatch(a, b):
    """The first position where two equal-length lists differ, or None."""
    if a == b:
        return None
    return next(i for i, (x, y) in enumerate(zip(a, b)) if x != y)


def _validate_chain(cert):
    rep = Report()
    source = base_of(cert.source)
    target = base_of(cert.target)
    n = cert.n
    if not cert.levels:
        rep.fail("chain has no levels")
        return rep
    verts = source.vertices
    facets = source.ranked_facets()
    tbit = {w: 1 << i for i, w in enumerate(target.vertices)}
    masks = {sum(1 << i for i in t) for t in target.ranked_simplices()}

    def named(s):
        return tuple([verts[i] for i in s])

    bits = []  # bits[l][j - 1][i]: target bit of map j of level l at verts[i]
    for l, level in enumerate(cert.levels):
        if len(level) != n:
            rep.fail(f"level {l} has {len(level)} maps, expected {n}")
            return rep
        bits.append([])
        for j, vm in enumerate(level, start=1):
            row = _target_bits(rep, vm, source.rank, verts, tbit, l, j)
            if row is None:
                return rep
            for s in _bad_simplices(facets, row, masks):
                rep.fail(
                    f"level {l} map {j} sends simplex {named(s)!r} to "
                    f"a non-simplex"
                )
            bits[-1].append(row)

    # every map holds exactly the source's vertices and sends them into the
    # target, so two maps are equal iff their bits agree
    if any(row != bits[0][0] for row in bits[0][1:]):
        rep.fail("first level is not a diagonal tuple")

    for l in range(1, len(bits)):
        for j in range(n):
            both = [a | b for a, b in zip(bits[l - 1][j], bits[l][j])]
            for s in _bad_simplices(facets, both, masks):
                rep.fail(
                    f"levels {l - 1} and {l} are not 1-contiguous on "
                    f"branch {j + 1} at {named(s)!r}"
                )

    if cert.symmetric:
        group = symmetric_group(n)
        acts = _name_action(group, verts, cert.depth)
        rank = source.rank
        perms = []  # perms[g][i]: position of g . verts[i]
        for act in acts:
            perm = [rank.get(act[v]) for v in verts]
            if None in perm:
                v = verts[perm.index(None)]
                rep.fail(f"source is not invariant: {v!r} -> {act[v]!r}")
                return rep
            perms.append(perm)
        f = bits[0][0]
        for g, perm in zip(group, perms):
            i = _first_mismatch([f[p] for p in perm], f)
            if i is not None:
                rep.fail(
                    f"first level is not invariant: g={g!r}, v={verts[i]!r}"
                )
        for l, level in enumerate(bits):
            for g, perm in zip(group, perms):
                for j in range(1, n + 1):
                    fj, fgj = level[j - 1], level[g(j) - 1]
                    i = _first_mismatch([fj[p] for p in perm], fgj)
                    if i is not None:
                        rep.fail(
                            f"level {l} violates equivariance at "
                            f"(g={g!r}, v={verts[i]!r}, j={j})"
                        )

    if cert.projection_endpoints:
        base_le = _base_le_from_target(cert.target)
        if base_le is None:
            rep.fail("projection endpoints claimed but target has no order")
        else:
            last = bits[-1]
            tops = {}  # position -> _last_base_tuple, filled on branch 1
            for j in range(1, n + 1):
                for i, v in enumerate(verts):
                    try:
                        if i not in tops:
                            tops[i] = _last_base_tuple(v, cert.depth, base_le)
                        want = _coordinate(tops[i], j)
                    except ValueError as exc:
                        rep.fail(str(exc))
                        return rep
                    if last[j - 1][i] != tbit.get(want):
                        rep.fail(
                            f"final level branch {j} disagrees with the "
                            f"projection at {v!r}"
                        )
    return rep


# ---------------------------------------------------------------------------


def _fence_table_monotone(rep, table, Q, J, P, what):
    """Check a table Q x J -> P, with no cell outside Q x J; returns its
    values as P indices by (Q index, J index), or None after a failure."""
    points = J.poset.elements
    index = P.index
    vals = []
    for x in Q.elements:
        row = []
        for t in points:
            if (x, t) not in table:
                rep.fail(f"{what} misses entry ({x!r}, {t!r})")
                return None
            i = index.get(table[(x, t)])
            if i is None:
                rep.fail(f"{what} value at ({x!r}, {t!r}) outside the target")
                return None
            row.append(i)
        vals.append(row)
    if len(table) != len(vals) * len(points):
        x, t = next(c for c in table
                    if c[0] not in Q.index or c[1] not in J.poset.index)
        rep.fail(f"{what} has entry ({x!r}, {t!r}) outside the source x fence")
        return None
    pup = P.up
    fence = _leq_pairs(J.poset)
    for x, row in zip(Q.elements, vals):
        for a, b in fence:
            if not pup[row[a]] >> row[b] & 1:
                rep.fail(
                    f"{what} not monotone along the fence at {x!r}: "
                    f"{points[a]!r} <= {points[b]!r}"
                )
                return None
    below = _leq_pairs(Q)
    for k, t in enumerate(points):
        for a, b in below:
            if not pup[vals[a][k]] >> vals[b][k] & 1:
                rep.fail(
                    f"{what} not monotone in the source at {t!r}: "
                    f"{Q.elements[a]!r} <= {Q.elements[b]!r}"
                )
                return None
    return vals


def _symmetric_values(rep, vals, Q, J, depth, what):
    """Check value(g.x, t) = value(x, g.t) for every g in Sigma_n.

    ``vals`` holds the values by (Q index, J index).  Returns False, after
    one failure, when the source is not closed under the action.
    """
    points = J.poset.elements
    group = symmetric_group(J.n)
    acts = _name_action(group, Q.elements, depth)
    for g, act in zip(group, acts):
        gt = [J.poset.index[act_fence_point(g, t)] for t in points]
        for x, row in zip(Q.elements, vals):
            gx = act[x]
            if gx not in Q.index:
                rep.fail(f"source is not invariant: {x!r} -> {gx!r}")
                return False
            grow = vals[Q.index[gx]]
            for k, t in enumerate(points):
                if grow[k] != row[gt[k]]:
                    rep.fail(f"{what} at (g={g!r}, x={x!r}, t={t!r})")
    return True


def _validate_section(cert):
    """A section's paths are its homotopy table read by source point."""
    table = {(x, t): v for x, path in cert.paths.items()
             for t, v in path.items()}
    return _validate_table(cert, table, "section")


def _validate_table(cert, table, what):
    """Check a table Q x J_{n,m} -> P: monotone, symmetric when claimed,
    and ending at the projections when claimed."""
    rep = Report()
    Q, P = cert.source, cert.target
    n, m = cert.n, cert.m
    J = multi_fence(n, m)
    vals = _fence_table_monotone(rep, table, Q, J, P, what)
    if vals is None:
        return rep

    if cert.symmetric and not _symmetric_values(
        rep, vals, Q, J, cert.depth, "table violates symmetry"
    ):
        return rep

    if cert.projection_endpoints:
        base_le = _base_le_from_target(P)
        for j in range(1, n + 1):
            for x in Q.elements:
                try:
                    want = projection_of_name(x, cert.depth, j, base_le)
                except ValueError as exc:
                    rep.fail(str(exc))
                    return rep
                if table[(x, J.end(j))] != want:
                    rep.fail(
                        f"endpoint branch {j} disagrees with the projection "
                        f"at {x!r}"
                    )
    return rep


# ---------------------------------------------------------------------------


def _tuples(entries, k):
    """``entries``, a list of k-element lists or tuples of hashable names,
    as a list of tuples; None when it is anything else."""
    if not isinstance(entries, (list, tuple)):
        return None
    out = [tuple(e) for e in entries
           if isinstance(e, (list, tuple)) and len(e) == k]
    try:
        hash(tuple(out))
    except TypeError:
        return None
    return out if len(out) == len(entries) else None


def check_obstruction(piece, maps, record, depth=0):
    """Re-check a "no" by F_2 homology.  ``maps`` are rho_1 .. rho_n on the
    piece, whose names are depth-``depth`` names.

    Both records hold a cycle z that lies in the piece, with every vertex
    of even degree.  An "obstruction" record's rho_1(z) + rho_j(z) is not
    in the span of the boundaries of the target's 2-simplices (its
    3-chains, for a poset target).  A "quotient" record's chain c holds
    2-simplices (3-chains) of the piece, q(z) is the boundary of q(c), q
    sending a name to its Sigma_n-orbit under this module's own action,
    and rho_1(z) is not in that span.  The span is eliminated here by
    lowest bits."""
    rep = Report()
    stage = record.get("stage") if isinstance(record, dict) else None
    j = record.get("j") if stage == "obstruction" else 1
    cycle = _tuples(record.get("cycle"), 2) if stage else None
    triples = _tuples(record.get("chain"), 3) if stage == "quotient" else []
    if (stage not in ("obstruction", "quotient") or not isinstance(j, int)
            or not 1 <= j <= len(maps) or not cycle or triples is None):
        rep.fail("not an obstruction record with a map index and a cycle, "
                 "nor a quotient record with a cycle and a chain")
        return rep
    poset = hasattr(piece, "up")
    odd = set()
    for x, y in cycle:
        if poset:
            inside = x in piece and y in piece and piece.comparable(x, y)
        else:
            inside = piece.is_simplex({x, y})
        if x == y or not inside:
            rep.fail(f"{(x, y)!r} is not an edge of the piece")
        odd ^= {x, y}
    if odd:
        rep.fail(f"{min(odd, key=repr)!r} has odd degree in the cycle")
    for t in triples:
        if poset:
            inside = all(x in piece for x in t) and all(
                piece.comparable(x, y) for x, y in combinations(t, 2))
        else:
            inside = piece.is_simplex(set(t))
        if len(set(t)) != 3 or not inside:
            rep.fail(f"{t!r} is not a 2-simplex of the piece")
    if not rep:
        return rep
    if stage == "quotient":
        try:
            action = _name_action(symmetric_group(len(maps)),
                                  piece.elements if poset else piece.vertices,
                                  depth)
        except LevelMismatch as exc:
            rep.fail(f"the piece's names are not depth-{depth} names: {exc}")
            return rep
        orbit = {x: frozenset(g[x] for g in action) for x in action[0]}

        def q(pairs):
            out = set()
            for x, y in pairs:
                if orbit[x] != orbit[y]:
                    out ^= {frozenset((orbit[x], orbit[y]))}
            return out

        if q(cycle) != q(p for x, y, w in triples
                         for p in ((x, y), (y, w), (x, w))):
            rep.fail("q(z) is not the boundary of q(c)")
            return rep
    if poset:
        T = maps[0].target
        names = T.elements
        strict = [(a, b) for a, b in _leq_pairs(T) if a != b]
        edges = [(names[a], names[b]) for a, b in strict]
        triangles = [(names[a], names[b], names[c])
                     for a, b in strict for b2, c in strict if b2 == b]
        tables = [f.mapping for f in maps]
    else:
        simplices = base_of(maps[0].target).simplex_names()
        edges = [s for s in simplices if len(s) == 2]
        triangles = [s for s in simplices if len(s) == 3]
        tables = [f.vertex_map for f in maps]
    bit = {frozenset(e): 1 << k for k, e in enumerate(edges)}

    def chain(f, pairs):
        z = 0
        for x, y in pairs:
            if f[x] != f[y]:
                z ^= bit[frozenset((f[x], f[y]))]
        return z

    rows = {}
    for a, b, c in triangles:
        v = chain({a: a, b: b, c: c}, [(a, b), (b, c), (a, c)])
        while v & -v in rows:
            v ^= rows[v & -v]
        if v:
            rows[v & -v] = v
    z = chain(tables[0], cycle)
    if stage == "obstruction":
        z ^= chain(tables[j - 1], cycle)
    while z & -z in rows:
        z ^= rows[z & -z]
    if not z:
        rep.fail("rho_1(z) bounds in the target" if stage == "quotient"
                 else f"rho_1(z) + rho_{j}(z) bounds in the target")
    return rep
