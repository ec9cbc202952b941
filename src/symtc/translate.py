"""Certificate translators.

* exponential law: a combinatorial homotopy table H(x, t) and a family of
  fence paths s(x)(t) carry the same data; the paths are a transcription
  of the table.
* fence retraction: a section at fence length m extends to length m + 1 by
  precomposing with the retraction that folds the new endpoint onto the old.
* homotopy -> contiguity: from an order preserving table the interpolation
  sequence is built by repeatedly lifting values at maximal (dually, minimal)
  elements of the disagreement set; on every chain consecutive maps differ in
  at most one point, so the induced order-complex maps are 1-contiguous.
* contiguity -> homotopy: a chain of 1-contiguous tuples yields a table over
  a fence of twice the length, interleaving the face-poset maps with the
  image-union maps.
"""

from .actions import equivariance_violation, positions, symmetric_group
from .complexes import base_of
from .errors import InvalidChain, InvalidTable, NotMonotone
from .posets import face_poset, multi_fence, order_complex
from .util import name_of
from .witnesses import CombinatorialHomotopy, ContiguityChain, SectionWitness


def section_from_homotopy(H):
    """Transcribe a homotopy table into a family of fence paths."""
    J = H.fence()
    paths = {}
    for x in H.source.elements:
        gamma = {}
        for t in J.poset.elements:
            key = (x, t)
            if key not in H.table:
                raise InvalidTable(f"homotopy table misses {key!r}")
            gamma[t] = H.table[key]
        paths[x] = gamma
    return SectionWitness(
        n=H.n,
        m=H.m,
        depth=H.depth,
        symmetric=H.symmetric,
        source=H.source,
        target=H.target,
        paths=paths,
        projection_endpoints=H.projection_endpoints,
    )


def retract_section(s):
    """Extend a section witness from fence length m to m + 1.

    The retraction sends the new far points (m+1)_j onto m_j and fixes the
    rest, so the new path values repeat the old endpoints.
    """
    J_new = multi_fence(s.n, s.m + 1)
    old_end = {j: (s.m, j) if s.m > 0 else (0, 0) for j in range(1, s.n + 1)}
    paths = {}
    for x, gamma in s.paths.items():
        g2 = {}
        for t in J_new.poset.elements:
            l, j = t
            if l == s.m + 1:
                g2[t] = gamma[old_end[j]]
            else:
                g2[t] = gamma[t]
        paths[x] = g2
    return SectionWitness(
        n=s.n,
        m=s.m + 1,
        depth=s.depth,
        symmetric=s.symmetric,
        source=s.source,
        target=s.target,
        paths=paths,
        projection_endpoints=s.projection_endpoints,
    )


# ---------------------------------------------------------------------------
# homotopy -> symmetric contiguity on order complexes
# ---------------------------------------------------------------------------


def _lift_once(P, Q, covers, cur, target, upward):
    """One interpolation round toward the target maps.

    cur, target: lists of mapping dicts (one per branch).  When upward, each
    branch satisfies cur_j <= target_j and values are raised at the maximal
    elements of the disagreement set; dually when not upward.  ``covers``
    are P's cover pairs: a map monotone on them is monotone, by
    transitivity.
    """
    out = []
    changed = False
    for fj, gj in zip(cur, target):
        dis = [x for x in P.elements if fj[x] != gj[x]]
        if not dis:
            out.append(dict(fj))
            continue
        changed = True
        chosen = set(P.maximal_of(dis) if upward else P.minimal_of(dis))
        nxt = {x: (gj[x] if x in chosen else fj[x]) for x in P.elements}
        for x, y in covers:
            if not Q.le(nxt[x], nxt[y]):
                raise NotMonotone(
                    f"interpolation produced a non-monotone map at {x!r} <= {y!r}"
                )
        out.append(nxt)
    return out, changed


def homotopy_to_contiguity(H):
    """Steps of value lifting turn a symmetric combinatorial homotopy between
    f_1..f_n into a symmetric contiguity chain between the order-complex maps.
    """
    P, Q = H.source, H.target
    n, m = H.n, H.m
    layer = {}
    layer[0] = [
        {x: H.table[(x, (0, 0))] for x in P.elements} for _ in range(n)
    ]
    for l in range(1, m + 1):
        layer[l] = [
            {x: H.table[(x, (l, j))] for x in P.elements}
            for j in range(1, n + 1)
        ]

    levels = [layer[0]]
    covers = P.covers()
    if H.symmetric:
        group = symmetric_group(n)
        perms = positions(group, P.elements, H.depth)
    for l in range(1, m + 1):
        upward = l % 2 == 1
        cur = [dict(f) for f in levels[-1]]
        target = layer[l]
        for fj, gj in zip(cur, target):
            for x in P.elements:
                lo, hi = (fj[x], gj[x]) if upward else (gj[x], fj[x])
                if not Q.le(lo, hi):
                    raise InvalidTable(
                        "homotopy table does not respect the fence relations"
                    )
        while True:
            nxt, changed = _lift_once(P, Q, covers, cur, target, upward)
            if not changed:
                break
            if H.symmetric:
                viol = equivariance_violation(group, perms, nxt, P.elements)
                if viol is not None:
                    raise InvalidTable(
                        f"interpolation lost equivariance at {viol!r}"
                    )
            levels.append(nxt)
            cur = nxt

    source_oc = order_complex(P)
    target_oc = order_complex(Q)
    return ContiguityChain(
        n=n,
        depth=H.depth,
        symmetric=H.symmetric,
        source=source_oc.base,
        target=target_oc,
        levels=levels,
    )


# ---------------------------------------------------------------------------
# contiguity -> combinatorial homotopy on face posets
# ---------------------------------------------------------------------------


def contiguity_to_homotopy(C):
    """A chain of length c gives a table over J_{n,2c} on the face posets,
    interleaving the face-poset maps (even levels) with the image-union maps
    (odd levels)."""
    n, c = C.n, C.c
    source = base_of(C.source)
    target = base_of(C.target)
    XK = face_poset(source)
    XL = face_poset(target)
    named = {name: frozenset(name) for name in XK.elements}

    def image_name(vm, simplex_name):
        img = frozenset(vm[v] for v in named[simplex_name])
        if not target.is_simplex(img):
            raise InvalidChain(
                f"chain map sends {simplex_name!r} outside the target complex"
            )
        return name_of(img)

    def union_name(vm1, vm2, simplex_name):
        img = frozenset(vm1[v] for v in named[simplex_name]) | frozenset(
            vm2[v] for v in named[simplex_name]
        )
        if not target.is_simplex(img):
            raise InvalidChain(
                "consecutive chain maps are not 1-contiguous on "
                f"{simplex_name!r}"
            )
        return name_of(img)

    first = C.levels[0]
    if any(vm != first[0] for vm in first[1:]):
        raise InvalidChain("chain does not start at a diagonal tuple")

    table = {}
    for s in XK.elements:
        table[(s, (0, 0))] = image_name(first[0], s)
    for j in range(1, n + 1):
        for l in range(1, 2 * c + 1):
            for s in XK.elements:
                if l % 2 == 0:
                    vm = C.levels[l // 2][j - 1]
                    table[(s, (l, j))] = image_name(vm, s)
                else:
                    vm1 = C.levels[(l - 1) // 2][j - 1]
                    vm2 = C.levels[(l + 1) // 2][j - 1]
                    table[(s, (l, j))] = union_name(vm1, vm2, s)
    return CombinatorialHomotopy(
        n=n,
        m=2 * c,
        depth=C.depth + 1,
        symmetric=C.symmetric,
        source=XK,
        target=XL,
        table=table,
    )
