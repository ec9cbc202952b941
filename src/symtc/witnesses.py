"""Certificate types: contiguity chains, combinatorial homotopies, sections.

Every certificate is self-contained: it carries its source and target, the
naming depth of the source's vertices/elements (how many subdivision levels
sit above the base power), and whether the symmetric conditions are claimed.
``projection_endpoints`` marks certificates whose final maps are claimed to
be the canonical projection family of a tower; the checker can then recompute
those endpoints from the names alone.
"""

from dataclasses import dataclass

from .errors import ParseError
from .io import (
    array,
    complex_to_doc,
    map_table_from_doc,
    poset_to_doc,
    read_complex,
    read_poset,
)
from .posets import multi_fence
from .util import ckey, csorted

_MISSING = object()


def _header(doc, *counts):
    """A certificate's header fields as keyword arguments: ``counts``
    among n, m and depth, each a JSON integer (n >= 1, the others >= 0),
    and ``symmetric`` and, when present, ``projection_endpoints``, each a
    JSON boolean.  Anything else raises ParseError; a missing field raises
    KeyError."""
    out = {}
    for key in counts:
        low = 1 if key == "n" else 0
        value = doc[key]
        if type(value) is not int or value < low:
            raise ParseError(
                f"certificate field {key!r} must be an integer >= {low}, "
                f"not {value!r}"
            )
        out[key] = value
    flags = {"symmetric": doc["symmetric"],
             "projection_endpoints": doc.get("projection_endpoints", False)}
    for key, value in flags.items():
        if type(value) is not bool:
            raise ParseError(
                f"certificate field {key!r} must be true or false, "
                f"not {value!r}"
            )
    return out | flags


@dataclass
class ContiguityChain:
    """Map tuples T^0 .. T^c; T^0 diagonal, consecutive tuples 1-contiguous."""

    n: int
    depth: int
    symmetric: bool
    source: object  # SimplicialComplex
    target: object  # OrderedComplex (order needed to recompute projections)
    levels: list  # levels[l][j-1] : vertex map dict
    projection_endpoints: bool = False

    @property
    def c(self):
        return len(self.levels) - 1

    def to_doc(self):
        return {
            "type": "contiguity_chain",
            "n": self.n,
            "depth": self.depth,
            "symmetric": self.symmetric,
            "projection_endpoints": self.projection_endpoints,
            "source": complex_to_doc(self.source),
            "target": complex_to_doc(self.target),
            "levels": self._levels_to_doc(),
        }

    def _levels_to_doc(self):
        """Each map as pair rows in the canonical order of its keys.

        The union of the keys is sorted once; each map then lists its own
        keys in that order, which is the order a ``ckey`` sort of the map
        alone would give.  Rows carry the maps' own name objects, shared
        with the source and target documents, so the writer renders each
        name once per report.
        """
        keys = set()
        for level in self.levels:
            for m in level:
                keys.update(m)
        order = csorted(keys)
        return [
            [
                [
                    [k, v] for k in order
                    if (v := m.get(k, _MISSING)) is not _MISSING
                ]
                for m in level
            ]
            for level in self.levels
        ]

    @classmethod
    def from_doc(cls, doc):
        try:
            source, keys = read_complex(doc["source"])
            target, values = read_complex(doc["target"])
            return cls(
                **_header(doc, "n", "depth"),
                source=source,
                target=target,
                levels=[
                    [map_table_from_doc(m, keys, values)
                     for m in array(level, "a chain level")]
                    for level in array(doc["levels"], "levels")
                ],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed contiguity chain: {exc}") from exc


def fence_point_to_doc(t):
    l, j = t
    return 0 if l == 0 else [l, j]


def fence_point_from_doc(t):
    """A fence point as written: the JSON integer 0 (the basepoint), or
    ``[l, j]`` with l and j JSON integers >= 1.  Anything else, booleans
    and floats included, raises ParseError."""
    if type(t) is int and t == 0:
        return (0, 0)
    if type(t) is list and len(t) == 2 and all(
            type(c) is int and c >= 1 for c in t):
        return tuple(t)
    raise ParseError(
        f"fence point must be 0 or [l, j] with integers l, j >= 1, "
        f"not {t!r}"
    )


@dataclass
class CombinatorialHomotopy:
    """An order preserving table H : Q x J_{n,m} -> P interpolating n maps."""

    n: int
    m: int
    depth: int
    symmetric: bool
    source: object  # FinitePoset Q
    target: object  # FinitePoset P
    table: dict  # (x, t) -> p  with t a fence point
    projection_endpoints: bool = False

    def fence(self):
        return multi_fence(self.n, self.m)

    def to_doc(self):
        # each name and fence point is keyed once, not once per row
        xs = {x for x, _ in self.table}
        ts = {t for _, t in self.table}
        xkey = {x: ckey(x) for x in xs}
        tkey = {t: ckey(fence_point_to_doc(t)) for t in ts}
        cells = sorted(self.table.items(),
                       key=lambda kv: (xkey[kv[0][0]], tkey[kv[0][1]]))
        rows = [[x, fence_point_to_doc(t), v] for (x, t), v in cells]
        return {
            "type": "combinatorial_homotopy",
            "n": self.n,
            "m": self.m,
            "depth": self.depth,
            "symmetric": self.symmetric,
            "projection_endpoints": self.projection_endpoints,
            "source": poset_to_doc(self.source),
            "target": poset_to_doc(self.target),
            "table": rows,
        }

    @classmethod
    def from_doc(cls, doc):
        try:
            source, xs = read_poset(doc["source"])
            target, ps = read_poset(doc["target"])
            x_of, v_of = xs.reader(), ps.reader()
            rows = array(doc["table"], "table")
            table = {
                (x_of(x), fence_point_from_doc(t)): v_of(v)
                for x, t, v in (array(row, "a table row") for row in rows)
            }
            if len(table) != len(rows):
                raise ParseError(
                    f"homotopy table repeats a cell: {len(rows)} rows, "
                    f"{len(table)} cells"
                )
            return cls(
                **_header(doc, "n", "m", "depth"),
                source=source,
                target=target,
                table=table,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed combinatorial homotopy: {exc}") from exc


@dataclass
class SectionWitness:
    """A family of fence paths s(x) with q_{n,m}(s(x)) = (rho_1(x), ...)."""

    n: int
    m: int
    depth: int
    symmetric: bool
    source: object  # FinitePoset Q
    target: object  # FinitePoset P
    paths: dict  # x -> {fence point -> p}
    projection_endpoints: bool = False

    def fence(self):
        return multi_fence(self.n, self.m)

    def to_doc(self):
        J = self.fence()
        points = list(J.poset.elements)
        rows = []
        for x in self.source.elements:
            gamma = self.paths[x]
            rows.append([x, [gamma[t] for t in points]])
        return {
            "type": "section_witness",
            "n": self.n,
            "m": self.m,
            "depth": self.depth,
            "symmetric": self.symmetric,
            "projection_endpoints": self.projection_endpoints,
            "source": poset_to_doc(self.source),
            "target": poset_to_doc(self.target),
            "points": [fence_point_to_doc(t) for t in points],
            "paths": rows,
        }

    @classmethod
    def from_doc(cls, doc):
        try:
            source, xs = read_poset(doc["source"])
            target, ps = read_poset(doc["target"])
            x_of, v_of = xs.reader(), ps.reader()
            points = [fence_point_from_doc(t)
                      for t in array(doc["points"], "points")]
            if len(set(points)) != len(points):
                raise ParseError("section point list repeats a point")
            rows = array(doc["paths"], "paths")
            paths = {}
            for x, values in (array(row, "a path row") for row in rows):
                values = array(values, "a path's values")
                if len(values) != len(points):
                    raise ParseError("path length does not match point list")
                paths[x_of(x)] = {
                    t: v_of(v) for t, v in zip(points, values)
                }
            if len(paths) != len(rows):
                raise ParseError(
                    f"section repeats a path key: {len(rows)} rows, "
                    f"{len(paths)} keys"
                )
            return cls(
                **_header(doc, "n", "m", "depth"),
                source=source,
                target=target,
                paths=paths,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed section witness: {exc}") from exc


CERT_TYPES = {
    "contiguity_chain": ContiguityChain,
    "combinatorial_homotopy": CombinatorialHomotopy,
    "section_witness": SectionWitness,
}


def certificate_from_doc(doc):
    try:
        kind = doc["type"]
    except (KeyError, TypeError) as exc:
        raise ParseError("certificate document lacks a type field") from exc
    if kind not in CERT_TYPES:
        raise ParseError(f"unknown certificate type {kind!r}")
    return CERT_TYPES[kind].from_doc(doc)
