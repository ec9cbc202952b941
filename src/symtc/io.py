"""JSON documents for complexes, posets and certificates.

Complex document: {"vertices": [...], "order": [[u, v], ...] (optional,
u <= v generators), "facets": [[...], ...]}.  Poset document:
{"elements": [...], "relations": [[a, b], ...]} with a <= b.  Labels are
strings, numbers, or nested lists (product and subdivision names).
Serialization is canonical: fixed key order, canonically sorted lists,
two-space indent, trailing newline.  ``canonical_json`` writes the text
itself and reproduces ``json.dumps(doc, indent=2, sort_keys=True)`` byte for
byte: CPython's C encoder does not run when ``indent`` is set, and the
pure-Python encoder it falls back to builds a new string per list item.
"""

import json
from json.encoder import encode_basestring_ascii

from .complexes import OrderedComplex, from_facets
from .errors import EmptyFacet, ParseError, UnknownVertex, ValidationError
from .posets import poset_from_relations
from .util import freeze, thaw


def _float_text(x):
    if x != x:
        return "NaN"
    if x == float("inf"):
        return "Infinity"
    if x == -float("inf"):
        return "-Infinity"
    return float.__repr__(x)


def _key_text(key):
    """A dict key as ``json.dumps`` converts it (before quoting)."""
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _float_text(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(
        f"keys must be str, int, float, bool or None, not "
        f"{key.__class__.__name__}"
    )


def canonical_json(doc):
    """``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``, byte for byte.

    One recursion over dicts, lists and tuples appends text pieces to a
    list.  The separators of each depth (an opener with its line break, the
    item separator, the closing line) are built once per call and shared by
    every container at that depth.
    """
    out = []
    emit = out.append
    quote = encode_basestring_ascii
    int_text = int.__repr__
    layout = []  # per depth: "[\n  ..", ",\n  ..", "\n..]", "{\n  ..", "\n..}"

    def separators(depth):
        while len(layout) <= depth:
            outer = "\n" + "  " * len(layout)
            inner = outer + "  "
            layout.append(("[" + inner, "," + inner, outer + "]",
                           "{" + inner, outer + "}"))
        return layout[depth]

    # list, tuple and dict share no instances with str, int or float, so
    # testing containers first gives json's answer for every type
    def value(x, depth):
        if isinstance(x, (list, tuple)):
            if not x:
                emit("[]")
                return
            try:
                lead, sep, close, _, _ = layout[depth]
            except IndexError:
                lead, sep, close, _, _ = separators(depth)
            for item in x:
                emit(lead)
                lead = sep
                t = type(item)
                if t is str:
                    emit(quote(item))
                elif t is int:
                    emit(int_text(item))
                else:
                    value(item, depth + 1)
            emit(close)
        elif isinstance(x, dict):
            if not x:
                emit("{}")
                return
            _, sep, _, lead, close = separators(depth)
            for key, item in sorted(x.items()):
                emit(lead)
                lead = sep
                emit(quote(_key_text(key)))
                emit(": ")
                value(item, depth + 1)
            emit(close)
        elif isinstance(x, str):
            emit(quote(x))
        elif x is None:
            emit("null")
        elif x is True:
            emit("true")
        elif x is False:
            emit("false")
        elif isinstance(x, int):
            emit(int_text(x))
        elif isinstance(x, float):
            emit(_float_text(x))
        else:
            raise TypeError(
                f"Object of type {x.__class__.__name__} is not JSON serializable"
            )

    value(doc, 0)
    emit("\n")
    return "".join(out)


def complex_to_doc(K):
    """Serialize a plain or ordered complex.

    Each vertex is thawed once; the facet lists share those values.
    """
    order_pairs = None
    if isinstance(K, OrderedComplex):
        order_pairs = [[thaw(a), thaw(b)] for a, b in K.order.covers()]
        K = K.base
    thawed = {v: thaw(v) for v in K.vertices}
    doc = {
        "vertices": list(thawed.values()),
        "facets": [[thawed[v] for v in f] for f in K.facet_names()],
    }
    if order_pairs is not None:
        doc["order"] = order_pairs
    return doc


def interned(x, names):
    """A parsed label, frozen, as the equal object among ``names`` (a dict
    from each name to itself) when there is one.

    Later equality tests against the interned object stop at ``is``.  The
    lookup hashes the label, so a JSON object anywhere in it raises
    TypeError.
    """
    x = freeze(x)
    return names.get(x, x)


def complex_from_doc(doc):
    """Parse and validate a complex document.

    Each declared vertex is frozen once, and the complex takes its names
    from those objects; a facet member is frozen only to look up its rank.
    Order pairs are interned onto the declared vertices.
    """
    try:
        vertices = [freeze(v) for v in doc["vertices"]]
        facets = [[freeze(v) for v in f] for f in doc["facets"]]
        K = from_facets(vertices, facets)
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed complex document: {exc}") from exc
    except (UnknownVertex, EmptyFacet) as exc:
        # a facet referencing an undeclared vertex is a document defect
        raise ParseError(str(exc)) from exc
    if "order" not in doc:
        return K
    declared = {v: v for v in vertices}
    try:
        pairs = [
            (interned(a, declared), interned(b, declared))
            for a, b in doc["order"]
        ]
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed order field: {exc}") from exc
    order = poset_from_relations(vertices, pairs)
    return OrderedComplex(K, order)


def poset_to_doc(P):
    return {
        "elements": [thaw(x) for x in P.elements],
        "relations": [[thaw(a), thaw(b)] for a, b in P.covers()],
    }


def poset_from_doc(doc):
    try:
        elements = [freeze(x) for x in doc["elements"]]
        relations = [(freeze(a), freeze(b)) for a, b in doc["relations"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed poset document: {exc}") from exc
    return poset_from_relations(elements, relations)


def load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def save_json(path, doc):
    with open(path, "w") as fh:
        fh.write(canonical_json(doc))


def parse_complex(path):
    """File -> validated (possibly ordered) complex."""
    doc = load_json(path)
    try:
        return complex_from_doc(doc)
    except ParseError:
        raise
    except Exception as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def parse_poset(path):
    doc = load_json(path)
    try:
        return poset_from_doc(doc)
    except ParseError:
        raise
    except Exception as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def map_table_from_doc(rows, keys, values):
    """A vertex map from its pair list, keys interned onto ``keys`` and
    values onto ``values`` (dicts from each name to itself)."""
    try:
        return {interned(k, keys): interned(v, values) for k, v in rows}
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed map table: {exc}") from exc
