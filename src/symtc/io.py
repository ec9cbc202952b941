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

Documents built here and in ``witnesses`` carry the package's own name
objects: a nested name is one tuple, shared by every place it occurs in a
report (vertex lists, facets, map rows), and the writer renders each shared
tuple once per call.  Readers turn parsed lists back into tuples with
``freeze``.
"""

import json
from json.encoder import encode_basestring_ascii

from .complexes import OrderedComplex, from_facets
from .errors import EmptyFacet, ParseError, UnknownVertex, ValidationError
from .posets import poset_from_relations
from .util import freeze


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

    A tuple object is rendered once per call.  Its first rendering is the
    slice of ``out`` it took, and a repeat emits that slice joined, with its
    line breaks re-indented for the new depth: no quoted string holds a raw
    line break, and every line inside a container at depth d is indented by
    at least 2d spaces, so one ``str.replace`` moves it to any depth.
    Documents carry the package's name tuples, one object per name however
    often it occurs, so each name is written once per report.  The memo
    keys on ``id``, which is unique among objects alive in ``doc``; lists
    are not memoized, since the writers build them fresh.
    """
    out = []
    emit = out.append
    quote = encode_basestring_ascii
    int_text = int.__repr__
    layout = []  # per depth: "[\n  ..", ",\n  ..", "\n..]", "{\n  ..", "\n..}"
    seen = {}  # id of a tuple -> [start, end, depth, {depth: text}]

    def separators(depth):
        while len(layout) <= depth:
            outer = "\n" + "  " * len(layout)
            inner = outer + "  "
            layout.append(("[" + inner, "," + inner, outer + "]",
                           "{" + inner, outer + "}"))
        return layout[depth]

    def again(hit, depth):
        texts = hit[3]
        if texts is None:
            texts = hit[3] = {hit[2]: "".join(out[hit[0]:hit[1]])}
        text = texts.get(depth)
        if text is None:
            text = texts[depth] = texts[hit[2]].replace(
                "\n" + "  " * hit[2], "\n" + "  " * depth)
        return text

    # list, tuple and dict share no instances with str, int or float, so
    # testing containers first gives json's answer for every type
    def value(x, depth):
        if isinstance(x, (list, tuple)):
            if not x:
                emit("[]")
                return
            memo = type(x) is tuple
            if memo:
                hit = seen.get(id(x))
                if hit is not None:
                    emit(again(hit, depth))
                    return
                start = len(out)
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
                elif t is tuple and (hit := seen.get(id(item))) is not None:
                    emit(again(hit, depth + 1))
                else:
                    value(item, depth + 1)
            emit(close)
            if memo:
                seen[id(x)] = [start, len(out), depth, None]
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

    The document carries the complex's own name objects: ``vertices`` is
    ``K.vertices`` and each facet lists those same names, so the writer
    renders each name once (see ``canonical_json``).
    """
    order_pairs = None
    if isinstance(K, OrderedComplex):
        order_pairs = [[a, b] for a, b in K.order.covers()]
        K = K.base
    vs = K.vertices
    doc = {
        "vertices": vs,
        "facets": [[vs[i] for i in t] for t in K.ranked_facets()],
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
    """Serialize a poset; the document carries its own element objects."""
    return {
        "elements": P.elements,
        "relations": [[a, b] for a, b in P.covers()],
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


def _parse(from_doc, path, doc):
    if doc is None:
        doc = load_json(path)
    try:
        return from_doc(doc)
    except ParseError:
        raise
    except Exception as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def parse_complex(path, doc=None):
    """File -> validated (possibly ordered) complex; ``doc``, when given,
    is the file already parsed, and the file is not read again."""
    return _parse(complex_from_doc, path, doc)


def parse_poset(path, doc=None):
    """File -> validated poset; ``doc`` as in ``parse_complex``."""
    return _parse(poset_from_doc, path, doc)


def map_table_from_doc(rows, keys, values):
    """A vertex map from its pair list, keys interned onto ``keys`` and
    values onto ``values`` (dicts from each name to itself).  A key listed
    twice is a ParseError: the later row would silently replace the
    earlier one."""
    try:
        table = {interned(k, keys): interned(v, values) for k, v in rows}
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed map table: {exc}") from exc
    if len(table) != len(rows):
        raise ParseError(
            f"map table repeats a key: {len(rows)} rows, {len(table)} keys"
        )
    return table
