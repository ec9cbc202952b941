"""JSON documents for complexes, posets and certificates.

Complex document: {"vertices": [...], "order": [[u, v], ...] (optional,
u <= v generators), "facets": [[...], ...]}.  Poset document:
{"elements": [...], "relations": [[a, b], ...]} with a <= b.  Labels are
strings, numbers, or nested lists (product and subdivision names); every
container (the lists of vertices, facets, elements, relations and pairs,
and each facet and pair) is a JSON array, and a reader rejects anything
else with a ParseError.  Serialization is canonical: fixed key order,
canonically sorted lists, two-space indent, trailing newline.
``canonical_json`` writes the text itself and reproduces
``json.dumps(doc, indent=2, sort_keys=True)`` byte for byte: CPython's C
encoder does not run when ``indent`` is set, and the pure-Python encoder it
falls back to builds a new string per list item.

Documents built here and in ``witnesses`` carry the package's own name
objects: a nested name is one tuple, shared by every place it occurs in a
report (vertex lists, facets, map rows), and the writer renders each shared
tuple once per call.  Readers match names by position: a ``Names`` table
freezes each declared vertex or element once, and resolves every later
occurrence of a label (a facet member, a relation, a map row) to the
declared object by comparing the parsed label with the declared entry where
the canonical writer puts it, freezing the label only when no such entry is
equal.
"""

import json
from json.encoder import encode_basestring_ascii
from operator import is_

from .complexes import OrderedComplex, SimplicialComplex, undeclared
from .errors import ParseError, ValidationError
from .posets import (
    poset_from_index_pairs,
    poset_from_relations,
    unknown_element,
)
from .util import csorted, freeze


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


def array(x, what):
    """``x`` when it is a JSON array (a list, or a tuple in a document
    built in process); anything else, a string above all, is a ParseError
    naming ``what``."""
    if type(x) is list or type(x) is tuple:
        return x
    raise ParseError(f"{what} must be a JSON array, not {_kind(x)}")


def _kind(x):
    if isinstance(x, str):
        return "a string"
    if x is None or isinstance(x, bool):
        return json.dumps(x)
    if isinstance(x, (int, float)):
        return "a number"
    if isinstance(x, dict):
        return "an object"
    return type(x).__name__


_END = object()  # past the end of a declared list; equal to no label


class Names:
    """One declared list of names (a complex's vertices, a poset's
    elements), read once, that resolves the labels referring to it.

    Each declared entry is frozen once.  ``names`` holds the distinct
    entries in canonical order, numbered by ``rank``; ``at[p]`` is the
    object that the entry at document position p resolves to, so equal
    entries (1, 1.0 and true among them) resolve to one object, and
    ``ranks[p]`` is its rank.

    ``find(label, cursor, prev)`` returns the position of a declared entry
    equal to a parsed label, or None.  It first compares the label with
    plain ``==`` (done in C, nothing frozen) against the entries where the
    canonical writer puts it: position ``cursor`` and the one after it,
    then ``prev`` and the one after it.  Only when none is equal does it
    freeze the label and look it up, so the object a label resolves to
    depends on the label alone, never on the hints; an unhashable label (a
    JSON object in it) raises TypeError there.
    """

    __slots__ = ("names", "rank", "ranks", "at", "_raw", "_first")

    def __init__(self, raw):
        frozen = [freeze(x) for x in raw]
        self.names = names = tuple(csorted(set(frozen)))
        self.rank = rank = {v: i for i, v in enumerate(names)}
        if len(names) == len(frozen) and all(map(is_, names, frozen)):
            # canonical: sorted, nothing repeated
            self.ranks = self._first = range(len(names))
            self.at = names
        else:
            self.ranks = [rank[v] for v in frozen]
            self._first = first = [None] * len(names)
            for p in reversed(range(len(frozen))):
                first[self.ranks[p]] = p
            self.at = [names[r] for r in self.ranks]
        self._raw = list(raw) + [_END, _END]

    def find(self, label, cursor, prev=None):
        raw = self._raw
        if label == raw[cursor]:
            return cursor
        if label == raw[cursor + 1]:
            return cursor + 1
        if prev is not None:
            if label == raw[prev]:
                return prev
            if label == raw[prev + 1]:
                return prev + 1
        r = self.rank.get(freeze(label))
        return None if r is None else self._first[r]

    def reader(self):
        """A function from parsed labels to the declared objects, with its
        own cursor; an undeclared label comes back as its frozen copy."""
        cursor = 0
        find, at = self.find, self.at

        def read(label):
            nonlocal cursor
            p = find(label, cursor)
            if p is None:
                return freeze(label)
            cursor = p
            return at[p]

        return read


def _index_pairs(names, pairs):
    """The rank pairs of parsed label pairs over ``names``, each pair's
    first label resolved, and checked declared, before its second."""
    out = []
    ca = cb = 0
    ranks = names.ranks
    for a, b in pairs:
        i = names.find(a, ca)
        if i is None:
            raise unknown_element(freeze(a))
        j = names.find(b, cb)
        if j is None:
            raise unknown_element(freeze(b))
        ca, cb = i, j
        out.append((ranks[i], ranks[j]))
    return out


def _facet_rank_tuples(names, facets):
    """Each facet as the sorted tuple of its members' ranks.  A member is
    looked for after the previous member, and at the previous facet's
    member in its place, where the canonical writer puts it.  An empty
    facet, or a facet using an undeclared vertex, is a document defect."""
    out = []
    ranks = names.ranks
    cursor, prev = 0, ()
    for f in facets:
        if not f:
            raise ParseError("facets must be nonempty")
        here = []
        for j, v in enumerate(f):
            p = names.find(v, cursor, prev[j] if j < len(prev) else None)
            if p is None:
                raise ParseError(undeclared(freeze(f), freeze(v)))
            here.append(p)
            cursor = p
        prev = here
        out.append(tuple(sorted({ranks[p] for p in here})))
    return out


def read_complex(doc):
    """A complex document as ``(K, names)``: the validated (possibly
    ordered) complex and the ``Names`` of its declared vertices, whose
    objects are K's own vertices."""
    try:
        raw = array(doc["vertices"], "vertices")
        facets = [array(f, "a facet") for f in array(doc["facets"], "facets")]
        names = Names(raw)
        K = SimplicialComplex.from_rank_tuples(
            names.names, names.rank, _facet_rank_tuples(names, facets))
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed complex document: {exc}") from exc
    if "order" not in doc:
        return K, names
    label = names.reader()
    try:
        pairs = [
            (label(a), label(b))
            for a, b in (array(pr, "an order pair")
                         for pr in array(doc["order"], "order"))
        ]
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed order field: {exc}") from exc
    return OrderedComplex(K, poset_from_relations(names.names, pairs)), names


def complex_from_doc(doc):
    """Parse and validate a complex document.

    The declared vertices are frozen once (``Names``); each facet member
    and order pair is matched against them by position and resolves to the
    complex's own vertex object, and the complex is built from the facets'
    rank tuples.  The checks and messages are those of ``from_facets``,
    facet by facet in document order: an empty facet, or the first member
    of a facet that is not declared.
    """
    return read_complex(doc)[0]


def poset_to_doc(P):
    """Serialize a poset; the document carries its own element objects."""
    return {
        "elements": P.elements,
        "relations": [[a, b] for a, b in P.covers()],
    }


def read_poset(doc):
    """A poset document as ``(P, names)``: the validated poset and the
    ``Names`` of its declared elements, whose objects are P's own.  The
    checks and messages are those of ``poset_from_relations``."""
    try:
        raw = array(doc["elements"], "elements")
        pairs = [
            (a, b)
            for a, b in (array(r, "a relation")
                         for r in array(doc["relations"], "relations"))
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed poset document: {exc}") from exc
    names = Names(raw)
    return poset_from_index_pairs(names.names, _index_pairs(names, pairs)), names


def poset_from_doc(doc):
    return read_poset(doc)[0]


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
    """A vertex map from its pair list, each key resolved against ``keys``
    and each value against ``values`` (``Names``), an undeclared label
    kept as its frozen copy.  A key listed twice is a ParseError: the later
    row would silently replace the earlier one."""
    key, value = keys.reader(), values.reader()
    try:
        table = {}
        for row in array(rows, "a map"):
            k, v = array(row, "a map row")
            table[key(k)] = value(v)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed map table: {exc}") from exc
    if len(table) != len(rows):
        raise ParseError(
            f"map table repeats a key: {len(rows)} rows, {len(table)} keys"
        )
    return table
