"""Reading and writing algebra documents.

An algebra document is one JSON object per algebra with fields `dim`,
`kind`, `basis`, and `brackets`; bracket pairs that are not listed are
zero.  A parameterized document additionally declares `params`, and its
coefficient strings may be polynomial expressions in those parameters.
A `name` field is optional metadata on either flavor.

Documents are emitted in a canonical form (fixed key order, sorted
bracket pairs, two-space indent) so identical inputs produce identical
bytes.  Every JSON report is written by `dump_canonical`, in chunks, or
`dumps_canonical`, as one string; the text of both is that of
`json.dumps(indent=2)`.
"""

import functools
import json
from json.encoder import encode_basestring_ascii as _quote

from .algebras import AlgebraSpec
from .families import ParamAlgebra
from .polynomials import Poly, format_poly, parse_poly
from .scalars import format_scalar, parse_scalar

__all__ = [
    "FormatError",
    "load_document",
    "parse_document",
    "document_to_algebra",
    "document_to_family",
    "algebra_to_document",
    "family_to_document",
    "dumps_canonical",
    "dump_canonical",
    "cochain_entries",
]

_KINDS = ("lie", "leibniz")
_TOP_FIELDS = ("dim", "kind", "basis", "name", "params", "brackets")
_ENTRY_FIELDS = ("left", "right", "value")
_TERM_FIELDS = ("basis", "coeff")


class FormatError(ValueError):
    """Document failure naming the offending line or field."""

    def __init__(self, message, line=None, field=None):
        where = []
        if line is not None:
            where.append(f"line {line}")
        if field is not None:
            where.append(f"field '{field}'")
        prefix = ", ".join(where)
        super().__init__(f"{prefix}: {message}" if prefix else message)
        self.line = line
        self.field = field


class _Object(dict):
    """A JSON object that remembers its first repeated key, which
    json.loads would otherwise drop in favor of the last value."""

    __slots__ = ("repeated",)


def _record_repeats(pairs):
    obj = _Object()
    obj.repeated = None
    for key, value in pairs:
        if key in obj and obj.repeated is None:
            obj.repeated = key
        obj[key] = value
    return obj


def load_document(text: str) -> dict:
    """JSON text to a raw document object; errors carry a line or field."""
    try:
        doc = json.loads(text, object_pairs_hook=_record_repeats)
    except json.JSONDecodeError as exc:
        raise FormatError(exc.msg, line=exc.lineno) from exc
    except RecursionError as exc:
        raise FormatError("document nested too deeply") from exc
    if not isinstance(doc, dict):
        raise FormatError("document must be a JSON object")
    return doc


def _check_keys(mapping, allowed, path):
    """Reject a repeated or unknown field, named by its full path."""
    repeated = getattr(mapping, "repeated", None)
    if repeated is not None:
        raise FormatError("duplicate field",
                          field=f"{path}.{repeated}" if path else repeated)
    for key in mapping:
        if key not in allowed:
            full = f"{path}.{key}" if path else str(key)
            raise FormatError("unknown field", field=full)


def _basis_index(index, label, field):
    if not isinstance(label, str):
        raise FormatError("expected a basis name string", field=field)
    if label not in index:
        raise FormatError(f"unknown basis name {label!r}", field=field)
    return index[label]


def _structure(doc, coeff_parser, coeff_label):
    """Shared walk of a document body; returns the algebra ingredients."""
    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise FormatError("expected a positive integer", field="dim")
    kind = doc.get("kind", "lie")
    if kind not in _KINDS:
        raise FormatError("expected 'lie' or 'leibniz'", field="kind")
    # Default names only when none are given: a huge dim may come with
    # a short basis, refused below without building dim names.
    basis = doc["basis"] if "basis" in doc else [
        f"x{i + 1}" for i in range(dim)]
    if (not isinstance(basis, list)
            or any(not isinstance(b, str) or not b for b in basis)):
        raise FormatError("expected a list of nonempty names", field="basis")
    if len(basis) != dim or len(set(basis)) != dim:
        raise FormatError(f"expected {dim} distinct names", field="basis")
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise FormatError("expected a string", field="name")
    index = {label: i for i, label in enumerate(basis)}
    entries = doc.get("brackets", [])
    if not isinstance(entries, list):
        raise FormatError("expected a list", field="brackets")
    brackets = {}
    for pos, entry in enumerate(entries):
        path = f"brackets[{pos}]"
        if not isinstance(entry, dict):
            raise FormatError("expected an object", field=path)
        _check_keys(entry, _ENTRY_FIELDS, path)
        key = tuple(_basis_index(index, entry.get(side), f"{path}.{side}")
                    for side in ("left", "right"))
        if key in brackets:
            raise FormatError("duplicate bracket pair", field=path)
        value = entry.get("value")
        if not isinstance(value, list):
            raise FormatError("expected a list", field=f"{path}.value")
        cell = {}
        for vpos, term in enumerate(value):
            vpath = f"{path}.value[{vpos}]"
            if not isinstance(term, dict):
                raise FormatError("expected an object", field=vpath)
            _check_keys(term, _TERM_FIELDS, vpath)
            k = _basis_index(index, term.get("basis"), f"{vpath}.basis")
            if k in cell:
                raise FormatError("duplicate basis component",
                                  field=f"{vpath}.basis")
            coeff = term.get("coeff")
            if not isinstance(coeff, str):
                raise FormatError(f"expected a {coeff_label} string",
                                  field=f"{vpath}.coeff")
            try:
                cell[k] = coeff_parser(coeff)
            except ValueError as exc:
                raise FormatError(str(exc), field=f"{vpath}.coeff") from exc
        brackets[key] = cell
    return dim, kind, basis, name, brackets


def document_to_algebra(doc: dict) -> AlgebraSpec:
    """Concrete algebra from a raw document object."""
    if "params" in doc:
        raise FormatError("parameterized document where a concrete algebra "
                          "was expected", field="params")
    _check_keys(doc, _TOP_FIELDS, "")
    dim, kind, basis, name, brackets = _structure(doc, parse_scalar, "scalar")
    return AlgebraSpec(dim, brackets, kind=kind, name=name, basis_names=basis)


def document_to_family(doc: dict) -> ParamAlgebra:
    """Parameterized algebra from a raw document object."""
    _check_keys(doc, _TOP_FIELDS, "")
    params = doc.get("params")
    if (not isinstance(params, list)
            or any(not isinstance(p, str) for p in params)):
        raise FormatError("expected a list of parameter names",
                          field="params")
    params = tuple(params)
    try:
        parse_poly("0", params)
    except ValueError as exc:
        raise FormatError(str(exc), field="params") from exc
    for k, p in enumerate(params):
        # A name counts only if a coefficient can spell it.
        try:
            named = parse_poly(p, params) == Poly.variable(params, p)
        except ValueError:
            named = False
        if not named:
            raise FormatError(f"{p!r} cannot be written as a parameter in "
                              f"a coefficient", field=f"params[{k}]")
    dim, kind, basis, name, brackets = _structure(
        doc, lambda s: parse_poly(s, params), "polynomial")
    return ParamAlgebra(dim, params, brackets, kind=kind, name=name,
                        basis_names=basis)


def parse_document(text: str):
    """Parse JSON text into an AlgebraSpec or, if `params` is declared,
    a ParamAlgebra."""
    doc = load_document(text)
    if "params" in doc:
        return document_to_family(doc)
    return document_to_algebra(doc)


def _to_document(alg, cells, coeff_text, params=None) -> dict:
    """The document of a concrete or parameterized table, one bracket per
    (i, j, cell) of `cells`, each coefficient written by `coeff_text`."""
    doc = {"dim": alg.dim, "kind": alg.kind}
    if params is not None:
        doc["params"] = list(params)
    doc["basis"] = list(alg.basis_names)
    if alg.name:
        doc["name"] = alg.name
    names = alg.basis_names
    doc["brackets"] = [
        {"left": names[i], "right": names[j],
         "value": [{"basis": names[k], "coeff": coeff_text(cell[k])}
                   for k in sorted(cell)]}
        for i, j, cell in cells
    ]
    return doc


def algebra_to_document(spec: AlgebraSpec) -> dict:
    return _to_document(spec, spec.nonzero_brackets(), format_scalar)


def family_to_document(pa: ParamAlgebra) -> dict:
    cells = [(i, j, pa.table[(i, j)]) for i, j in sorted(pa.table)]
    return _to_document(pa, cells, format_poly, pa.params)


def dumps_canonical(doc) -> str:
    """Stable JSON text: insertion key order, two-space indent, trailing
    newline.

    The text is `json.dumps(doc, indent=2, ensure_ascii=True,
    allow_nan=False) + "\\n"` byte for byte, but written directly: with
    `indent` set the stdlib leaves its C encoder for a chain of Python
    generators that yields every token.  Keys must be strings.  The
    fragments go to a list, joined once at the end; `dump_canonical`
    writes the same text in chunks.
    """
    out = []
    _write(doc, out, 0, None)
    out.append("\n")
    return "".join(out)


# Fragments gathered before `dump_canonical` hands them on.
_CHUNK = 4096


def dump_canonical(doc, write) -> None:
    """Write the text of `dumps_canonical(doc)` through `write`, a str
    writer such as a file's `write`, in chunks of a few thousand
    fragments, each ending after a list item that is a list or dict, so
    a large report is never held whole, neither as fragments nor as one
    string (a report's bulk is lists of dicts)."""
    out = []

    def flush():
        write("".join(out))
        out.clear()

    _write(doc, out, 0, flush)
    out.append("\n")
    flush()


@functools.cache
def _separators(depth):
    """What opens, separates and closes the items of a dict and of a list
    nested `depth` levels deep."""
    inner = "\n" + "  " * (depth + 1)
    outer = inner[:-2]
    return (("{" + inner, "," + inner, outer + "}"),
            ("[" + inner, "," + inner, outer + "]"))


def _write(o, out, depth, flush):
    """Append the JSON fragments of `o`, nested `depth` levels deep, to
    `out`, calling `flush` (when not None) once `out` holds `_CHUNK`
    fragments, after the list item that reached it, when that item is
    itself a list or dict.  Exact str and int items are written in
    the loops; any other leaf json.dumps encodes itself (a float, an
    int or str subclass) or rejects with the error json.dumps(indent=2)
    raises (nan, a set)."""
    append = out.append
    if isinstance(o, dict):
        if not o:
            append("{}")
            return
        opening, between, closing = _separators(depth)[0]
        for key, value in o.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            append(opening)
            append(_quote(key))
            append(": ")
            t = type(value)
            if t is str:
                append(_quote(value))
            elif t is int:
                append(int.__repr__(value))
            else:
                _write(value, out, depth + 1, flush)
            opening = between
        append(closing)
    elif isinstance(o, (list, tuple)):
        if not o:
            append("[]")
            return
        opening, between, closing = _separators(depth)[1]
        for value in o:
            append(opening)
            t = type(value)
            if t is str:
                append(_quote(value))
            elif t is int:
                append(int.__repr__(value))
            else:
                _write(value, out, depth + 1, flush)
                if flush is not None and len(out) >= _CHUNK:
                    flush()
            opening = between
        append(closing)
    elif o is None:
        append("null")
    elif o is True:
        append("true")
    elif o is False:
        append("false")
    elif type(o) is str:
        append(_quote(o))
    elif type(o) is int:
        append(int.__repr__(o))
    else:
        # A leaf, so `indent` changes nothing but the wording of an error.
        append(json.dumps(o, indent=2, allow_nan=False))


def cochain_entries(scheme, n: int, data: dict) -> list:
    """Readable nonzero entries of a degree-n cochain in flat-index order.

    Adjoint entries carry the output basis name under `basis`; trivial
    entries omit it.
    """
    names = scheme.spec.basis_names
    out = []
    for idx in sorted(data):
        coeff = data[idx]
        if not coeff:
            continue
        k, t = scheme.unflatten(n, idx)
        entry = {"args": [names[v] for v in t]}
        if k is not None:
            entry["basis"] = names[k]
        entry["coeff"] = format_scalar(coeff)
        out.append(entry)
    return out
