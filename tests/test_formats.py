"""Algebra document round-trips, canonical output, and error reporting."""

import hashlib
import json

import pytest

from leibcoh.algebras import AlgebraSpec, catalog, catalog_names, validate
from leibcoh.cochains import CochainScheme
from leibcoh.deformations import family_deformation, verify_versal
from leibcoh.families import ParamAlgebra, family_catalog, family_names, jacobi_defect
from leibcoh import formats
from leibcoh.formats import (
    FormatError,
    algebra_to_document,
    cochain_entries,
    document_to_algebra,
    dump_canonical,
    dumps_canonical,
    family_to_document,
    parse_document,
)
from leibcoh.polynomials import Poly
from leibcoh.scalars import ONE, Scalar
from tests.conftest import cochain_from_entries, diamond_phi_basis
from tests.test_algebras import CATALOG_CASES


@pytest.mark.parametrize("name,params", CATALOG_CASES)
def test_catalog_round_trip(name, params):
    spec = catalog(name, *params)
    text = dumps_canonical(algebra_to_document(spec))
    back = parse_document(text)
    assert isinstance(back, AlgebraSpec)
    assert back.dim == spec.dim
    assert back.kind == spec.kind
    assert back.basis_names == spec.basis_names
    assert back.name == spec.name
    assert back.table == spec.table
    assert validate(back) == validate(spec)
    assert dumps_canonical(algebra_to_document(back)) == text


def test_canonical_text_is_stable():
    spec = catalog("diamond_e")
    first = dumps_canonical(algebra_to_document(spec))
    second = dumps_canonical(algebra_to_document(catalog("diamond_e")))
    assert first == second
    doc = json.loads(first)
    assert list(doc) == ["dim", "kind", "basis", "name", "brackets"]
    assert doc["dim"] == 4
    assert doc["basis"] == ["e1", "e2", "e3", "e4"]


@pytest.mark.parametrize("name", family_names())
def test_family_round_trip(name):
    pa = family_catalog(name)
    text = dumps_canonical(family_to_document(pa))
    back = parse_document(text)
    assert isinstance(back, ParamAlgebra)
    assert back.params == pa.params
    assert back.kind == pa.kind
    assert back.basis_names == pa.basis_names
    assert back.table == pa.table
    assert jacobi_defect(back) == jacobi_defect(pa)


def test_leibniz_document_round_trip():
    spec = AlgebraSpec(2, {(0, 0): {1: ONE}}, kind="leibniz", name="square")
    back = parse_document(dumps_canonical(algebra_to_document(spec)))
    assert back.kind == "leibniz"
    assert back.table == spec.table


def test_gaussian_coefficients_round_trip():
    spec = AlgebraSpec(2, {(0, 1): {0: Scalar(0, 1), 1: Scalar(3, -2) / 4}})
    back = parse_document(dumps_canonical(algebra_to_document(spec)))
    assert back.table == spec.table


def _parse_error(text):
    with pytest.raises(FormatError) as info:
        parse_document(text)
    return info.value


def test_syntax_error_names_line():
    err = _parse_error('{\n  "dim": 2,\n  "brackets": [,]\n}')
    assert err.line == 3
    assert "line 3" in str(err)


def test_non_object_document_rejected():
    err = _parse_error("[1, 2]")
    assert "JSON object" in str(err)


@pytest.mark.parametrize(
    "doc,field",
    [
        ({}, "dim"),
        ({"dim": True}, "dim"),
        ({"dim": 0}, "dim"),
        ({"dim": 2, "kind": "associative"}, "kind"),
        ({"dim": 2, "basis": ["a"]}, "basis"),
        ({"dim": 2, "basis": ["a", "a"]}, "basis"),
        ({"dim": 2, "basis": ["a", 3]}, "basis"),
        ({"dim": 2, "name": 7}, "name"),
        ({"dim": 2, "bracket": []}, "bracket"),
        ({"dim": 2, "brackets": {}}, "brackets"),
        ({"dim": 2, "brackets": [7]}, "brackets[0]"),
        ({"dim": 2, "brackets": [{"left": "x1", "right": "x9", "value": []}]},
         "brackets[0].right"),
        ({"dim": 2, "brackets": [{"left": "x1", "right": "x2", "value": [],
                                  "extra": 1}]},
         "brackets[0].extra"),
        ({"dim": 2, "brackets": [{"left": "x1", "right": "x2", "value": 0}]},
         "brackets[0].value"),
        ({"dim": 2, "brackets": [{"left": "x1", "right": "x2",
                                  "value": [{"basis": "no", "coeff": "1"}]}]},
         "brackets[0].value[0].basis"),
        ({"dim": 2, "brackets": [{"left": "x1", "right": "x2",
                                  "value": [{"basis": "x1", "coeff": 5}]}]},
         "brackets[0].value[0].coeff"),
        ({"dim": 2, "brackets": [{"left": "x1", "right": "x2",
                                  "value": [{"basis": "x1", "coeff": "q"}]}]},
         "brackets[0].value[0].coeff"),
        ({"dim": 2, "params": "t"}, "params"),
        ({"dim": 2, "params": [3]}, "params"),
        ({"dim": 2, "params": ["i"]}, "params"),
        ({"dim": 2, "params": ["t", "t"]}, "params"),
    ],
)
def test_field_errors_name_the_field(doc, field):
    err = _parse_error(json.dumps(doc))
    assert err.field == field
    assert f"field '{field}'" in str(err)


def test_duplicate_bracket_pair_rejected():
    doc = {"dim": 2, "brackets": [
        {"left": "x1", "right": "x2", "value": [{"basis": "x1", "coeff": "1"}]},
        {"left": "x1", "right": "x2", "value": [{"basis": "x2", "coeff": "1"}]},
    ]}
    err = _parse_error(json.dumps(doc))
    assert err.field == "brackets[1]"


def test_duplicate_component_rejected():
    doc = {"dim": 2, "brackets": [
        {"left": "x1", "right": "x2",
         "value": [{"basis": "x1", "coeff": "1"},
                   {"basis": "x1", "coeff": "2"}]},
    ]}
    err = _parse_error(json.dumps(doc))
    assert err.field == "brackets[0].value[1].basis"


def test_polynomial_coefficients_need_declared_params():
    doc = {"dim": 2, "brackets": [
        {"left": "x1", "right": "x2", "value": [{"basis": "x1", "coeff": "t"}]},
    ]}
    err = _parse_error(json.dumps(doc))
    assert err.field == "brackets[0].value[0].coeff"
    doc["params"] = ["t"]
    pa = parse_document(json.dumps(doc))
    assert isinstance(pa, ParamAlgebra)
    assert pa.bracket(0, 1)[0] == Poly.variable(("t",), "t")


def test_concrete_parser_rejects_parameterized_document():
    doc = {"dim": 2, "params": ["t"], "brackets": []}
    with pytest.raises(FormatError) as info:
        document_to_algebra(doc)
    assert info.value.field == "params"


def test_cochain_entries_round_trip_adjoint():
    scheme = CochainScheme(catalog("diamond_e"), "adjoint")
    phis = diamond_phi_basis(scheme)
    for phi in phis.values():
        entries = cochain_entries(scheme, 2, phi)
        assert cochain_from_entries(scheme, 2, entries) == phi
    entries = cochain_entries(scheme, 2, phis[11])
    assert {"args": ["e3", "e3"], "basis": "e1", "coeff": "1/2"} in entries


def test_cochain_entries_trivial_omits_basis():
    scheme = CochainScheme(catalog("diamond_e"), "trivial")
    data = {scheme.flat_index(None, (0, 3)): ONE,
            scheme.flat_index(None, (3, 0)): -ONE}
    entries = cochain_entries(scheme, 2, data)
    assert entries == [
        {"args": ["e1", "e4"], "coeff": "1"},
        {"args": ["e4", "e1"], "coeff": "-1"},
    ]
    assert cochain_from_entries(scheme, 2, entries) == data


def _versal_family():
    base = catalog("diamond_e")
    params = ("t", "s", "u", "w")
    scheme = CochainScheme(base, "adjoint")
    phis = diamond_phi_basis(scheme)
    cells = {}
    for i, j, cell in base.nonzero_brackets():
        cells[(i, j)] = {k: Poly.constant(params, c) for k, c in cell.items()}
    for var, phi in zip(params, (phis[3], phis[7], phis[11], phis[14])):
        factor = Poly.variable(params, var)
        for flat, coeff in phi.items():
            k, pair = scheme.unflatten(2, flat)
            cell = cells.setdefault(pair, {})
            cell[k] = cell.get(k, Poly(params)) + coeff * factor
    return ParamAlgebra(4, params, cells, name="versal",
                        basis_names=base.basis_names)


def test_family_deformation_splits_base_and_terms():
    deformation = family_deformation(_versal_family())
    base = deformation.scheme.spec
    assert base.table == catalog("diamond_e").table
    phis = diamond_phi_basis(deformation.scheme)
    expected = {
        (1, 0, 0, 0): phis[3],
        (0, 1, 0, 0): phis[7],
        (0, 0, 1, 0): phis[11],
        (0, 0, 0, 1): phis[14],
    }
    assert deformation.terms == expected
    ideal = [(1, 0, 1, 0), (1, 0, 0, 1), (0, 0, 1, 1)]
    report = verify_versal(deformation, ideal)
    assert [m for m, _ in report.violations] == [
        (0, 0, 2, 0), (0, 1, 0, 1), (0, 1, 1, 0), (1, 1, 0, 0)]


def test_family_deformation_survives_document_round_trip():
    pa = _versal_family()
    back = parse_document(dumps_canonical(family_to_document(pa)))
    assert family_deformation(back).terms == family_deformation(pa).terms


# SHA-256 of dumps_canonical for every catalog document (the
# parameterized entries at 1, 2, 3) and every family-catalog document,
# so that a change to the writers cannot move a byte unnoticed.
CATALOG_SHA256 = {
    "abelian 1":
        "a9e744b24686977734193892cc0097f4de54384fa0b99aff3dde1d0e2d84ad8e",
    "abelian 2":
        "b0d7d7abce3c7fe16ceaad9be889ed3294d07191b50e3ce3a8955ded399db16d",
    "abelian 3":
        "b260bbb3b0e984ba620820beaba6f3441c2ad27609d78f0f21de1d4ab11a2a80",
    "diamond_e":
        "046de7380b4669d40e9e344d816d91ee187b7c99cb798bac787e2caa8775db25",
    "diamond_x":
        "c35c2a18cb24b8170a1e1478d98fd26d5f417add56b7f1024da1a8bbd8b6d26a",
    "g54":
        "4dbeaf9f735233d4591d1cdc7011bad3036a986e3d7c9daa78bc81bd7467ec07",
    "gl 1":
        "410f926cdfbad1e426b25a4202e569c47e624813d862fe2e8c42288c62c15a94",
    "gl 2":
        "398b234d0a0e39e10eef95e4959f1b111b4e1738c8756add6bc233c36d818b81",
    "gl 3":
        "5f8e5ed6d686e33b61a022ca2f6026dd1c1d3754af59a30dad122ce75e7c303e",
    "heisenberg 1":
        "a9aa257a095ab3618f596222db95386fd4244f73881b2208c747dc6cb862b1c2",
    "heisenberg 2":
        "c301afa958004d8a242613f425e575dc086b1f79ede38a6a654ef04ca6d6210d",
    "heisenberg 3":
        "7ab84cf5a10b9a6eb740ad95226cdef1094305a7652da1836b5f806fafd4e972",
    "sl2":
        "24b55dad1d630844d492e3ec06f6bba0dd84f9727b5eb2a2eaa9aae5d194eec0",
    "sl2_plus_abelian 1":
        "70e22060d5a535d7aed17d3e9c1385c75126ebaa5f2e080bd6efeb1c4f4e1d0d",
    "sl2_plus_abelian 2":
        "0419da6ce14dc119e0eff68e08114b82746b28230a93ac66e587bceddd20d287",
    "sl2_plus_abelian 3":
        "b8fd9ee27de1160964f423a7aa034d74e3d06d5e891a45e1672c627ea6d300af",
}
FAMILY_SHA256 = {
    "diamond_family":
        "589f957ee1aa62b9c1d425c5a0f151a2aead8cee67b65efe69a70b9253ab1976",
    "diamond_leibniz_line":
        "6dc79cf127fb64c5c138c16da8e517dec64dada50d129b7aa82d1b34c6bb2e5e",
    "diamond_sl2_line":
        "4f33402d51e8121fa7ac4b349dbdba0f656fa53442d639a99785e1c5ae57fe76",
    "g54_family1":
        "4f5959ebd4e9623a1e5bba9a651663f6778eaff09c67cb6c29e9ea1642fb4f5b",
    "g54_family2":
        "53c72d4804256c03a817cef74a4d98e6d152f668358ba674fc188511e4c64cfa",
    "g54_family3":
        "009cc2a9359c8e3cfff1430abeb635edec1cbf714dc489cebe612b2441dfa27e",
    "g54_family4":
        "3d9e85386369a8190ae5dc4f3f7a9d787844464b8b335d7760d6bb00a5a069e5",
    "g54_family5":
        "ac2c430addbb3bb7770cfa7623249c89000ab4147577a7e17b64ce6c62d4a647",
}


def _sha256(doc):
    return hashlib.sha256(dumps_canonical(doc).encode()).hexdigest()


def test_catalog_documents_keep_their_bytes():
    assert {key.split()[0] for key in CATALOG_SHA256} == set(catalog_names())
    for key, digest in CATALOG_SHA256.items():
        name, *params = key.split()
        doc = algebra_to_document(catalog(name, *map(int, params)))
        assert _sha256(doc) == digest, key


def test_family_documents_keep_their_bytes():
    assert set(FAMILY_SHA256) == set(family_names())
    for name, digest in FAMILY_SHA256.items():
        assert _sha256(family_to_document(family_catalog(name))) == digest, \
            name


# dumps_canonical against the stdlib encoder it replaces.

def _stdlib_canonical(doc):
    return json.dumps(doc, indent=2, ensure_ascii=True, allow_nan=False) + "\n"


def _outcome(dumps, doc):
    """The text `dumps` writes for `doc`, or the type and message of the
    exception it raises."""
    try:
        return dumps(doc)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


# Characters JSON escapes or spells out: quote, backslash, controls, the
# line separators, non-ASCII BMP and astral text, and lone surrogates.
_SPECIAL_CHARS = ('"', "\\", "/", "\x00", "\b", "\t", "\n", "\x1f", "\x7f",
                  "\xe9", "\u2028", "\uffff", "\U0001f600", "\U0010ffff",
                  "\ud800", "\udfff")
_SPECIAL_LEAVES = (0, -1, 2**64, -10**40, 10**300, True, False, None,
                   -0.0, 0.5, 1e300, -1e-300, 5e-324)
# Leaves both writers must reject, and the exception each raises.
_BAD_LEAVES = ((float("nan"), ValueError), (float("inf"), ValueError),
               (float("-inf"), ValueError), ({1}, TypeError),
               (ONE, TypeError), (b"x", TypeError))


def _json_trees(st, extra_leaves=()):
    """Hypothesis strategy: str-keyed dicts, lists and tuples, empty ones
    included, over strings, ints, bools, None and finite floats."""
    text = st.text(st.one_of(st.sampled_from(_SPECIAL_CHARS),
                             st.integers(0, 0x10FFFF).map(chr)), max_size=6)
    leaves = st.one_of(text, st.integers(), st.booleans(), st.none(),
                       st.floats(allow_nan=False, allow_infinity=False),
                       st.sampled_from(_SPECIAL_LEAVES + tuple(extra_leaves)))
    return st.recursive(
        leaves,
        lambda kids: st.one_of(st.lists(kids, max_size=4),
                               st.lists(kids, max_size=4).map(tuple),
                               st.dictionaries(text, kids, max_size=4)),
        max_leaves=24)


def test_dumps_canonical_matches_json_dumps():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(deadline=None, derandomize=True, max_examples=400)
    @hypothesis.given(_json_trees(st))
    @hypothesis.example({"a": [[], {}, ({},), [[[]]], {"b": {"c": []}}]})
    @hypothesis.example([True, False, 1, 0, None, -0.0, 1e300])
    def check(doc):
        assert dumps_canonical(doc) == _stdlib_canonical(doc)

    check()


def test_dump_canonical_writes_the_same_text_in_chunks(monkeypatch):
    # Three fragments a chunk: once three are gathered, every list item
    # that is a list or dict hands them on, so the lists are cut there.
    monkeypatch.setattr(formats, "_CHUNK", 3)
    doc = {"a": [{"b": [1, "x", [2, {"c": None}]]}, (), {}, [[3]] * 4],
           "d": {"e": ["y"] * 5}}
    chunks = []
    dump_canonical(doc, chunks.append)
    assert "".join(chunks) == dumps_canonical(doc) == _stdlib_canonical(doc)
    assert len(chunks) > 5
    # Each chunk ends at a list item, so the next opens with the comma
    # before the following item or the line of the list's "]".
    assert all(chunk.startswith((",", "\n")) for chunk in chunks[1:])
    one = []
    monkeypatch.setattr(formats, "_CHUNK", 4096)
    dump_canonical(doc, one.append)
    assert one == [dumps_canonical(doc)]


def test_dumps_canonical_fails_as_json_dumps_does():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    bad = [leaf for leaf, _ in _BAD_LEAVES]

    @hypothesis.settings(deadline=None, derandomize=True, max_examples=300)
    @hypothesis.given(_json_trees(st, bad))
    def check(doc):
        assert _outcome(dumps_canonical, doc) == _outcome(_stdlib_canonical,
                                                          doc)

    check()


@pytest.mark.parametrize("leaf,error", _BAD_LEAVES)
@pytest.mark.parametrize("shape", [lambda x: x, lambda x: [1, x],
                                   lambda x: {"a": ({"b": x},)}])
def test_dumps_canonical_rejects_bad_leaves(leaf, error, shape):
    doc = shape(leaf)
    for dumps in (dumps_canonical, _stdlib_canonical):
        with pytest.raises(error):
            dumps(doc)
    assert _outcome(dumps_canonical, doc) == _outcome(_stdlib_canonical, doc)


@pytest.mark.parametrize("doc", [{1: "a"}, {"a": [{None: 1}]},
                                 {True: 1}, {1.5: 1}, {(1, 2): 1}])
def test_dumps_canonical_rejects_non_str_keys(doc):
    with pytest.raises(TypeError, match="keys must be str"):
        dumps_canonical(doc)


def test_dumps_canonical_writes_plain_values_itself(monkeypatch):
    doc = {"s": "x\xe9", "i": -3, "b": [True, False, None],
           "t": ("a", 2), "e": [{}, [], ()]}
    expected = _stdlib_canonical(doc)

    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps called")

    monkeypatch.setattr(json, "dumps", refuse)
    assert dumps_canonical(doc) == expected
