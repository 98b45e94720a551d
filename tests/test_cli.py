"""End-to-end command-line tests, through subprocesses except where a
test needs two requests in one process."""

import contextlib
import copy
import io
import json
import os
import re
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

from leibcoh import cli, cochains
from leibcoh.algebras import catalog
from leibcoh.families import family_catalog
from leibcoh.formats import (algebra_to_document, dumps_canonical,
                             family_to_document)
from tests.test_formats import _versal_family

CLI = [sys.executable, "-m", "leibcoh.cli"]


def run_cli(args, stdin_text=None):
    return subprocess.run(CLI + args, input=stdin_text, capture_output=True,
                          text=True, timeout=300)


def catalog_doc(name, *params):
    result = run_cli(["catalog", name, *map(str, params)])
    assert result.returncode == 0, result.stderr
    return result.stdout


def report_schema():
    text = (resources.files("leibcoh") / "report-schema.json").read_text()
    return json.loads(text)


def check_report(result):
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    jsonschema.validate(report, report_schema())
    return report


def test_catalog_pipes_into_cohomology():
    doc = catalog_doc("diamond_e")
    result = run_cli(["cohomology", "--coeff", "adjoint", "--deg", "2",
                      "--leibniz"], doc)
    report = check_report(result)
    assert report["command"] == "cohomology"
    assert report["algebra"]["name"] == "diamond_e"
    assert report["cohomology"]["hl2_dim"] == 4
    assert report["cohomology"]["zl2_dim"] == 15
    assert report["cohomology"]["bl2_dim"] == 11
    assert len(report["cohomology"]["representatives"]) == 4


def test_koszul_on_g54():
    result = run_cli(["koszul"], catalog_doc("g54"))
    report = check_report(result)
    section = report["koszul"]
    assert section["is_I_null"] is False
    assert section["trivial_uncoupling"] is False
    assert section["adjoint_uncoupling"] is False
    assert section["im_I_dim"] == 1


def test_abelian_trivial_degree_two():
    result = run_cli(["cohomology", "--coeff", "trivial", "--deg", "2"],
                     catalog_doc("abelian", 3))
    report = check_report(result)
    assert report["cohomology"]["zl2_dim"] == 9
    assert report["cohomology"]["bl2_dim"] == 0


def test_lie_theory_dimensions():
    result = run_cli(["cohomology", "--coeff", "trivial", "--deg", "2",
                      "--lie"], catalog_doc("g54"))
    report = check_report(result)
    assert report["cohomology"]["z2_dim"] == 6
    assert report["cohomology"]["h2_dim"] == 3


def test_validate_good_algebra():
    result = run_cli(["validate"], catalog_doc("sl2"))
    report = check_report(result)
    assert report["validate"] == {"ok": True, "problems": []}
    assert report["algebra"]["kind_verdict"] == "lie"


def test_validate_bad_algebra_exits_two():
    doc = json.dumps({
        "dim": 3,
        "kind": "lie",
        "brackets": [
            {"left": "x1", "right": "x2",
             "value": [{"basis": "x3", "coeff": "1"}]},
        ],
    })
    result = run_cli(["validate"], doc)
    assert result.returncode == 2
    report = json.loads(result.stdout)
    jsonschema.validate(report, report_schema())
    assert report["validate"]["ok"] is False
    assert any("antisymmetric" in p for p in report["validate"]["problems"])


def test_validate_parameterized_family():
    doc = dumps_canonical(family_to_document(family_catalog("diamond_family")))
    result = run_cli(["validate"], doc)
    report = check_report(result)
    assert report["validate"] == {"ok": True, "problems": []}
    assert report["algebra"]["params"] == ["lam", "mu"]


def test_family_documents_take_the_concrete_scalar_syntax():
    # "3/4-1/2i" is valid in a concrete document, so in a family too.
    doc = json.dumps({
        "dim": 2,
        "kind": "lie",
        "params": ["t"],
        "brackets": [
            {"left": "x1", "right": "x2",
             "value": [{"basis": "x2", "coeff": "3/4-1/2i"}]},
            {"left": "x2", "right": "x1",
             "value": [{"basis": "x2", "coeff": "-3/4+1/2i"}]},
        ],
    })
    report = check_report(run_cli(["validate"], doc))
    assert report["validate"] == {"ok": True, "problems": []}


def test_validate_parameterized_failure_reports_polynomial():
    doc = json.dumps({
        "dim": 3,
        "kind": "lie",
        "params": ["t"],
        "brackets": [
            {"left": "x1", "right": "x2",
             "value": [{"basis": "x3", "coeff": "t"}]},
            {"left": "x2", "right": "x1",
             "value": [{"basis": "x3", "coeff": "-t"}]},
            {"left": "x1", "right": "x3",
             "value": [{"basis": "x1", "coeff": "1"}]},
            {"left": "x3", "right": "x1",
             "value": [{"basis": "x1", "coeff": "-1"}]},
        ],
    })
    result = run_cli(["validate"], doc)
    assert result.returncode == 2
    report = json.loads(result.stdout)
    assert report["validate"]["ok"] is False
    assert any("t" in p for p in report["validate"]["problems"])


def _bracket(left, right, *value):
    return {"left": left, "right": right,
            "value": [{"basis": k, "coeff": c} for k, c in value]}


LIE_FAMILY_FAILING_BOTH = {"dim": 3, "kind": "lie", "params": ["s", "t"],
                           "brackets": [
    _bracket("x1", "x2", ("x3", "t")),
    _bracket("x2", "x1", ("x3", "1-t")),
    _bracket("x1", "x3", ("x1", "s"), ("x2", "1")),
    _bracket("x3", "x1", ("x1", "-s"), ("x2", "-1")),
    _bracket("x2", "x3", ("x1", "s*t")),
    _bracket("x3", "x2", ("x1", "-s*t")),
    _bracket("x3", "x3", ("x2", "s^2")),
]}
LEIBNIZ_FAMILY_FAILING = {"dim": 2, "kind": "leibniz", "params": ["t"],
                          "brackets": [
    _bracket("x1", "x1", ("x2", "t")),
    _bracket("x2", "x1", ("x2", "1+i*t")),
    _bracket("x1", "x2", ("x1", "t^2")),
]}
CONCRETE_NOT_ANTISYMMETRIC = {"dim": 3, "kind": "lie", "brackets": [
    _bracket("x1", "x2", ("x3", "1")),
    _bracket("x2", "x1", ("x3", "1")),
    _bracket("x3", "x3", ("x1", "1/2")),
    _bracket("x1", "x3", ("x1", "1")),
    _bracket("x3", "x1", ("x1", "-1")),
]}
SKEW = "skew-symmetry fails at"
IDENTITY = "structure identity fails at"


@pytest.mark.parametrize("doc,problems", [
    (LIE_FAMILY_FAILING_BOTH, [
        f"{SKEW} (x1, x2) in x3: 1",
        f"{SKEW} (x3, x3) in x2: s^2",
        f"{IDENTITY} (x1, x1, x3) in x3: -1",
        f"{IDENTITY} (x1, x2, x1) in x1: -s",
        f"{IDENTITY} (x1, x2, x1) in x2: -1",
        f"{IDENTITY} (x1, x2, x3) in x2: s^2*t",
        f"{IDENTITY} (x1, x2, x3) in x3: -s*t",
        f"{IDENTITY} (x1, x3, x1) in x3: 1",
        f"{IDENTITY} (x1, x3, x2) in x2: -s^2*t",
        f"{IDENTITY} (x1, x3, x2) in x3: s*t",
        f"{IDENTITY} (x1, x3, x3) in x3: -s^2*t",
        f"{IDENTITY} (x2, x1, x2) in x1: -s*t",
        f"{IDENTITY} (x2, x1, x3) in x2: s^2 - s^2*t",
        f"{IDENTITY} (x2, x1, x3) in x3: -s + s*t",
        f"{IDENTITY} (x2, x2, x3) in x3: -s*t",
        f"{IDENTITY} (x2, x3, x1) in x2: -s^2 + s^2*t",
        f"{IDENTITY} (x2, x3, x1) in x3: s - s*t",
        f"{IDENTITY} (x2, x3, x2) in x3: s*t",
        f"{IDENTITY} (x3, x1, x2) in x2: -s^2*t",
        f"{IDENTITY} (x3, x1, x2) in x3: -s*t",
        f"{IDENTITY} (x3, x1, x3) in x3: -s^2 + s^2*t",
        f"{IDENTITY} (x3, x2, x1) in x2: -s^2 + s^2*t",
        f"{IDENTITY} (x3, x2, x1) in x3: s*t",
        f"{IDENTITY} (x3, x3, x1) in x3: s^2 - s^2*t",
        f"{IDENTITY} (x3, x3, x3) in x1: s^3*t",
    ]),
    (LEIBNIZ_FAMILY_FAILING, [
        f"{IDENTITY} (x1, x1, x1) in x1: -t^3",
        f"{IDENTITY} (x1, x1, x2) in x2: -2*t^3",
        f"{IDENTITY} (x1, x2, x1) in x1: -t^2 - i*t^3",
        f"{IDENTITY} (x1, x2, x1) in x2: t^3",
        f"{IDENTITY} (x2, x1, x2) in x2: -t^2 - i*t^3",
    ]),
    (CONCRETE_NOT_ANTISYMMETRIC, [
        "declared lie but the table is not antisymmetric",
        "declared lie but the Jacobi identity fails",
    ]),
], ids=["lie_family", "leibniz_family", "concrete"])
def test_validate_pins_every_problem_in_order(doc, problems):
    # Skew residues before identity defects, each in index order, with
    # the polynomial text exactly as the report prints it.
    result = run_cli(["validate"], json.dumps(doc))
    assert result.returncode == 2, result.stderr
    report = json.loads(result.stdout)
    jsonschema.validate(report, report_schema())
    assert report["validate"] == {"ok": False, "problems": problems}


def test_parse_error_names_line():
    result = run_cli(["validate"], '{\n  "dim": 2,\n  "basis": [,]\n}')
    assert result.returncode == 2
    assert "line 3" in result.stderr


def test_parse_error_names_field():
    result = run_cli(["validate"], json.dumps({"dim": 2, "bracket": []}))
    assert result.returncode == 2
    assert "field 'bracket'" in result.stderr


def _one_bracket_doc(left="x1", right="x2", basis="x1", coeff="1",
                     params=None):
    doc = {"dim": 2, "brackets": [{"left": left, "right": right,
                                   "value": [{"basis": basis, "coeff": coeff}]}]}
    if params is not None:
        doc["params"] = params
    return json.dumps(doc)


@pytest.mark.parametrize("text,where", [
    (_one_bracket_doc(left=["x1"]), "field 'brackets[0].left'"),
    (_one_bracket_doc(right={"x": 1}), "field 'brackets[0].right'"),
    (_one_bracket_doc(basis=["x1"]), "field 'brackets[0].value[0].basis'"),
    ("[" * 100000 + "]" * 100000, "nested too deeply"),
    (_one_bracket_doc(coeff="(" * 3000 + "t" + ")" * 3000, params=["t"]),
     "field 'brackets[0].value[0].coeff'"),
    (_one_bracket_doc(coeff="0", params=[""]), "field 'params[0]'"),
    (_one_bracket_doc(coeff="0", params=["t", "1"]), "field 'params[1]'"),
    (_one_bracket_doc(coeff="0", params=["a b"]), "field 'params[0]'"),
    (_one_bracket_doc(coeff="0", params=["t", "\u03bb"]),
     "field 'params[1]'"),
], ids=["list_left", "object_right", "list_basis", "deep_json", "deep_coeff",
        "empty_param", "number_param", "spaced_param", "non_ascii_param"])
def test_malformed_documents_exit_two_without_traceback(text, where):
    result = run_cli(["validate"], text)
    assert result.returncode == 2
    assert where in result.stderr
    assert "Traceback" not in result.stderr


def _node_paths(doc, path=()):
    """The path of every node of a JSON document, the root () first."""
    yield path
    if isinstance(doc, (dict, list)):
        keys = doc.keys() if isinstance(doc, dict) else range(len(doc))
        for key in keys:
            yield from _node_paths(doc[key], path + (key,))


_DELETE = object()


def _mutated_text(doc, path, value):
    """The JSON text of doc with the node at path replaced by value, or
    deleted when value is _DELETE (the empty text for the root)."""
    if not path:
        return "" if value is _DELETE else json.dumps(value)
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return json.dumps(doc)


def _validate_in_process(text):
    """(exit code, stderr) of `validate` on text, run in this process."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["validate"])
    finally:
        sys.stdin = saved
    return code, err.getvalue()


def test_one_mutated_node_exits_zero_or_two_and_names_where():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    algebra, family = (json.loads(dumps_canonical(doc)) for doc in (
        algebra_to_document(catalog("diamond_e")),
        family_to_document(family_catalog("diamond_family"))))
    # Leaves near the documents' own values reach past the first check.
    near = st.sampled_from(["e1", "e4", "e5", "x1", "lam", "mu", "nu", "1",
                            "-1", "0", "1/2i", "lam^2", "lie", "leibniz",
                            "", 0, 1, 4, 5, -1, 10 ** 9])
    leaves = st.one_of(near, st.one_of(
        st.none(), st.booleans(), st.integers(), st.text(max_size=8),
        st.floats(allow_nan=False, allow_infinity=False)))
    keys = st.one_of(near.filter(lambda x: isinstance(x, str)),
                     st.text(max_size=6))
    values = st.one_of(leaves, st.recursive(
        leaves, lambda kids: st.one_of(st.lists(kids, max_size=3),
                                       st.dictionaries(keys, kids,
                                                       max_size=3)),
        max_leaves=8))

    @hypothesis.settings(deadline=None, derandomize=True, max_examples=300)
    @hypothesis.given(st.sampled_from([algebra, family]), st.data())
    def check(doc, data):
        # A depth first, so that the few top-level fields are mutated as
        # often as the many bracket entries.
        paths = list(_node_paths(doc))
        depth = data.draw(st.integers(0, max(map(len, paths))))
        path = data.draw(st.sampled_from([p for p in paths
                                          if len(p) == depth]))
        value = data.draw(st.one_of(st.just(_DELETE), values))
        code, err = _validate_in_process(_mutated_text(doc, path, value))
        assert code in (0, 2), (code, err)
        if err:
            assert err.startswith("error: "), err
            assert "Traceback" not in err
            assert (re.search(r"\bline \d+", err) or "field '" in err
                    or "document must be a JSON object" in err), err

    check()


ABELIAN_AFTER_REPEAT = ('{"dim": 2, "brackets": [{"left": "x1", "right": "x2",'
                        ' "value": [{"basis": "x2", "coeff": "1"}]}],'
                        ' "brackets": []}')
VALUE_REPEAT = ('{"dim": 2, "brackets": [{"left": "x1", "right": "x2",'
                ' "value": [{"basis": "x2", "coeff": "1"}], "value": []}]}')
FAMILY_REPEAT = ('{"dim": 2, "params": ["t"], "brackets": [{"left": "x1",'
                 ' "right": "x2", "value": [{"basis": "x2", "coeff": "t",'
                 ' "coeff": "0"}]}]}')


@pytest.mark.parametrize("text,key", [
    (ABELIAN_AFTER_REPEAT, "brackets"),
    (VALUE_REPEAT, "brackets[0].value"),
    (FAMILY_REPEAT, "brackets[0].value[0].coeff"),
], ids=["top_level", "bracket_entry", "family"])
def test_repeated_json_fields_exit_two(text, key):
    # json.loads keeps the last value of a repeated key, so each of these
    # would otherwise validate with a bracket silently dropped.
    result = run_cli(["validate"], text)
    assert result.returncode == 2
    assert f"field '{key}': duplicate field" in result.stderr
    assert "Traceback" not in result.stderr


def test_deeply_nested_ideal_entry_is_a_usage_error():
    nested = "(" * 3000 + "t" + ")" * 3000
    result = run_cli(["versal", "--ideal", nested], _versal_doc())
    assert result.returncode == 1
    assert "--ideal entry" in result.stderr
    assert "nested too deeply" in result.stderr
    assert "Traceback" not in result.stderr


def test_unknown_catalog_name_lists_options():
    result = run_cli(["catalog", "nosuch"])
    assert result.returncode == 1
    assert "abelian" in result.stderr
    assert "diamond_e" in result.stderr


def test_catalog_rejects_an_empty_abelian_algebra():
    # A dim 0 document is one that every other subcommand rejects.
    result = run_cli(["catalog", "abelian", "0"])
    assert result.returncode == 1
    assert "abelian dimension must be at least 1" in result.stderr
    assert result.stdout == ""
    assert "Traceback" not in result.stderr


def test_usage_errors_exit_one():
    assert run_cli(["nosuchcommand"]).returncode == 1
    assert run_cli(["cohomology", "--deg", "7"],
                   catalog_doc("sl2")).returncode == 1
    assert run_cli(["massey", "--generators", "1", "--order", "1"],
                   catalog_doc("sl2")).returncode == 1
    assert run_cli(["massey", "--generators", "abc"],
                   catalog_doc("sl2")).returncode == 1
    removed = run_cli(["cohomology", "--threads", "2"], catalog_doc("sl2"))
    assert removed.returncode == 1
    assert "unrecognized arguments" in removed.stderr
    assert "--threads" in removed.stderr


def test_usage_error_after_a_good_request_exits_one(monkeypatch, capsys):
    # The parser is built once per process and serves every request.
    doc = catalog_doc("sl2")
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    assert cli.main(["validate"]) == 0
    assert cli.main(["cohomology", "--deg", "7"]) == 1
    assert "invalid choice" in capsys.readouterr().err
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    assert cli.main(["cohomology", "--deg", "1"]) == 0
    assert cli.build_parser() is cli.build_parser()


def test_non_utf8_file_exits_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{")
    result = run_cli(["validate", str(bad)])
    assert result.returncode == 2
    assert result.stderr == f"error: cannot read {bad}: not UTF-8 text\n"


@pytest.mark.parametrize("encoding", ["utf-8:strict", "utf-8:surrogateescape"])
def test_non_utf8_stdin_exits_two(encoding):
    # A strict stdin fails to decode; an escaping one passes the bytes on
    # as lone surrogates, which the report could not be written with.
    env = dict(os.environ, PYTHONIOENCODING=encoding)
    doc = b'{"dim": 1, "kind": "lie", "basis": ["\xff"], "brackets": []}'
    result = subprocess.run(CLI + ["cohomology", "--deg", "1"], input=doc,
                            capture_output=True, env=env, timeout=300)
    assert result.returncode == 2
    assert result.stderr == b"error: cannot read stdin: not UTF-8 text\n"
    assert result.stdout == b""


def test_unwritable_out_exits_one(tmp_path):
    target = tmp_path / "missing" / "x.json"
    for argv, stdin_text in ((["catalog", "sl2"], None),
                             (["validate"], catalog_doc("sl2"))):
        result = run_cli(argv + ["--out", str(target)], stdin_text)
        assert result.returncode == 1
        assert result.stderr == (f"error: cannot write {target}: "
                                 f"No such file or directory\n")
        assert result.stdout == ""
    assert not target.parent.exists()


def test_reports_are_byte_deterministic():
    doc = catalog_doc("diamond_e")
    first = run_cli(["decompose", "--coeff", "adjoint"], doc)
    second = run_cli(["decompose", "--coeff", "adjoint"], doc)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    text1 = run_cli(["decompose", "--coeff", "adjoint", "--format", "text"],
                    doc)
    text2 = run_cli(["decompose", "--coeff", "adjoint", "--format", "text"],
                    doc)
    assert text1.stdout == text2.stdout
    assert text1.stdout != first.stdout


def test_text_mode_contains_same_numbers():
    doc = catalog_doc("diamond_e")
    result = run_cli(["cohomology", "--deg", "2", "--format", "text"], doc)
    assert result.returncode == 0
    assert "cohomology.hl2_dim: 4" in result.stdout
    assert "cohomology.zl2_dim: 15" in result.stdout
    assert "algebra.center_dim: 1" in result.stdout


def test_out_writes_file(tmp_path):
    doc = catalog_doc("heisenberg", 1)
    target = tmp_path / "report.json"
    result = run_cli(["koszul", "--out", str(target)], doc)
    assert result.returncode == 0
    assert result.stdout == ""
    report = json.loads(target.read_text())
    jsonschema.validate(report, report_schema())
    assert report["koszul"]["is_I_null"] is True


def test_decompose_matches_koszul_shape():
    doc = catalog_doc("g54")
    adjoint = check_report(run_cli(["decompose", "--coeff", "adjoint"], doc))
    trivial = check_report(run_cli(["decompose", "--coeff", "trivial"], doc))
    assert adjoint["decompose"]["hl2_dim"] == 17
    assert adjoint["decompose"]["h2_dim"] == 9
    assert adjoint["decompose"]["coupled_dim"] == 2
    assert trivial["decompose"]["hl2_dim"] == 7
    assert trivial["decompose"]["h2_dim"] == 3
    assert trivial["decompose"]["coupled_dim"] == 1
    assert len(adjoint["decompose"]["coupled_reps"]) == 2


def test_massey_ledger_structure():
    doc = catalog_doc("diamond_e")
    result = run_cli(["massey", "--generators", "1,2", "--order", "2"], doc)
    report = check_report(result)
    section = report["massey"]
    assert section["generators"] == [1, 2]
    assert section["params"] == ["x1", "x2"]
    assert section["zl2_dim"] == 15
    assert section["hl3_dim"] == 7
    monomials = [tuple(row["monomial"]) for row in section["ledger"]]
    assert monomials == [(0, 2), (1, 1), (2, 0)]
    for row in section["ledger"]:
        assert row["status"] == "defined"
        assert row["verdict"] in ("zero", "coboundary", "nontrivial")
        if row["verdict"] == "nontrivial":
            assert "witness" not in row
        else:
            assert "witness" in row
    again = run_cli(["massey", "--generators", "1,2", "--order", "2"], doc)
    assert again.stdout == result.stdout


def test_massey_generator_index_out_of_range():
    doc = catalog_doc("diamond_e")
    result = run_cli(["massey", "--generators", "99"], doc)
    assert result.returncode == 1
    assert "out of range" in result.stderr


def _versal_doc():
    return dumps_canonical(family_to_document(_versal_family()))


def test_versal_empty_ideal_reports_nonzero_defect():
    result = run_cli(["versal"], _versal_doc())
    report = check_report(result)
    section = report["versal"]
    assert section["params"] == ["t", "s", "u", "w"]
    assert section["max_order"] == 1
    assert section["contained"] is False
    assert section["defect_monomials"] == [
        "u*w", "u^2", "s*w", "s*u", "t*w", "t*u", "t*s"]
    assert [v["monomial"] for v in section["violations"]] == \
        section["defect_monomials"]
    assert all(v["cochain"] for v in section["violations"])


def test_versal_eight_generator_ideal_leaves_four_violations():
    ideal = "t*u,t*w,u*w,t^2*s,t*s^2*u,t*s^2*w,s^2*u*w,s^2*w^2"
    result = run_cli(["versal", "--ideal", ideal], _versal_doc())
    report = check_report(result)
    section = report["versal"]
    assert section["contained"] is False
    assert [v["monomial"] for v in section["violations"]] == [
        "u^2", "s*w", "s*u", "t*s"]


def test_versal_needs_parameterized_document():
    result = run_cli(["versal"], catalog_doc("diamond_e"))
    assert result.returncode == 2
    assert "params" in result.stderr


def test_versal_rejects_bad_ideal_entry():
    result = run_cli(["versal", "--ideal", "t+s"], _versal_doc())
    assert result.returncode == 1
    assert "monomial" in result.stderr


def test_versal_takes_a_huge_power_of_a_parameter():
    # The ideal entry is one monomial, however large its exponent; a
    # power by repeated products would not finish.
    doc = dumps_canonical(family_to_document(family_catalog("diamond_family")))
    result = subprocess.run(CLI + ["versal", "--ideal", "lam^99999999"],
                            input=doc, capture_output=True, text=True,
                            timeout=10)
    report = check_report(result)
    assert report["versal"]["ideal"] == ["lam^99999999"]
    assert report["versal"]["contained"] is True


def _limit_address_space():
    import resource
    limit = 2 * 1000 ** 3
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.skipif(sys.platform != "linux",
                    reason="the address-space limit is a Linux rlimit")
def test_a_huge_dim_with_a_short_basis_exits_two():
    # The default names are built only when the document gives none, so
    # a dim of 10^9 beside four names is refused at once.  The child runs
    # under a 2 GB address-space limit and a timeout, so a regression
    # fails the test instead of exhausting the machine.
    doc = json.loads(catalog_doc("diamond_e"))
    doc["dim"] = 10 ** 9
    result = subprocess.run(CLI + ["validate"], input=json.dumps(doc),
                            capture_output=True, text=True, timeout=10,
                            preexec_fn=_limit_address_space)
    assert result.returncode == 2
    assert ("field 'basis': expected 1000000000 distinct names"
            in result.stderr)
    assert "Traceback" not in result.stderr


def test_concrete_commands_reject_parameterized_input():
    doc = dumps_canonical(family_to_document(family_catalog("diamond_family")))
    result = run_cli(["cohomology"], doc)
    assert result.returncode == 2
    assert "concrete" in result.stderr


def test_lie_subcomplex_needs_lie_algebra():
    doc = json.dumps({
        "dim": 2,
        "kind": "leibniz",
        "brackets": [
            {"left": "x1", "right": "x1",
             "value": [{"basis": "x2", "coeff": "1"}]},
        ],
    })
    leib = run_cli(["cohomology", "--deg", "2", "--leibniz"], doc)
    assert leib.returncode == 0
    lie = run_cli(["cohomology", "--deg", "2", "--lie"], doc)
    assert lie.returncode == 2
    assert "Lie" in lie.stderr


def test_degree_guard_and_force():
    doc = catalog_doc("abelian", 10)
    blocked = run_cli(["cohomology", "--deg", "3", "--coeff", "adjoint"], doc)
    assert blocked.returncode == 1
    assert "--force" in blocked.stderr
    trivial = run_cli(["cohomology", "--deg", "3", "--coeff", "trivial"], doc)
    assert trivial.returncode == 0
    forced = run_cli(["cohomology", "--deg", "3", "--coeff", "adjoint",
                      "--force"], doc)
    assert forced.returncode == 0
    report = json.loads(forced.stdout)
    assert report["cohomology"]["zl3_dim"] == 10000


def test_degree_guard_names_the_matrix_its_route_builds():
    # Counted, not built: the weight-0 block of a toral input, of the
    # antisymmetric complex (not its whole d*C(d,4) x d*C(d,3), 29120 x
    # 8960) for --lie, and of the full complex for a Leibniz cohomology
    # request and for massey's obstruction context alike.
    gl4 = catalog_doc("gl", 4)
    for argv, shape in ((["cohomology", "--deg", "3", "--lie"],
                         "1032 x 396"),
                        (["cohomology", "--deg", "3"], "31504 x 2716"),
                        (["massey", "--generators", "1"],
                         "31504 x 2716")):
        blocked = run_cli(argv, gl4)
        assert blocked.returncode == 1, argv
        assert f"need a {shape} coboundary matrix" in blocked.stderr, argv
        assert "--force" in blocked.stderr
    blocked = run_cli(["cohomology", "--deg", "3"], catalog_doc("abelian", 10))
    assert "need a 100000 x 10000 coboundary matrix" in blocked.stderr


def test_degree_guard_refuses_before_any_block_is_built(monkeypatch, capsys):
    # Both complexes' weight-0 blocks are counted, never built, on the
    # way to a refusal, and the antisymmetric count lists no cochain:
    # on the torus-free abelian 40, whose every tuple has weight 0,
    # listing them would hold 40 * C(40, 4) keys just to refuse.
    def forbidden(*args, **kwargs):
        raise AssertionError("a coboundary block was built")

    monkeypatch.setattr(cochains.CochainScheme, "_block", forbidden)
    monkeypatch.setattr(cochains.CochainScheme, "zero_wedges", forbidden)
    monkeypatch.setattr(cochains, "lie_delta_matrix", forbidden)
    gl4, abelian40 = catalog_doc("gl", 4), catalog_doc("abelian", 40)
    for doc, argv, shape in (
            (gl4, ["cohomology", "--deg", "3", "--lie"], "1032 x 396"),
            (gl4, ["cohomology", "--deg", "3"], "31504 x 2716"),
            (abelian40, ["cohomology", "--deg", "3", "--lie"],
             "3655600 x 395200")):
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        assert cli.main(argv) == 1, argv
        assert f"need a {shape} coboundary matrix" in capsys.readouterr().err


def test_version_flag():
    result = run_cli(["--version"])
    assert result.returncode == 0
    assert "leibcoh" in result.stdout


def test_catalog_round_trips_through_validate():
    for name, params in (("gl", (2,)), ("sl2_plus_abelian", (2,))):
        doc = catalog_doc(name, *params)
        result = run_cli(["validate"], doc)
        report = check_report(result)
        assert report["validate"]["ok"] is True


class CountingWriter(io.StringIO):
    """A stdout that counts the calls to write."""

    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("name,params,argv,chunks", [
    ("heisenberg", (3,), ["cohomology", "--deg", "3"], "several"),
    ("diamond_e", (), ["cohomology", "--deg", "2"], "one"),
])
def test_chunked_report_is_the_canonical_text(monkeypatch, tmp_path, name,
                                              params, argv, chunks):
    doc = catalog_doc(name, *params)
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    stdout = CountingWriter()
    monkeypatch.setattr("sys.stdout", stdout)
    assert cli.main(argv) == 0
    text = stdout.getvalue()
    if chunks == "one":
        assert stdout.writes == 1
    else:
        assert stdout.writes >= 3, stdout.writes
    report = json.loads(text)
    assert text == dumps_canonical(report)
    assert text == json.dumps(report, indent=2, ensure_ascii=True,
                              allow_nan=False) + "\n"
    target = tmp_path / "report.json"
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    assert cli.main(argv + ["--out", str(target)]) == 0
    with open(target, encoding="utf-8", newline="") as handle:
        assert handle.read() == text
