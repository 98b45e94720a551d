"""Command-line driver: algebra documents in, structured reports out.

Every subcommand reads one JSON algebra document (file argument or
stdin), writes one report to stdout or `--out`, and exits 0 on success,
2 when the input fails to parse or validate, and 1 on usage errors.
`catalog` is the exception: it emits an algebra document so commands
compose through pipes.

Reports are byte-deterministic: same input and flags, same output.
JSON reports follow the schema shipped as `report-schema.json` next to
this module; text mode prints the same values line by line.
"""

import argparse
import functools
import sys

from . import __version__
from .algebras import AlgebraSpec, catalog, catalog_names, validate
from .cochains import CochainScheme, cocycle_basis, graded_cohomology
from .deformations import family_deformation, massey_products, verify_versal
from .families import ParamAlgebra, jacobi_defect, leibniz_defect_sym
from .formats import (
    FormatError,
    algebra_to_document,
    cochain_entries,
    dump_canonical,
    dumps_canonical,
    parse_document,
)
from .koszul import decompose_degree2, koszul_data, uncoupling_report
# Unused here, but kept: bench/tests/test_bench.py checks that tracing
# restores `cli.kernel`.
from .linalg import kernel  # noqa: F401
from .polynomials import format_poly, parse_poly
from .scalars import format_scalar

__all__ = ["main", "entry"]

DEGREE_GUARD_DIM = 9


class UsageError(Exception):
    """Bad flags or argument values; exits with code 1."""


class InputError(Exception):
    """Input that parses as a flag but fails as content; exits with 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process."""
    parser = _Parser(prog="leibcoh",
                     description="Exact Leibniz and Lie cohomology, the "
                                 "symmetric-antisymmetric degree-2 "
                                 "decomposition, and deformation "
                                 "obstructions for algebras given by "
                                 "structure constants.")
    parser.add_argument("--version", action="version",
                        version=f"leibcoh {__version__}")
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="json",
                        help="report format (default json)")
    common.add_argument("--out", metavar="PATH",
                        help="write the report to PATH instead of stdout")
    reads = _Parser(add_help=False, parents=[common])
    reads.add_argument("file", nargs="?", default="-",
                       help="algebra document ('-' or omitted for stdin)")

    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")

    sub.add_parser("validate", parents=[reads],
                   help="check the declared kind; works on concrete and "
                        "parameterized documents")

    coh = sub.add_parser("cohomology", parents=[reads],
                         help="cocycle, coboundary, and cohomology "
                              "dimensions with representatives")
    coh.add_argument("--coeff", choices=("adjoint", "trivial"),
                     default="adjoint")
    coh.add_argument("--deg", type=int, choices=(1, 2, 3), default=2)
    theory = coh.add_mutually_exclusive_group()
    theory.add_argument("--leibniz", dest="theory", action="store_const",
                        const="leibniz", default="leibniz",
                        help="full complex (default)")
    theory.add_argument("--lie", dest="theory", action="store_const",
                        const="lie", help="antisymmetric subcomplex")
    coh.add_argument("--force", action="store_true",
                     help="override the size guard on degree-3 adjoint "
                          "requests for dim > 9")

    sub.add_parser("koszul", parents=[reads],
                   help="invariant symmetric forms and the cubic map: "
                        "kernel, image, nullity, uncoupling")

    dec = sub.add_parser("decompose", parents=[reads],
                         help="degree-2 decomposition into antisymmetric, "
                              "central-symmetric, and coupled blocks")
    dec.add_argument("--coeff", choices=("adjoint", "trivial"),
                     default="adjoint")

    mas = sub.add_parser("massey", parents=[reads],
                         help="order-by-order obstruction ledger for chosen "
                              "degree-2 cocycle generators")
    mas.add_argument("--generators", required=True, metavar="LIST",
                     help="comma-separated 1-based indices into the echelon "
                          "basis of the adjoint 2-cocycle space")
    mas.add_argument("--order", type=int, default=2, metavar="K",
                     help="highest total degree to classify (default 2)")
    mas.add_argument("--force", action="store_true",
                     help="override the size guard for dim > 9")

    ver = sub.add_parser("versal", parents=[reads],
                         help="defect monomials of a parameterized bracket "
                              "against a monomial ideal")
    ver.add_argument("--ideal", default="", metavar="LIST",
                     help="comma-separated parameter monomials, e.g. "
                          "'t*u,t*w,u*w' (default: empty ideal)")

    cat = sub.add_parser("catalog", parents=[common],
                         help="emit a built-in algebra as a document")
    cat.add_argument("name", help="catalog entry name")
    cat.add_argument("params", nargs="*", type=int,
                     help="integer size parameters, where the entry takes "
                          "them")
    return parser


def _read_input(path: str) -> str:
    where = "stdin" if path == "-" else path
    try:
        if path == "-":
            text = sys.stdin.read()
            text.encode("utf-8")  # lone surrogates from an escaping stdin
            return text
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {where}: {exc.strerror}") from exc
    except UnicodeError as exc:
        raise InputError(f"cannot read {where}: not UTF-8 text") from exc


def _parse_input(path: str):
    try:
        return parse_document(_read_input(path))
    except FormatError as exc:
        raise InputError(str(exc)) from exc


def _concrete(obj) -> AlgebraSpec:
    if isinstance(obj, ParamAlgebra):
        raise InputError("this command needs a concrete algebra document, "
                         "but the input declares params; specialize it first")
    return obj


def _echo(spec: AlgebraSpec, report) -> dict:
    return {
        "name": spec.name,
        "dim": spec.dim,
        "kind": spec.kind,
        "kind_verdict": report.kind_verdict,
        "is_antisymmetric": report.is_antisymmetric,
        "is_jacobi": report.is_jacobi,
        "is_leibniz": report.is_leibniz,
        "center_dim": report.c,
        "derived_dim": spec.dim - report.p,
    }


def _family_echo(pa: ParamAlgebra) -> dict:
    return {
        "name": pa.name,
        "dim": pa.dim,
        "kind": pa.kind,
        "params": list(pa.params),
    }


def _checked(spec: AlgebraSpec):
    """Validated structure report, refusing tables that contradict the
    declared kind."""
    report = validate(spec)
    problems = _kind_problems(spec.kind, report)
    if problems:
        raise InputError("; ".join(problems))
    return report


def _kind_problems(kind: str, report) -> list:
    problems = []
    if kind == "lie":
        if not report.is_antisymmetric:
            problems.append("declared lie but the table is not antisymmetric")
        if not report.is_jacobi:
            problems.append("declared lie but the Jacobi identity fails")
    elif not report.is_leibniz:
        problems.append("declared leibniz but the right Leibniz identity "
                        "fails")
    return problems


def _require_lie(report, what: str):
    if report.kind_verdict != "lie":
        raise InputError(f"{what} needs a Lie algebra; this table's verdict "
                         f"is {report.kind_verdict}")


def _guard_degree3(scheme: CochainScheme, force: bool, lie: bool):
    """Refuse a large degree-3 request unless forced, naming the shape
    of the weight-0 coboundary block `graded_cohomology` would build for
    the complex (the whole matrix for an algebra with no toral element),
    counted with no matrix built."""
    dim = scheme.dim
    if dim > DEGREE_GUARD_DIM and not force:
        raise UsageError(
            f"degree-3 adjoint cochains in dim {dim} need a "
            f"{scheme.zero_dim(4, lie)} x {scheme.zero_dim(3, lie)} "
            f"coboundary matrix; rerun with --force to compute it anyway")


def _mono_display(params, monomial) -> str:
    parts = [p if e == 1 else f"{p}^{e}"
             for p, e in zip(params, monomial) if e]
    return "*".join(parts) if parts else "1"


def _defect_where(names, term) -> str:
    spot = ", ".join(names[i] for i in term.where)
    law = "skew-symmetry" if term.law == "skew" else "structure identity"
    return (f"{law} fails at ({spot}) in {names[term.component]}: "
            f"{format_poly(term.poly)}")


def _run_validate(args):
    parsed = _parse_input(args.file)
    if isinstance(parsed, ParamAlgebra):
        if parsed.kind == "lie":
            terms = jacobi_defect(parsed)
        else:
            terms = leibniz_defect_sym(parsed)
        problems = [_defect_where(parsed.basis_names, t) for t in terms]
        echo = _family_echo(parsed)
    else:
        report = validate(parsed)
        problems = _kind_problems(parsed.kind, report)
        echo = _echo(parsed, report)
    section = {"ok": not problems, "problems": problems}
    return echo, {"validate": section}, (0 if not problems else 2)


def _run_cohomology(args):
    spec = _concrete(_parse_input(args.file))
    report = _checked(spec)
    scheme = CochainScheme(spec, args.coeff)
    lie = args.theory == "lie"
    if args.deg == 3 and args.coeff == "adjoint":
        _guard_degree3(scheme, args.force, lie)
    if lie:
        _require_lie(report, "the antisymmetric subcomplex")
    space = graded_cohomology(scheme, args.deg, lie)
    zkey, bkey, hkey = (("zl", "bl", "hl") if args.theory == "leibniz"
                        else ("z", "b", "h"))
    section = {
        "theory": args.theory,
        "coefficients": args.coeff,
        "degree": args.deg,
        f"{zkey}{args.deg}_dim": space.z_dim,
        f"{bkey}{args.deg}_dim": space.b_dim,
        f"{hkey}{args.deg}_dim": space.h_dim,
        "representatives": [cochain_entries(scheme, args.deg, rep)
                            for rep in space.reps],
    }
    return _echo(spec, report), {"cohomology": section}, 0


def _run_koszul(args):
    spec = _concrete(_parse_input(args.file))
    report = _checked(spec)
    _require_lie(report, "the cubic map on invariant forms")
    data = koszul_data(spec)
    unc = uncoupling_report(spec, data)
    section = {
        "invariant_forms_dim": data.forms.dim,
        "p": data.p,
        "center_dim": data.center.dim,
        "im_I_dim": data.image.dim,
        "ker_I_dim": data.kernel.dim,
        "is_I_null": data.is_null,
        "adjoint_coupled_dim": unc.adjoint_coupled_dim,
        "trivial_coupled_dim": unc.trivial_coupled_dim,
        "adjoint_uncoupling": unc.adjoint_uncoupled,
        "trivial_uncoupling": unc.trivial_uncoupled,
    }
    return _echo(spec, report), {"koszul": section}, 0


def _run_decompose(args):
    spec = _concrete(_parse_input(args.file))
    report = _checked(spec)
    _require_lie(report, "the degree-2 decomposition")
    dec = decompose_degree2(spec, args.coeff)
    scheme = dec.scheme
    section = {
        "coefficients": args.coeff,
        "hl2_dim": dec.hl2_dim,
        "h2_dim": dec.h2_dim,
        "symmetric_dim": dec.symmetric_dim,
        "coupled_dim": dec.coupled_dim,
        "h2_reps": [cochain_entries(scheme, 2, rep) for rep in dec.h2_reps],
        "symmetric_reps": [cochain_entries(scheme, 2, rep)
                           for rep in dec.symmetric_basis],
        "coupled_reps": [cochain_entries(scheme, 2, rep)
                         for rep in dec.coupled_reps],
    }
    return _echo(spec, report), {"decompose": section}, 0


def _parse_generators(text: str) -> list:
    indices = []
    for piece in text.split(","):
        piece = piece.strip()
        try:
            indices.append(int(piece))
        except ValueError:
            raise UsageError(f"--generators expects integers, got {piece!r}")
    if not indices:
        raise UsageError("--generators must name at least one cocycle")
    return indices


def _run_massey(args):
    spec = _concrete(_parse_input(args.file))
    report = _checked(spec)
    scheme = CochainScheme(spec, "adjoint")
    _guard_degree3(scheme, args.force, lie=False)
    if args.order < 2:
        raise UsageError("--order must be at least 2")
    indices = _parse_generators(args.generators)
    basis = cocycle_basis(scheme, 2)
    for idx in indices:
        if not 1 <= idx <= len(basis):
            raise UsageError(f"generator index {idx} out of range 1.."
                             f"{len(basis)}")
    generators = [basis[idx - 1] for idx in indices]
    ledger = massey_products(scheme, generators, args.order)
    rows = []
    for rec in ledger.records:
        row = {
            "monomial": list(rec.monomial),
            "display": _mono_display(ledger.params, rec.monomial),
            "degree": rec.degree,
            "status": rec.status,
            "verdict": rec.verdict,
        }
        if rec.class_coords is not None:
            row["class_coords"] = [format_scalar(c) for c in rec.class_coords]
        if rec.witness is not None:
            row["witness"] = cochain_entries(scheme, 2, rec.witness)
        if rec.indeterminacy_dim is not None:
            row["indeterminacy_dim"] = rec.indeterminacy_dim
        if rec.nontrivial_mod_indeterminacy is not None:
            row["nontrivial_mod_indeterminacy"] = \
                rec.nontrivial_mod_indeterminacy
        if rec.blocking:
            row["blocking"] = [_blocking_display(ledger.params, item)
                               for item in rec.blocking]
        rows.append(row)
    section = {
        "coefficients": "adjoint",
        "generators": indices,
        "params": list(ledger.params),
        "order": args.order,
        "zl2_dim": len(basis),
        "hl3_dim": ledger.hl3_dim,
        "ledger": rows,
    }
    return _echo(spec, report), {"massey": section}, 0


def _blocking_display(params, item) -> str:
    left, right = item
    if isinstance(left, str):
        return f"{left} {right}"
    return f"{_mono_display(params, left)} * {_mono_display(params, right)}"


def _parse_ideal(text: str, params) -> list:
    monomials = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            poly = parse_poly(piece, params)
        except ValueError as exc:
            raise UsageError(f"--ideal entry {piece!r}: {exc}")
        items = list(poly.coeffs.items())
        if len(items) != 1 or items[0][1] != 1 or sum(items[0][0]) < 1:
            raise UsageError(f"--ideal entry {piece!r} is not a parameter "
                             f"monomial")
        monomials.append(items[0][0])
    return monomials


def _run_versal(args):
    parsed = _parse_input(args.file)
    if not isinstance(parsed, ParamAlgebra):
        raise InputError("versal needs a parameterized document with a "
                         "params field")
    ideal = _parse_ideal(args.ideal, parsed.params)
    deformation = family_deformation(parsed)
    base = deformation.scheme.spec
    base_report = validate(base)
    problems = _kind_problems(base.kind, base_report)
    if problems:
        raise InputError("the constant part of the table fails its declared "
                         "kind: " + "; ".join(problems))
    report = verify_versal(deformation, ideal)
    scheme = deformation.scheme
    section = {
        "params": list(parsed.params),
        "max_order": deformation.max_order,
        "defect_monomials": [_mono_display(parsed.params, m)
                             for m in sorted(report.defect)],
        "ideal": [_mono_display(parsed.params, m) for m in report.ideal],
        "violations": [
            {"monomial": _mono_display(parsed.params, m),
             "cochain": cochain_entries(scheme, 3, data)}
            for m, data in report.violations
        ],
        "contained": report.ok,
    }
    return _family_echo(parsed), {"versal": section}, 0


def _run_catalog(args):
    try:
        spec = catalog(args.name, *args.params)
    except KeyError:
        options = ", ".join(catalog_names())
        raise UsageError(f"unknown catalog algebra {args.name!r}; options: "
                         f"{options}")
    except ValueError as exc:
        raise UsageError(str(exc))
    return dumps_canonical(algebra_to_document(spec))


def _text_lines(value, prefix, lines):
    if isinstance(value, dict):
        for key, sub in value.items():
            _text_lines(sub, f"{prefix}.{key}" if prefix else key, lines)
    elif isinstance(value, list):
        if not value:
            lines.append(f"{prefix}: (none)")
        else:
            for pos, item in enumerate(value):
                _text_lines(item, f"{prefix}[{pos}]", lines)
    elif value is True or value is False:
        lines.append(f"{prefix}: {'true' if value else 'false'}")
    elif value is None:
        lines.append(f"{prefix}: null")
    else:
        lines.append(f"{prefix}: {value}")


def _write_report(report: dict, fmt: str, write) -> None:
    if fmt == "json":
        dump_canonical(report, write)
        return
    lines = []
    _text_lines(report, "", lines)
    write("\n".join(lines) + "\n")


_RUNNERS = {
    "validate": _run_validate,
    "cohomology": _run_cohomology,
    "koszul": _run_koszul,
    "decompose": _run_decompose,
    "massey": _run_massey,
    "versal": _run_versal,
}


def _write_output(out_path, emit):
    """Hand `emit` the write method of stdout, or of the file at
    `out_path` when one is given."""
    if not out_path:
        emit(sys.stdout.write)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as handle:
            emit(handle.write)
    except OSError as exc:
        raise UsageError(f"cannot write {out_path}: {exc.strerror}") from exc


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "catalog":
            text = _run_catalog(args)
            _write_output(args.out, lambda write: write(text))
            return 0
        echo, sections, code = _RUNNERS[args.command](args)
        report = {"tool": "leibcoh", "version": __version__,
                  "command": args.command, "algebra": echo}
        report.update(sections)
        _write_output(args.out, functools.partial(_write_report, report,
                                                  args.format))
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
