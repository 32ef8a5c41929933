"""Batch command-line interface.

Subcommands: ``correlator`` (one exact value or a summed series),
``intersect`` (genus-0 cotangent integrals), ``transform`` (dump the
coordinate change and its inverse), ``potential`` (dump a generating
potential), ``validate`` (model diagnostics) and ``verify`` (identity
suites).  Exit codes: 0 success, 1 identity failure, 2 input error, 141 stdout
closed by its reader.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from pathlib import Path

from .engine import CorrelatorEngine, PrimaryTable
from .exact import GwdescError, format_rational
from .fixtures import FIXTURE_NAMES, genus1_taut_table, load_fixture
from .geometry import GeometryModel, load_geometry
from .moduli import TautTable, psi_integral_genus0
from .phase import (
    build_transform,
    potential_modified,
    potential_primary,
    potential_standard,
    summed_correlator,
)
from .verify import SUITE_NAMES, run_suite

_TOKEN = re.compile(r"^tau\((\d+)(?:,(\d+))?\):([A-Za-z0-9_]+)$")


class CliError(GwdescError, ValueError):
    pass


def parse_insertions(text: str) -> list[tuple[int, int, str]]:
    """Parse "tau(d[,e]):label" tokens separated by commas."""
    tokens = re.split(r",(?=\s*tau\()", text.strip())
    out = []
    for pos, token in enumerate(tokens, start=1):
        token = token.strip()
        match = _TOKEN.match(token)
        if not match:
            raise CliError(f"insertion {pos} ({token!r}) is not of the form tau(d[,e]):label")
        d, e, label = match.groups()
        out.append((int(d), int(e) if e is not None else 0, label))
    return out


def parse_beta(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise CliError(f"curve class {text!r} must be a comma-separated integer vector") from exc


def _non_negative(text: str) -> int:
    """Argparse type of verify's window and count options: a negative one would run no check."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _at_least(low: int):
    """Argparse type of an option below whose bound ``low`` the command computes nothing:
    a verify suite runs no check, a potential dump lists no coefficient."""

    def parse(text: str) -> int:
        value = _non_negative(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"expected at least {low}, got {text!r}: a smaller value computes nothing")
        return value

    return parse


class _Parser(argparse.ArgumentParser):
    """Reports a parse-time input error as argparse's one error line, without the usage block."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


class _MissingPrimaryTable(PrimaryTable):
    """A file model's table when no ``--primary`` was given.

    Any lookup (always at a nonzero curve class) is an input error, so a
    value that needs table data never prints as a silent 0.
    """

    def value(self, beta, ia, ib, ic):
        raise CliError(
            f"the query needs three-point values at curve class {list(beta)}, but no --primary "
            "table was given (pass a table file; '[]' declares an empty one)"
        )


def resolve_model(args) -> tuple[GeometryModel, PrimaryTable, TautTable | None]:
    name = args.model
    if name in FIXTURE_NAMES:
        if getattr(args, "primary", None):
            raise CliError(f"--primary applies to geometry files only; fixture {name} ships its own table")
        fixture = load_fixture(name)
        model, primary = fixture.model, fixture.primary
        taut = genus1_taut_table()
    else:
        model = load_geometry(name)
        primary = (
            PrimaryTable.from_file(model, args.primary)
            if getattr(args, "primary", None)
            else _MissingPrimaryTable(model)
        )
        taut = None
    if getattr(args, "taut", None):
        taut = TautTable.from_file(args.taut)
    return model, primary, taut


def _evaluate_query(engine: CorrelatorEngine, genus: int, beta, triples) -> object:
    if any(e for _, e, _ in triples):
        if genus != 0:
            raise CliError("insertions with pulled-back powers are genus-0 only")
        return engine.generalized(beta, triples)
    return engine.descendant(genus, beta, [(d, cls) for d, _, cls in triples])


def cmd_correlator(args) -> int:
    model, primary, taut = resolve_model(args)
    engine = CorrelatorEngine(model, primary, taut=taut)
    insertions = parse_insertions(args.ins)
    triples = [(d, e, model.class_from_map({label: 1})) for d, e, label in insertions]
    if args.beta is not None:
        print(format_rational(_evaluate_query(engine, args.genus, parse_beta(args.beta), triples)))
        return 0
    if args.genus != 0:
        raise CliError("summed series are genus-0 only")
    print(summed_correlator(engine, triples, model.policy(args.qmax)))
    return 0


def cmd_intersect(args) -> int:
    try:
        exponents = [int(part) for part in args.psi.split(",")]
    except ValueError:
        raise CliError(f"--psi expects comma-separated integers, got {args.psi!r}") from None
    if len(exponents) != args.n:
        raise CliError(f"need exactly {args.n} exponents, got {len(exponents)}")
    print(format_rational(psi_integral_genus0(exponents)))
    return 0


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_transform(args) -> int:
    model, primary, taut = resolve_model(args)
    engine = CorrelatorEngine(model, primary, taut=taut)
    policy = model.policy(args.qmax, max_descendant=args.dmax)
    transform = build_transform(engine, policy)
    inverse = transform.checked_inverse()  # None for a faulty T, which is not an input error
    if inverse is None:
        print("error: inverse does not compose to the identity", file=sys.stderr)
        return 1
    payload = {
        "model": model.name,
        "max_beta_degree": args.qmax,
        "max_descendant": args.dmax,
        "transform": transform.to_records(model),
        "inverse": inverse.to_records(model),
    }
    _emit(payload, args.out)
    return 0


def cmd_potential(args) -> int:
    model, primary, taut = resolve_model(args)
    engine = CorrelatorEngine(model, primary, taut=taut)
    policy = model.policy(args.qmax, max_x_degree=args.xdeg, max_descendant=args.dmax)
    builder = {
        "standard": potential_standard,
        "modified": potential_modified,
        "primary": potential_primary,
    }[args.which]
    potential = builder(engine, policy)
    payload = {
        "model": model.name,
        "which": args.which,
        "max_beta_degree": args.qmax,
        "max_x_degree": args.xdeg,
        "max_descendant": args.dmax,
        "coefficients": potential.to_records(model),
    }
    _emit(payload, args.out)
    return 0


def cmd_validate(args) -> int:
    if args.model in FIXTURE_NAMES:
        model = load_fixture(args.model).model
    else:
        with open(args.model, encoding="utf-8") as handle:
            model = GeometryModel.from_dict(json.load(handle))
    report = model.validate()
    print(report)
    return 0 if report.ok else 2


def cmd_verify(args) -> int:
    model, primary, _ = resolve_model(args)
    names = list(SUITE_NAMES) if args.suite == "all" else [args.suite]
    overall = True
    for name in names:
        result = run_suite(
            name,
            model,
            primary,
            qmax=args.qmax,
            xdeg=args.xdeg,
            dmax=args.dmax,
            nmax=args.nmax,
            count=args.count,
            seed=args.seed,
        )
        print(result.render())
        overall = overall and result.ok
    return 0 if overall else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gwdesc",
        description="Exact genus-zero descendant correlators from finite quantum-cohomology input.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_flags(p):
        p.add_argument("--model", required=True, help="fixture name (P1, P2, point) or geometry JSON path")
        p.add_argument(
            "--primary",
            help="primary-table JSON path; geometry files only (an error with a fixture name); "
            "without it, a query that needs table values is an error",
        )
        p.add_argument("--taut", help="tautological-table JSON path")

    p = sub.add_parser("correlator", help="evaluate one correlator or its summed series")
    add_model_flags(p)
    where = p.add_mutually_exclusive_group(required=True)
    where.add_argument("--beta", help="curve class, e.g. '2' or '1,0'")
    where.add_argument("--qmax", type=int, help="sum the series up to this class degree instead")
    p.add_argument("--genus", type=int, default=0)
    p.add_argument("--ins", required=True, help="insertions, e.g. 'tau(1):one,tau(0,2):h'")
    p.set_defaults(func=cmd_correlator)

    p = sub.add_parser("intersect", help="genus-0 cotangent-power integral")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--psi", required=True, help="comma-separated exponents")
    p.set_defaults(func=cmd_intersect)

    p = sub.add_parser("transform", help="dump the coordinate change and its inverse")
    add_model_flags(p)
    p.add_argument("--qmax", type=int, default=1)
    p.add_argument("--dmax", type=int, default=2)
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("potential", help="dump a generating potential")
    add_model_flags(p)
    p.add_argument("--which", choices=("standard", "modified", "primary"), default="standard")
    p.add_argument("--qmax", type=int, default=2)
    p.add_argument("--xdeg", type=_at_least(3), default=3)
    p.add_argument("--dmax", type=int, default=1)
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_potential)

    p = sub.add_parser("validate", help="run model diagnostics")
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("verify", help="run identity suites")
    add_model_flags(p)
    p.add_argument("--suite", default="all", choices=SUITE_NAMES + ("all",))
    p.add_argument("--qmax", type=_non_negative, default=3)
    p.add_argument("--xdeg", type=_at_least(3), default=4)
    p.add_argument("--dmax", type=_non_negative, default=3)
    p.add_argument("--nmax", type=_at_least(3), default=7)
    p.add_argument("--count", type=_at_least(1), default=200)
    p.add_argument("--seed", type=int, default=20240801)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader closed stdout (as `| head` does): no input error, so no message; the
        # rest of the output goes to devnull, where the interpreter's final flush succeeds
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (OSError, ValueError):  # a stdout without a descriptor (an in-process capture)
            pass
        return 141  # 128 + SIGPIPE, the code of a shell pipeline stage killed by a closed pipe
    except (GwdescError, ValueError, OSError) as exc:
        # plain ValueErrors (the engine's class and genus checks among them) are input errors too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: the reduction is deeper than the interpreter stack allows", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
