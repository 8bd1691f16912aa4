"""The ``isoprod`` command line, also run as ``python -m isoprod``: a click
group whose subcommands read a datum document, a built-in example or a
search spec, and print the report that ``isoprod.cli`` builds.

Exit codes: 0 success, 1 datum validation failure (the report is still
emitted, with a null Hodge diamond when a generating vector is invalid), 2
parse/schema error, 3 internal consistency or theorem violation, or any
other unexpected error.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Callable, NoReturn, Sequence

import click

from . import docio
from .cli import build_report, render_text
from .errors import ConsistencyError, IsoprodError, SchemaError, TheoremViolationError
from .examples import EXAMPLE_NAMES, build_example

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_SCHEMA = 2
EXIT_INTERNAL = 3


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        click.echo(json.dumps(report, indent=2))
    else:
        click.echo(render_text(report), nl=False)


def _exit_code(report: dict) -> int:
    if "validation" in report and not report["validation"]["ok"]:
        return EXIT_INVALID
    return EXIT_OK


def _run(build: Callable[[], dict], fmt: str) -> NoReturn:
    """Print the report that ``build`` returns and exit with its code; any
    error ends in ``_fail``."""
    try:
        report = build()
        _emit(report, fmt)
    except Exception as exc:
        _fail(exc)
    sys.exit(_exit_code(report))


def _fail(exc: Exception) -> NoReturn:
    """Report an error on one line, without a traceback, and exit with its
    code: consistency and theorem violations are internal, the other typed
    errors are schema errors, and any failure outside the typed errors is a
    bug, reported as internal."""
    if isinstance(exc, IsoprodError):
        click.echo(f"error [{exc.code}]: {exc}", err=True)
        sys.exit(EXIT_INTERNAL if isinstance(exc, (ConsistencyError, TheoremViolationError))
                 else EXIT_SCHEMA)
    click.echo(f"error [internal]: {type(exc).__name__}: {exc}", err=True)
    sys.exit(EXIT_INTERNAL)


format_option = click.option("--format", "fmt", type=click.Choice(["text", "json"]),
                             default="text", show_default=True)
oracle_option = click.option("--oracle", is_flag=True,
                             help="Cross-check against the brute-force oracles.")


@click.group()
def main() -> None:
    """Exact invariants and numerically trivial automorphisms of 3-folds
    isogenous to a product of curves (abelian, unmixed type)."""


def _file_report(path: str, sections: tuple[str, ...], oracle: bool = False) -> Callable[[], dict]:
    """The report of the datum document at ``path``, built when ``_run``
    calls it."""
    return lambda: build_report(docio.loads(Path(path).read_bytes()), sections, oracle=oracle)


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@format_option
def validate(file: str, fmt: str) -> None:
    """Check a datum document and report violations."""
    _run(_file_report(file, ()), fmt)


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@format_option
@oracle_option
def report(file: str, fmt: str, oracle: bool) -> None:
    """Full report: validation, invariants, Hodge diamond, Aut_0."""
    _run(_file_report(file, ("invariants", "hodge", "aut0"), oracle), fmt)


@main.command(name="aut0")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@format_option
@oracle_option
def aut0_command(file: str, fmt: str, oracle: bool) -> None:
    """Numerically trivial automorphisms of the datum's 3-fold."""
    _run(_file_report(file, ("aut0",), oracle), fmt)


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@format_option
def kernels(file: str, fmt: str) -> None:
    """Orders of the cohomology representation kernels."""
    _run(_file_report(file, ("kernels",)), fmt)


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@format_option
@oracle_option
def hodge(file: str, fmt: str, oracle: bool) -> None:
    """Hodge diamond and numerical invariants."""
    _run(_file_report(file, ("invariants", "hodge"), oracle), fmt)


def _parse_params(texts: Sequence[str]) -> dict[str, int]:
    """The parameters of every ``--param`` option, merged; no name twice."""
    params = {}
    for part in (part for text in texts if text for part in text.split(",")):
        if "=" not in part:
            raise SchemaError(f"malformed parameter {part!r}; expected name=value")
        key, _, value = part.partition("=")
        key = key.strip()
        if key not in {"n", "n1", "n2", "n3"}:
            raise SchemaError(f"unknown parameter {key!r}")
        if key in params:
            raise SchemaError(f"parameter {key} is given twice")
        try:
            params[key] = int(value)
        except ValueError as exc:
            raise SchemaError(f"parameter {key} needs an integer, got {value!r}") from exc
    return params


@main.command()
@click.argument("name", type=click.Choice(EXAMPLE_NAMES))
@click.option("--param", "params", multiple=True,
              help="Family parameters, e.g. n1=2,n2=1,n3=1 or n=2; repeatable.")
@format_option
@oracle_option
def example(name: str, params: tuple[str, ...], fmt: str, oracle: bool) -> None:
    """Run the full report on a built-in example family."""
    header = ("corrected fixture: the third handle pair is (e2, e4); the "
              "originally printed datum does not generate G/K3"
              if name == "example4" else None)
    _run(lambda: build_report(build_example(name, _parse_params(params)),
                              ("invariants", "hodge", "aut0"), oracle=oracle, header=header), fmt)


@main.command()
@click.argument("specfile", type=click.Path(exists=True, dir_okay=False))
@format_option
def search(specfile: str, fmt: str) -> None:
    """Survey the automorphism groups over a bounded search space."""

    def build() -> dict:
        from .search import SearchSpec, survey

        spec = SearchSpec.from_document(docio.parse_json(Path(specfile).read_bytes()))
        return {"survey": survey(spec).as_document()}

    _run(build, fmt)


if __name__ == "__main__":
    main()
