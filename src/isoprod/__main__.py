"""The ``isoprod`` command line, also run as ``python -m isoprod``: a click
group whose subcommands read a datum document, a built-in example or a
search spec, and print the report that ``isoprod.cli`` builds.

Exit codes: 0 success, 1 datum validation failure (the report is still
emitted, with a null Hodge diamond when a generating vector is invalid), 2
parse/schema error, 3 internal consistency or theorem violation, or any
other unexpected error.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Callable, NoReturn, Sequence

import click

from . import docio
from .cli import build_report, render_text
from .errors import ConsistencyError, IsoprodError, SchemaError, TheoremViolationError
from .examples import EXAMPLE_NAMES, _check_parameter, build_example

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_SCHEMA = 2
EXIT_INTERNAL = 3


def _run(build: Callable[[], dict], fmt: str) -> NoReturn:
    """Print the report that ``build`` returns and exit with its code, 1 when
    its datum fails validation; any error ends in ``_fail``."""
    try:
        report = build()
        click.echo(docio.dumps(report) if fmt == "json" else render_text(report), nl=False)
    except Exception as exc:
        _fail(exc)
    sys.exit(EXIT_INVALID if "validation" in report and not report["validation"]["ok"] else EXIT_OK)


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


# Each datum command: name, report sections, whether it takes --oracle, summary.
_DATUM_COMMANDS = (
    ("validate", (), False, "Check a datum document and report violations."),
    ("report", ("invariants", "hodge", "aut0"), True,
     "Full report: validation, invariants, Hodge diamond, Aut_0."),
    ("aut0", ("aut0",), True, "Numerically trivial automorphisms of the datum's 3-fold."),
    ("kernels", ("kernels",), False, "Orders of the cohomology representation kernels."),
    ("hodge", ("invariants", "hodge"), True, "Hodge diamond and numerical invariants."),
)


def _datum_command(name: str, sections: tuple[str, ...], takes_oracle: bool, summary: str) -> None:
    """Register a command that prints ``sections`` of a datum document's report."""

    def command(file: str, fmt: str, oracle: bool = False) -> None:
        _run(lambda: build_report(docio.loads(Path(file).read_bytes()), sections,
                                  oracle=oracle), fmt)

    if takes_oracle:
        command = oracle_option(command)
    command = format_option(command)
    command = click.argument("file", type=click.Path(exists=True, dir_okay=False))(command)
    main.command(name=name, help=summary)(command)


for _command in _DATUM_COMMANDS:
    _datum_command(*_command)


def _parse_params(texts: Sequence[str]) -> dict[str, int]:
    """The parameters of every ``--param`` option, merged; no name twice."""
    params = {}
    for part in (part for text in texts if text for part in text.split(",")):
        if "=" not in part:
            raise SchemaError(f"malformed parameter {part!r}; expected name=value")
        key, _, value = part.partition("=")
        key = key.strip()
        _check_parameter(key)
        if key in params:
            raise SchemaError(f"parameter {key} is given twice")
        try:
            params[key] = int(value)
        except ValueError:
            _check_parameter(key, value)  # raises: the text is not an integer
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
