"""The byte-identity corpus: runs of the command line, each pinned in
``tests/corpus.json`` to its exit code and to the sha256 of its input, its
stdout and its stderr.

A run is a command line in which ``{input}`` stands for one input file,
written into a fresh temporary directory: a path that reached the output
would differ from run to run.  The inputs:

- the ``docs/`` samples under every datum command, in both formats, with
  ``--oracle`` where the command takes it, and the sample search spec;
- the example families over a parameter grid (``isoprod example``);
- ``z2_classes_document(k)``, whose classes take the class route;
- 40 seeded documents of the ``g' = (2,1,1)`` basis-kernel space, 30 valid;
- the frozen search spaces of the tests and a refused one;
- the malformed and oversized inputs of ``test_cli.TestRobustness`` whose
  messages are the program's own words.  Left out are those worded by the
  interpreter or by its limit on the digits of an integer, which can
  differ between Python versions: the undecodable files (``json`` and
  ``utf-8`` errors), the orders of 3,999 and 5,000 digits and the
  survey counts past 4,300 digits; ``TestRobustness`` checks them under
  each interpreter.

Runs marked ``ci`` (``example1`` n=48 and n=64, ``Z2^9`` and ``Z2^10``)
take seconds each; the tier-1 test (``test_corpus.py``) replays the others
in process through click's runner.

Usage, from the repository root::

    python tests/corpus.py --record      # rewrite tests/corpus.json
    python tests/corpus.py --installed   # every run through the isoprod script

Record only when a change means to change output, and list each changed
entry and why.  ``--installed`` runs every entry, ``ci`` ones included,
through the installed console script, each within ``TIMEOUT`` seconds,
and exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import random
import subprocess
import sys
import tempfile
from pathlib import Path

from conftest import ORACLE_EXAMPLES, z2_classes_document

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = Path(__file__).resolve().parent / "corpus.json"
FORMATS = (("--format", "text"), ("--format", "json"))
TIMEOUT = 120

BASIS_KERNELS = [[[1, 0, 0]], [[0, 1, 0]], [[0, 0, 1]]]
SPECS = {
    "z2^3_basis_r4": {"group": [2, 2, 2], "kernels": [BASIS_KERNELS], "max_branch": 4},
    "z2xz4_mixed_r3": {"group": [2, 4], "kernels": [[[], [[1, 0]], [[0, 2]]],
                                                    [[], [[0, 2]], [[1, 2]]]],
                       "max_branch": 3},
    "z2^2_cyclic_g113": {"group": [2, 2], "kernels": "cyclic", "max_branch": 3,
                         "g_primes": [1, 1, 3]},
    "refused_cyclic": {"group": [4611686018427387904], "kernels": "cyclic", "max_branch": 2},
}
_A = 2 ** 40
MALFORMED_SPECS = {
    "group_zero": {"group": [0]},
    "negative_branch": {"group": [2, 2], "max_branch": -1},
    "negative_genus": {"group": [2, 2], "g_primes": [-1, 1, 1]},
    "boolean_order": {"group": [True, 2]},
    "empty_quotient": {"group": [64], "kernels": [[[[1]], [], []]], "max_branch": 5},
}
MALFORMED_DATA = {
    "huge_kernel": {"group": [_A, 2], "kernels": [[[1, 0]], [[0, 1]], []],
                    "vectors": [{"g_prime": 1, "branch": [[0, 1], [0, 1]],
                                 "eta": [[0, 1], [0, 0]]},
                                {"g_prime": 1, "branch": [[1, 0], [_A - 1, 0]],
                                 "eta": [[0, 0], [0, 0]]},
                                {"g_prime": 1, "branch": [[1, 0], [_A - 1, 0]],
                                 "eta": [[0, 1], [0, 0]]}]},
    "huge_branch": {"group": [_A, 2], "kernels": [[[0, 1]], [], []],
                    "vectors": [{"g_prime": 1, "branch": [[1, 0], [_A - 1, 0]],
                                 "eta": [[0, 0], [0, 0]]},
                                {"g_prime": 1, "branch": [[1, 0], [_A - 1, 0]],
                                 "eta": [[0, 1], [0, 0]]},
                                {"g_prime": 1, "branch": [[1, 0], [_A - 1, 0]],
                                 "eta": [[0, 1], [0, 0]]}]},
}
EXAMPLE_GRID = (
    *(("example1", f"n={n}") for n in (1, 2, 3, 4, 8, 16, 32)),
    *(("example1", p) for p in ("n1=2,n2=1,n3=1", "n1=1,n2=2,n3=1", "n1=1,n2=1,n3=2",
                                "n1=2,n2=3,n3=4", "n1=4,n2=2,n3=1")),
    *(("example2a", p) for p in ("n=1", "n=2", "n=4", "n=8", "n1=2,n2=1,n3=1",
                                 "n1=1,n2=1,n3=2")),
    ("example2b", ""), ("example2b", "n1=4,n2=2,n3=2"),
    *(("example3", f"n={n}") for n in range(1, 9)),
    ("example4", ""),
)
G211_SEED, G211_COUNT = 2013, 40


def _document(doc: dict) -> bytes:
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def _g211_documents() -> list[bytes]:
    """``G211_COUNT`` documents drawn with ``G211_SEED`` from the branch
    triples of the ``g' = (2,1,1)`` basis-kernel space over ``Z2^3`` at
    ``r <= 4``, three quarters of them valid."""
    from isoprod.datum import validate_datum
    from isoprod.docio import datum_document
    from isoprod.groups import AbelianGroup
    from isoprod.search import SearchSpec, _candidates

    spec = SearchSpec(group_orders=(2, 2, 2), max_branch=4, g_primes=(2, 1, 1),
                      kernels=(BASIS_KERNELS,))
    data = [triple.datum(branches)
            for triple, branches in _candidates(spec, AbelianGroup(spec.group_orders))]
    rng = random.Random(G211_SEED)
    valid = G211_COUNT * 3 // 4
    chosen = (rng.sample([d for d in data if validate_datum(d).ok], valid)
              + rng.sample([d for d in data if not validate_datum(d).ok], G211_COUNT - valid))
    return [_document(datum_document(d)) for d in chosen]


@functools.cache
def inputs() -> dict[str, bytes]:
    """Every input file of the corpus by name."""
    out = {f"docs/{p.name}": p.read_bytes() for p in sorted((ROOT / "docs").glob("*.json"))}
    out.update((f"z2_classes/{k}", _document(z2_classes_document(k)))
               for k in (*range(6, 11), 12))
    out.update((f"g211/{i}", doc) for i, doc in enumerate(_g211_documents()))
    out.update((f"spec/{name}", _document(doc)) for name, doc in SPECS.items())
    out.update((f"malformed/{name}", _document(doc))
               for name, doc in {**MALFORMED_SPECS, **MALFORMED_DATA}.items())
    return out


def runs() -> list[tuple[tuple[str, ...], str | None, bool]]:
    """Every run as ``(args, input name or None, ci only)``."""
    out = []

    def add(args, source=None, ci=False):
        out.append((tuple(args), source, ci))

    for name in ("sample_example1", "sample_example3_n2", "sample_example4"):
        source = f"docs/{name}.json"
        for command in ("validate", "report", "aut0", "kernels", "hodge"):
            for fmt in FORMATS:
                add((command, "{input}", *fmt), source)
                if command in ("report", "aut0", "hodge"):
                    add((command, "{input}", "--oracle", *fmt), source)
    for fmt in FORMATS:
        add(("search", "{input}", *fmt), "docs/sample_search_basis_r3.json")
    for name, params in EXAMPLE_GRID:
        for fmt in FORMATS:
            add(("example", name, *(("--param", params) if params else ()), *fmt))
    for name, params in ORACLE_EXAMPLES:
        param = ",".join(f"{k}={v}" for k, v in params.items())
        add(("example", name, *(("--param", param) if param else ()), "--oracle",
             "--format", "json"))
    add(("example", "example1", "--param", "n=48", "--format", "json"), ci=True)
    for flag in ((), ("--oracle",)):
        add(("example", "example1", "--param", "n=64", *flag, "--format", "json"), ci=True)
    for k in range(6, 11):
        add(("report", "{input}", "--format", "json"), f"z2_classes/{k}", ci=k > 8)
        if k <= 8:
            add(("kernels", "{input}", "--format", "json"), f"z2_classes/{k}")
    for i in range(G211_COUNT):
        for command in ("report", "kernels"):
            add((command, "{input}", "--format", "json"), f"g211/{i}")
    for name in SPECS:
        for fmt in FORMATS:
            add(("search", "{input}", *fmt), f"spec/{name}")
    for name in MALFORMED_SPECS:
        add(("search", "{input}"), f"malformed/{name}")
    for name in MALFORMED_DATA:
        add(("validate", "{input}"), f"malformed/{name}")
    add(("report", "{input}"), "z2_classes/12")
    return out


def run_id(entry: dict) -> str:
    args = " ".join(entry["args"])
    return args.replace("{input}", f"<{entry['input']}>") if entry["input"] else args


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def invoke(args: tuple[str, ...], source: str | None, workdir: Path,
           installed: bool = False) -> dict:
    """Run once, with the input written into ``workdir``: in process through
    click's runner, or through the installed ``isoprod`` script; the
    recorded fields of the outcome."""
    outcome: dict = {"input_sha256": None}
    argv = list(args)
    if source is not None:
        data = inputs()[source]
        path = workdir / "input.json"
        path.write_bytes(data)
        argv = [str(path) if a == "{input}" else a for a in args]
        outcome["input_sha256"] = _sha(data)
    if installed:
        proc = subprocess.run(["isoprod", *argv], capture_output=True, timeout=TIMEOUT)
        code, out, err = proc.returncode, proc.stdout, proc.stderr
    else:
        from click.testing import CliRunner

        from isoprod.__main__ import main

        result = CliRunner().invoke(main, argv, prog_name="isoprod")
        code, out, err = result.exit_code, result.stdout_bytes, result.stderr_bytes
    outcome.update(exit_code=code, stdout_sha256=_sha(out), stderr_sha256=_sha(err))
    return outcome


def load() -> list[dict]:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def differences(entry: dict, outcome: dict) -> list[str]:
    """The recorded fields that ``outcome`` does not reproduce."""
    return [f"{key}: recorded {entry[key]}, got {outcome[key]}"
            for key in ("input_sha256", "exit_code", "stdout_sha256", "stderr_sha256")
            if entry[key] != outcome[key]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--record", action="store_true", help="rewrite the manifest, in process")
    mode.add_argument("--installed", action="store_true",
                      help="check every run through the installed isoprod script")
    opts = parser.parse_args(argv)

    entries, failures = [], []
    recorded = {} if opts.record else {run_id(e): e for e in load()}
    for args, source, ci in runs():
        entry = {"args": list(args), "input": source, "ci": ci}
        name = run_id(entry)
        if not opts.record and name not in recorded:
            failures.append(f"MISSING from the manifest: {name}")
            continue
        with tempfile.TemporaryDirectory() as tmp:
            try:
                outcome = invoke(args, source, Path(tmp), opts.installed)
            except subprocess.TimeoutExpired:
                failures.append(f"TIMEOUT after {TIMEOUT} s: {name}")
                continue
        if opts.record:
            entries.append({**entry, **outcome})
        elif diff := differences(recorded[name], outcome):
            failures.append(f"DIFFERS: {name}\n  " + "\n  ".join(diff))
    if opts.record:
        MANIFEST.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
        print(f"recorded {len(entries)} runs into {MANIFEST.relative_to(ROOT)}")
        return 0
    print(*failures, sep="\n")
    print(f"{len(recorded) - len(failures)} of {len(recorded)} runs reproduce the manifest")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
