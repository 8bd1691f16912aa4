"""Every run of the byte-identity corpus (``tests/corpus.py``) reproduces the
exit code and the stdout and stderr bytes recorded in ``tests/corpus.json``.

The runs marked ``ci`` are left to ``python tests/corpus.py --installed``,
which replays every run through the installed console script, each within
the time limit its entry carries.
"""

from __future__ import annotations

import pytest

import corpus

ENTRIES = corpus.load()


def _replay(entry: dict, workdir) -> list[str]:
    return corpus.differences(
        entry, corpus.invoke(tuple(entry["args"]), entry["input"], workdir))


@pytest.mark.parametrize("entry", [e for e in ENTRIES if not e["ci"]], ids=corpus.run_id)
def test_run_reproduces_its_bytes(entry, tmp_path):
    assert _replay(entry, tmp_path) == []


def test_manifest_holds_every_run_once():
    def definitions(entries):
        return sorted((corpus.run_id(e), e["ci"], e["limit"]) for e in entries)

    runs = corpus.runs()
    assert definitions(runs) == definitions(ENTRIES)
    listed = set(map(corpus.run_id, runs))
    assert len(listed) == len(runs)
    assert set(corpus.LIMITS) <= listed
    assert all(limit < corpus.TIMEOUT for limit in corpus.LIMITS.values())


def test_planted_byte_fails_the_corpus(tmp_path, monkeypatch):
    from isoprod import __main__

    real = __main__.render_text
    monkeypatch.setattr(__main__, "render_text", lambda report: real(report) + " ")
    entry = next(e for e in ENTRIES
                 if corpus.run_id(e) == "report <docs/sample_example1.json> --format text")
    (diff,) = _replay(entry, tmp_path)
    assert diff.startswith("stdout_sha256: ")
