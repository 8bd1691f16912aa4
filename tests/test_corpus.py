"""Every run of the byte-identity corpus (``tests/corpus.py``) reproduces the
exit code and the stdout and stderr bytes recorded in ``tests/corpus.json``.

The runs marked ``ci`` are left to CI, which replays every run through the
installed console script (``python tests/corpus.py --installed``).
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
    listed = [corpus.run_id({"args": list(args), "input": source})
              for args, source, _ in corpus.runs()]
    assert sorted(listed) == sorted(map(corpus.run_id, ENTRIES))
    assert len(set(listed)) == len(listed)


def test_planted_byte_fails_the_corpus(tmp_path, monkeypatch):
    from isoprod import __main__

    real = __main__.render_text
    monkeypatch.setattr(__main__, "render_text", lambda report: real(report) + " ")
    entry = next(e for e in ENTRIES
                 if corpus.run_id(e) == "report <docs/sample_example1.json> --format text")
    (diff,) = _replay(entry, tmp_path)
    assert diff.startswith("stdout_sha256: ")
