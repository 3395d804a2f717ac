"""Smoke test of scripts/reproduce_examples.py against the CLI it wraps."""

import importlib.util
from pathlib import Path

from sylq.cli import main

from conftest import FIXTURE_DIR

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "reproduce_examples.py"


def load_script():
    spec = importlib.util.spec_from_file_location("reproduce_examples", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_writes_the_cli_csv_for_every_bundled_document(tmp_path, capsys):
    assert load_script().main(["--out", str(tmp_path)]) == 0
    printed = capsys.readouterr().out
    docs = sorted(FIXTURE_DIR.glob("*.syl"))
    assert len(docs) == 8
    assert printed.count("\nmode: ") == 8
    assert sorted(p.name for p in tmp_path.iterdir()) == [d.stem + ".csv" for d in docs]
    for doc in docs:
        assert "== %s" % doc.stem in printed
        assert main([str(doc), "--format", "csv"]) == 0
        assert (tmp_path / (doc.stem + ".csv")).read_text(encoding="utf-8") == (
            capsys.readouterr().out
        )
