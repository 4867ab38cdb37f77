import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _table_script():
    path = SCRIPTS / "run_table_analog.py"
    spec = importlib.util.spec_from_file_location("run_table_analog", path)
    table = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(table)
    return table


def test_the_method_table_takes_every_scorer_kind(capsys):
    """``run_table_analog.py`` takes its kinds from ``SCORER_KINDS``, so
    it offers ``none``, the no-LM reference, and reports its row."""
    assert _table_script().main([
        "--seeds", "1", "--kinds", "none", "--test-utterances", "3",
        "--validation-utterances", "2", "--beam-width", "4",
    ]) == 0
    out = capsys.readouterr().out
    rows = [line.split() for line in out.splitlines()]
    assert ["none", "0.00", "0.00", "0.00", "3"] in rows, out
    assert "  none: best " in out


@pytest.mark.parametrize("flag, value, message", [
    ("--beam-width", "0", "must be at least 1, got 0"),
    ("--beam-width", "65537", "must be at most 65536, got 65537"),
    ("--jobs", "0", "must be at least 1, got 0"),
    ("--test-utterances", "0", "must be at least 1, got 0"),
    ("--validation-utterances", "0", "must be at least 1, got 0"),
    ("--rate", "1.5", "must lie in [0, 1], got 1.5"),
    ("--rate", "nan", "must be finite, got nan"),
    ("--noise", "1.5", "must lie in [0, 1), got 1.5"),
    ("--noise", "1", "must lie in [0, 1), got 1.0"),
    ("--noise", "nan", "must be finite, got nan"),
], ids=["beam-width-0", "beam-width-above-maximum", "jobs-0", "test-utterances-0",
        "validation-utterances-0", "rate-above-1", "rate-nan", "noise-above-1",
        "noise-1", "noise-nan"])
def test_the_method_table_refuses_a_count_out_of_range(capsys, flag, value, message):
    """A count, rate or noise level out of range exits 2 at parse time
    with one line naming the flag, as ``colordecode`` does, before any
    corpus is decoded."""
    with pytest.raises(SystemExit) as exc:
        _table_script().main([
            "--seeds", "1", "--kinds", "none", "--test-utterances", "2",
            "--validation-utterances", "2", "--beam-width", "4", flag, value,
        ])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {flag}: {message}" in err, err
