import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_the_method_table_takes_every_scorer_kind(capsys):
    """``run_table_analog.py`` takes its kinds from ``SCORER_KINDS``, so
    it offers ``none``, the no-LM reference, and reports its row."""
    path = SCRIPTS / "run_table_analog.py"
    spec = importlib.util.spec_from_file_location("run_table_analog", path)
    table = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(table)
    assert table.main([
        "--seeds", "1", "--kinds", "none", "--test-utterances", "3",
        "--validation-utterances", "2", "--beam-width", "4",
    ]) == 0
    out = capsys.readouterr().out
    rows = [line.split() for line in out.splitlines()]
    assert ["none", "0.00", "0.00", "0.00", "3"] in rows, out
    assert "  none: best " in out
