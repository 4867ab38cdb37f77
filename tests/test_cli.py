"""End-to-end tests of the command line interface.

Every test drives ``cli.main(argv)`` in process and inspects the captured
stdout/stderr plus the exit code, exactly what a shell user would see.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import multiprocessing
import os
import shutil

import numpy as np
import pytest

from colordecode import cli, evaluation
from colordecode.corpus import MAGIC, read_manifest
from colordecode.ngram_lm import NGramModel, load_arpa, save_arpa
from colordecode.oracle import VerificationReport
from colordecode.scorers import (
    KIND_MODELS,
    SCORER_KINDS,
    MissingModel,
    ScorerConfig,
    fit_bin_table,
    make_scorer,
)

LOG10_HALF = math.log10(0.5)


def run_cli(argv, capsys):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def write_json_logits(path, frames):
    path.write_text(json.dumps({"frames": frames}), encoding="utf-8")
    return str(path)


def _refuse_constant(name):
    raise AssertionError(f"not standard JSON: {name}")


@pytest.fixture
def tiny_setup(tmp_path):
    """Two one-word lexicons, two unigram models, forced logits for 'aa bb'.

    Alphabet "ab " gives columns a=0, b=1, separator=2, blank=3.
    """
    general = tmp_path / "general.txt"
    general.write_text("aa\n", encoding="utf-8")
    jargon = tmp_path / "jargon.txt"
    jargon.write_text("bb\n", encoding="utf-8")

    general_lm = tmp_path / "general.arpa"
    save_arpa(NGramModel(entries={("aa",): (-0.3, None)}, max_order=1), general_lm)
    jargon_lm = tmp_path / "jargon.arpa"
    save_arpa(NGramModel(entries={("bb",): (-0.2, None)}, max_order=1), jargon_lm)

    one_hot = {
        "a": [1.0, 0.0, 0.0, 0.0],
        "b": [0.0, 1.0, 0.0, 0.0],
        " ": [0.0, 0.0, 1.0, 0.0],
        "-": [0.0, 0.0, 0.0, 1.0],
    }
    frames = [one_hot[c] for c in ["a", "-", "a", " ", "b", "-", "b"]]
    logits = write_json_logits(tmp_path / "aabb.json", frames)

    return {
        "general": str(general),
        "jargon": str(jargon),
        "general_lm": str(general_lm),
        "jargon_lm": str(jargon_lm),
        "logits": logits,
        "dir": tmp_path,
    }


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    """A small synthesized corpus shared by the eval/gridsearch tests."""
    out = tmp_path_factory.mktemp("corpus")
    rc = cli.main(
        [
            "synth",
            "--out",
            str(out),
            "--sentences",
            "4",
            "--noise",
            "0.1",
            "--seed",
            "7",
            "--min-words",
            "2",
            "--max-words",
            "3",
        ]
    )
    assert rc == 0
    return out


# ---------------------------------------------------------------------------
# decode
# ---------------------------------------------------------------------------


def test_decode_forced_single_char(tmp_path, capsys):
    logits = write_json_logits(tmp_path / "a.json", [[1.0, 0.0]])
    lexicon = tmp_path / "lex.txt"
    lexicon.write_text("a\n", encoding="utf-8")
    rc, out, err = run_cli(
        [
            "decode",
            logits,
            "--alphabet",
            "a",
            "--separator",
            "",
            "--lexicon",
            str(lexicon),
        ],
        capsys,
    )
    assert rc == 0
    assert err == ""
    assert out == "a\nscore 0.000000000\n"


def test_decode_without_lexicons_is_unconstrained(tiny_setup, capsys):
    """No ``--lexicon`` spells any word, in one color."""
    argv = ["decode", tiny_setup["logits"], "--alphabet", "ab "]
    rc, out, err = run_cli(argv, capsys)
    assert rc == 0
    assert err == ""
    assert out == "aa bb\nscore 0.000000000\n"


def test_decode_coloring_prints_markup_and_score(tiny_setup, capsys):
    argv = [
        "decode",
        tiny_setup["logits"],
        "--alphabet",
        "ab ",
        "--lexicon",
        tiny_setup["general"],
        "--lexicon",
        tiny_setup["jargon"],
        "--fusion",
        "coloring",
        "--lm",
        tiny_setup["general_lm"],
        "--lm",
        tiny_setup["jargon_lm"],
        "--beam-width",
        "8",
    ]
    rc, out, err = run_cli(argv, capsys)
    assert rc == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "aa [J:bb]"
    assert lines[1].startswith("score ")
    # CTC mass is exactly 1; each word adds alpha*(log10(1/2) + lp) + beta.
    expected = (LOG10_HALF - 0.3) + (LOG10_HALF - 0.2)
    assert float(lines[1].split()[1]) == pytest.approx(expected, abs=1e-9)


def test_decode_out_writes_markup_and_sidecar(tiny_setup, capsys):
    out_path = tiny_setup["dir"] / "hyp.txt"
    argv = [
        "decode",
        tiny_setup["logits"],
        "--alphabet",
        "ab ",
        "--lexicon",
        tiny_setup["general"],
        "--lexicon",
        tiny_setup["jargon"],
        "--fusion",
        "coloring",
        "--lm",
        tiny_setup["general_lm"],
        "--lm",
        tiny_setup["jargon_lm"],
        "--out",
        str(out_path),
    ]
    rc, _, _ = run_cli(argv, capsys)
    assert rc == 0
    assert out_path.read_text(encoding="utf-8") == "aa [J:bb]\n"
    sidecar = json.loads((tiny_setup["dir"] / "hyp.txt.json").read_text())
    assert sidecar["words"] == [["aa", 0], ["bb", 1]]
    expected = (LOG10_HALF - 0.3) + (LOG10_HALF - 0.2)
    assert sidecar["score"] == pytest.approx(expected, abs=1e-9)


def test_decode_sidecar_is_standard_json_when_no_beam_survives(
    synth_dir, tmp_path, capsys
):
    """One frame favoring the first letter of a general word leaves beam
    1 holding an unfinished word, so no beam survives and the score is
    -inf. The sidecar used to hold ``-Infinity``, which strict JSON
    parsers refuse; it holds null."""
    word = (synth_dir / "general.txt").read_text(encoding="utf-8").split()[0]
    assert len(word) > 1
    row = [0.25 / 27] * 28
    row[ord(word[0]) - ord("a")] = 0.75
    logits = write_json_logits(tmp_path / "one-frame.json", [row])
    out_path = tmp_path / "hyp.txt"
    argv = [
        "decode", logits,
        "--lexicon", str(synth_dir / "general.txt"),
        "--beam-width", "1",
        "--out", str(out_path),
    ]
    rc, out, _ = run_cli(argv, capsys)
    assert rc == 0
    assert out == "\nscore -inf\n"
    sidecar = (tmp_path / "hyp.txt.json").read_text(encoding="utf-8")
    assert json.loads(sidecar, parse_constant=_refuse_constant) == {
        "words": [],
        "score": None,
    }


def test_decode_stdout_is_byte_identical_across_runs(tiny_setup, capsys):
    argv = [
        "decode",
        tiny_setup["logits"],
        "--alphabet",
        "ab ",
        "--lexicon",
        tiny_setup["general"],
        "--lexicon",
        tiny_setup["jargon"],
        "--fusion",
        "coloring",
        "--lm",
        tiny_setup["general_lm"],
        "--lm",
        tiny_setup["jargon_lm"],
    ]
    rc1, out1, _ = run_cli(argv, capsys)
    rc2, out2, _ = run_cli(argv, capsys)
    assert rc1 == rc2 == 0
    assert out1 == out2


# ---------------------------------------------------------------------------
# synth + eval
# ---------------------------------------------------------------------------


def test_main_leaves_the_collector_as_it_found_it(synth_dir, capsys):
    """``main`` runs in its caller's process, as here, so an eval that
    starts a worker pool leaves the caller's collector threshold and
    switch alone."""
    before = gc.get_threshold()
    gc.set_threshold(701, 11, 12)
    try:
        rc, _, _ = run_cli(_eval_argv(synth_dir, "--jobs", "2"), capsys)
        assert rc == 0
        assert gc.get_threshold() == (701, 11, 12)
        assert gc.isenabled()
    finally:
        gc.set_threshold(*before)


def test_the_console_command_raises_its_collector_threshold(monkeypatch):
    """The ``colordecode`` console command owns its process and raises
    the generation-0 threshold before ``main`` runs."""
    seen = []
    monkeypatch.setattr(cli, "main", lambda: seen.append(gc.get_threshold()) or 0)
    before = gc.get_threshold()
    try:
        with pytest.raises(SystemExit) as exited:
            cli.entry()
    finally:
        gc.set_threshold(*before)
    assert exited.value.code == 0
    assert seen == [(evaluation._GC_GEN0_THRESHOLD, *before[1:])]


def test_synth_writes_corpus_lexicons_and_models(synth_dir):
    assert (synth_dir / "manifest.jsonl").exists()
    assert (synth_dir / "general.txt").exists()
    assert (synth_dir / "jargon.txt").exists()
    assert (synth_dir / "general.arpa").exists()
    assert (synth_dir / "jargon.arpa").exists()
    assert (synth_dir / "logits" / "utt0000.ctcl").exists()
    # The models must load back as valid ARPA files.
    assert load_arpa(synth_dir / "general.arpa").max_order == 2
    assert load_arpa(synth_dir / "jargon.arpa").max_order == 1


def _eval_argv(synth_dir, *extra):
    return [
        "eval",
        str(synth_dir / "manifest.jsonl"),
        "--lexicon",
        str(synth_dir / "general.txt"),
        "--lexicon",
        str(synth_dir / "jargon.txt"),
        "--fusion",
        "coloring",
        "--lm",
        str(synth_dir / "general.arpa"),
        "--lm",
        str(synth_dir / "jargon.arpa"),
        "--beam-width",
        "8",
        "--jobs",
        "1",
        *extra,
    ]


def test_eval_text_report(synth_dir, capsys):
    rc, out, err = run_cli(_eval_argv(synth_dir), capsys)
    assert rc == 0
    assert err == ""
    assert "coloring" in out
    assert "wer" in out.lower()


def test_eval_json_report(synth_dir, capsys):
    rc, out, _ = run_cli(_eval_argv(synth_dir, "--json"), capsys)
    assert rc == 0
    parsed = json.loads(out, parse_constant=_refuse_constant)
    assert isinstance(parsed, dict)
    text = json.dumps(parsed).lower()
    assert "wer" in text


def test_eval_output_is_byte_identical_across_runs_and_jobs(synth_dir, capsys):
    rc1, out1, _ = run_cli(_eval_argv(synth_dir), capsys)
    rc2, out2, _ = run_cli(_eval_argv(synth_dir), capsys)
    assert rc1 == rc2 == 0
    assert out1 == out2
    argv_jobs2 = [a if a != "1" else "2" for a in _eval_argv(synth_dir)]
    rc3, out3, _ = run_cli(argv_jobs2, capsys)
    assert rc3 == 0
    assert out3 == out1


# ---------------------------------------------------------------------------
# gridsearch
# ---------------------------------------------------------------------------


def test_gridsearch_reports_best_point(synth_dir, capsys):
    argv = [
        "gridsearch",
        str(synth_dir / "manifest.jsonl"),
        "--lexicon",
        str(synth_dir / "general.txt"),
        "--lexicon",
        str(synth_dir / "jargon.txt"),
        "--fusion",
        "none",
        "--betas",
        "0.0,0.5",
        "--beam-width",
        "4",
        "--jobs",
        "1",
        "--all",
    ]
    rc, out, err = run_cli(argv, capsys)
    assert rc == 0
    assert err == ""
    assert "method none: searched 2 configurations" in out
    assert "best " in out
    assert out.count("wer=") == 2  # one row per grid point under --all


def test_every_grid_field_is_the_dest_of_a_gridsearch_flag():
    """``cmd_gridsearch`` reads each ``GridSpec`` field from the parsed
    flag of that name, so each field needs a flag with it as ``dest``."""
    [subparsers] = [
        a for a in cli.build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    dests = {a.dest for a in subparsers.choices["gridsearch"]._actions}
    assert {f.name for f in dataclasses.fields(evaluation.GridSpec)} <= dests


@pytest.mark.parametrize(
    "fusion, flags, grid",
    [
        ("coloring", [], evaluation.GridSpec()),
        (
            "coloring",
            ["--alphas", "0.5,2", "--betas", "0,1.5", "--word-penalties", "-5",
             "--subword-penalties=-2,0"],
            evaluation.GridSpec(
                alphas=(0.5, 2.0), betas=(0.0, 1.5), word_penalties=(-5.0,),
                subword_penalties=(-2.0, 0.0),
            ),
        ),
        ("linear", ["--lambdas", "0.25"], evaluation.GridSpec(lams=(0.25,))),
        ("bins", ["--bin-counts", "7,9"], evaluation.GridSpec(bin_counts=(7, 9))),
    ],
    ids=["defaults", "coloring-list-flags", "linear-lambdas", "bins-bin-counts"],
)
def test_gridsearch_builds_its_grid_from_the_list_flags(
    tiny_setup, fusion, flags, grid, monkeypatch
):
    """Each list flag, given with a kind that reads its field, replaces
    that ``GridSpec`` field; the fields of the flags not given keep their
    defaults."""

    class Searched(Exception):
        pass

    def search(kind, utterances, lexicons, models, grid, *args, **kwargs):
        raise Searched(grid)

    monkeypatch.setattr(cli, "run_grid_search", search)
    manifest = tiny_setup["dir"] / "manifest.jsonl"
    manifest.write_text(
        json.dumps({"id": "u0", "logits": tiny_setup["logits"],
                    "reference": "aa bb"}) + "\n",
        encoding="utf-8",
    )
    argv = ["gridsearch", str(manifest), "--alphabet", "ab ",
            "--fusion", fusion,
            "--lm", tiny_setup["general_lm"], "--lm", tiny_setup["jargon_lm"],
            "--lexicon", tiny_setup["general"], "--lexicon", tiny_setup["jargon"],
            *flags]
    with pytest.raises(Searched) as exc:
        cli.main(argv)
    assert exc.value.args[0] == grid


# each grid flag by the ``GridSpec`` field it sets
GRID_FLAGS = {
    "alphas": "--alphas", "betas": "--betas", "lams": "--lambdas",
    "word_penalties": "--word-penalties",
    "subword_penalties": "--subword-penalties", "bin_counts": "--bin-counts",
}


def _reads_field(kind, field):
    """Whether ``GridSpec.points`` gives ``kind`` other points when
    ``field`` holds 1 alone."""
    grid = evaluation.GridSpec()
    narrowed = dataclasses.replace(grid, **{field: (1,)})
    return list(grid.points(kind)) != list(narrowed.points(kind))


@pytest.mark.parametrize("field", list(GRID_FLAGS))
@pytest.mark.parametrize("kind", SCORER_KINDS)
def test_gridsearch_refuses_a_grid_flag_exactly_when_its_kind_ignores_it(
    kind, field, capsys, monkeypatch
):
    """A grid flag whose field the kind's grid points do not vary in
    would be accepted and ignored: ``gridsearch`` exits 2 naming the
    kind and the flag before reading any file. A flag whose field the
    points vary in goes on to read the files."""
    reads = []

    def read(*args, **kwargs):
        reads.append(args)
        raise OSError("read a file")

    for name in ("load_arpa", "read_lexicon", "read_manifest", "_decode_file"):
        monkeypatch.setattr(cli, name, read)
    flag = GRID_FLAGS[field]
    argv = ["gridsearch", f"{NOWHERE}.jsonl", "--fusion", kind,
            *["--lm", f"{NOWHERE}.arpa"] * len(KIND_MODELS[kind]),
            *["--lexicon", f"{NOWHERE}.txt"] * 2, flag, "1"]
    rc, out, err = run_cli(argv, capsys)
    if _reads_field(kind, field):
        assert (rc, err) == (1, "error: read a file\n") and reads
    else:
        assert (rc, out, err) == (2, "", f"error: --fusion {kind} takes no {flag}\n")
        assert not reads


@pytest.mark.parametrize(
    "flag",
    [
        ["--alpha", "2"],
        ["--beta", "0.5"],
        ["--lambda", "0.5"],
        ["--unk-word-penalty", "-5,-5"],
        ["--unk-subword-penalty", "-3"],
        ["--bins", "20"],
    ],
    ids=lambda f: f[0],
)
def test_gridsearch_rejects_single_hyperparameter_flags(tmp_path, flag, capsys):
    """The grid flags are gridsearch's only hyperparameter inputs; a
    single-value scorer flag would be ignored, so argparse refuses it,
    also where it is a prefix of a grid flag (``--beta`` of ``--betas``)."""
    argv = ["gridsearch", str(tmp_path / "manifest.jsonl"), *flag]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert flag[0] in err


@pytest.mark.parametrize(
    "command, flag",
    [
        ("eval", "--jobs"),
        ("gridsearch", "--jobs"),
        ("decode", "--beam-width"),
        ("eval", "--beam-width"),
        ("gridsearch", "--beam-width"),
    ],
    ids=["eval", "gridsearch", "decode-beam-width", "eval-beam-width",
         "gridsearch-beam-width"],
)
@pytest.mark.parametrize("value", ["0", "-3"])
def test_jobs_below_one_is_a_usage_error(synth_dir, command, flag, value, capsys):
    """``--jobs`` and ``--beam-width`` below 1 are refused by argparse."""
    source = "logits/utt0000.ctcl" if command == "decode" else "manifest.jsonl"
    argv = [
        command,
        str(synth_dir / source),
        "--lexicon",
        str(synth_dir / "general.txt"),
        flag,
        value,
    ]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage:")
    assert f"{flag}: must be at least 1, got {value}" in err


@pytest.mark.parametrize("command", ["decode", "eval", "gridsearch"])
def test_a_beam_wider_than_the_maximum_is_refused_up_front(
    synth_dir, command, monkeypatch, capsys
):
    """``--beam-width 100000000`` used to decode until ``MemoryError``;
    a width above ``cli.MAX_BEAM_WIDTH`` is a usage error before any file
    is read, and the maximum itself parses."""

    def read(*args, **kwargs):
        pytest.fail("a file was read")

    for reader in ("read_manifest", "read_lexicon", "load_arpa", "_decode_file"):
        monkeypatch.setattr(cli, reader, read)
    source = "logits/utt0000.ctcl" if command == "decode" else "manifest.jsonl"
    argv = [command, str(synth_dir / source),
            "--lexicon", str(synth_dir / "general.txt"), "--beam-width"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["100000000"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert errors[0].endswith(
        "error: argument --beam-width: must be at most "
        f"{cli.MAX_BEAM_WIDTH}, got 100000000"
    )
    widest = cli.build_parser().parse_args(argv + [str(cli.MAX_BEAM_WIDTH)])
    assert widest.beam_width == cli.MAX_BEAM_WIDTH


@pytest.mark.parametrize("command", ["eval", "gridsearch"])
@pytest.mark.parametrize("value", ["abc", "0", "-3", "2.5"])
def test_malformed_jobs_variable_is_a_usage_error(
    synth_dir, command, value, capsys, monkeypatch
):
    """Without ``--jobs``, a set ``$COLOR_DECODE_JOBS`` that is not an
    integer of at least 1 used to mean one job silently; it is refused
    before anything is read or decoded."""
    monkeypatch.setenv(cli.JOBS_ENV, value)
    monkeypatch.setattr(cli, "read_manifest", lambda *a: pytest.fail("read"))
    argv = [command, str(synth_dir / "manifest.jsonl"),
            "--lexicon", str(synth_dir / "general.txt")]
    rc, out, err = run_cli(argv, capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith(f"error: ${cli.JOBS_ENV}:") and value in err


@pytest.mark.parametrize(
    "command, env, flags, jobs",
    [
        ("eval", None, [], 1),
        ("eval", "", [], 1),
        ("eval", "2", [], 2),
        ("eval", "abc", ["--jobs", "3"], 3),
        ("gridsearch", None, [], 1),
        ("gridsearch", "", [], 1),
        ("gridsearch", "2", [], 2),
        ("gridsearch", "abc", ["--jobs", "3"], 3),
    ],
)
def test_jobs_come_from_flag_then_variable_then_one(
    synth_dir, command, env, flags, jobs, capsys, monkeypatch
):
    """``--jobs`` wins and the variable is not read; an unset or empty
    variable means one job."""
    if env is None:
        monkeypatch.delenv(cli.JOBS_ENV, raising=False)
    else:
        monkeypatch.setenv(cli.JOBS_ENV, env)

    class Stop(Exception):
        pass

    def record(*args, jobs, **kwargs):
        seen.append(jobs)
        raise Stop

    seen: list[int] = []
    monkeypatch.setattr(cli, "evaluate", record)
    monkeypatch.setattr(cli, "run_grid_search", record)
    argv = [command, str(synth_dir / "manifest.jsonl"),
            "--lexicon", str(synth_dir / "general.txt"), *flags]
    with pytest.raises(Stop):
        cli.main(argv)
    assert seen == [jobs]


@pytest.mark.parametrize(
    "grid",
    [["--alphas", ""], ["--alphas", ","], ["--bin-counts", " , "], ["--alphas", "1,x"]],
)
def test_gridsearch_rejects_an_empty_grid_list(synth_dir, grid, capsys):
    """An empty grid list used to parse as "not given" and sweep the
    whole default grid. A list with an item that is no number is
    refused the same way."""
    argv = [
        "gridsearch",
        str(synth_dir / "manifest.jsonl"),
        "--lexicon",
        str(synth_dir / "general.txt"),
        *grid,
    ]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"{grid[0]}: not a comma list of" in err


@pytest.mark.parametrize(
    "fusion, grid",
    [
        ("coloring", ["--word-penalties", "-10", "--subword-penalties", "0,nan"]),
        ("coloring", ["--word-penalties", "-10", "--subword-penalties=-inf"]),
        ("linear", ["--word-penalties", "nan"]),
        ("general", ["--word-penalties=-10,inf"]),
        ("coloring", ["--word-penalties", "-10", "--subword-penalties", "-inf"]),
        ("general", ["--word-penalties", "-NAN,-10"]),
    ],
)
def test_gridsearch_rejects_non_finite_penalties(
    synth_dir, fusion, grid, capsys, monkeypatch
):
    """A NaN grid point used to decode to garbage and rank as WER 100;
    the grid is refused as it is parsed, a usage error naming the flag."""
    monkeypatch.setattr(
        evaluation, "decode_utterances", lambda *a, **k: pytest.fail("decoded")
    )
    models = [("general.arpa", "jargon.arpa")[i] for i in KIND_MODELS[fusion]]
    argv = [
        "gridsearch",
        str(synth_dir / "manifest.jsonl"),
        "--lexicon",
        str(synth_dir / "general.txt"),
        "--lexicon",
        str(synth_dir / "jargon.txt"),
        "--fusion",
        fusion,
        *(a for m in models for a in ("--lm", str(synth_dir / m))),
        "--alphas",
        "1.0",
        "--betas",
        "0.0",
        "--lambdas",
        "0.5",
        "--beam-width",
        "4",
        "--jobs",
        "1",
        *grid,
    ]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    flag = grid[-1].split("=")[0] if len(grid) % 2 else grid[-2]
    assert f"argument {flag}: must be finite" in err


# ---------------------------------------------------------------------------
# merge-lm
# ---------------------------------------------------------------------------


def test_merge_lm_writes_colored_model(tiny_setup, capsys):
    merged_path = tiny_setup["dir"] / "merged.arpa"
    argv = [
        "merge-lm",
        "--lm",
        tiny_setup["general_lm"],
        "--lm",
        tiny_setup["jargon_lm"],
        "--out",
        str(merged_path),
    ]
    rc, out, err = run_cli(argv, capsys)
    assert rc == 0
    assert err == ""
    assert out.startswith("merged 2 models")
    merged = load_arpa(merged_path)
    assert merged.entries[("0:aa",)][0] == -0.3
    assert merged.entries[("1:bb",)][0] == -0.2


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_reports_clean_run(capsys):
    rc, out, err = run_cli(["verify", "--instances", "5", "--seed", "3"], capsys)
    assert rc == 0
    assert err == ""
    assert "5 instances, 0 mismatches" in out


@pytest.mark.parametrize(
    "flag, value, minimum",
    [("--instances", "0", 1), ("--max-chars", "0", 1), ("--max-frames", "-1", 0)],
)
def test_verify_refuses_counts_it_cannot_use(flag, value, minimum, capsys):
    """``--instances 0`` used to report a clean run of nothing, and
    ``--max-chars 0`` or ``--max-frames -1`` to fail inside the instance
    generator; each is a usage error before anything runs. Zero frames
    is a problem the generator can draw, so ``--max-frames 0`` runs."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", flag, value])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage:")
    assert f"{flag}: must be at least {minimum}, got {value}" in err


def test_verify_refuses_more_chars_than_the_oracle_has_letters(capsys):
    """The oracle draws each instance's alphabet from three letters, so
    ``--max-chars 4`` used to run as ``--max-chars 3``; it is a usage
    error before anything runs."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--max-chars", "4"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage:")
    assert "--max-chars: must be at most 3, got 4" in err


def test_verify_reports_mismatches(capsys, monkeypatch):
    """A verification with mismatches exits 1 and prints the first ten
    mismatched instances."""
    mismatches = [
        {"instance": i, "expected": ((("a", 0),), -1.0), "got": ((), -2.0)}
        for i in range(12)
    ]

    def verification(instances, seed, max_frames, max_chars):
        return VerificationReport(instances, mismatches, 1.0)

    monkeypatch.setattr(cli, "run_verification", verification)
    rc, out, err = run_cli(["verify", "--instances", "12"], capsys)
    assert rc == 1
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "12 instances, 12 mismatches, max score divergence 1.000e+00"
    assert lines[1:] == [
        f"  instance {i}: expected ((('a', 0),), -1.0), got ((), -2.0)"
        for i in range(10)
    ]


def test_verify_runs_zero_frame_instances(capsys):
    argv = ["verify", "--instances", "5", "--max-frames", "0"]
    rc, out, err = run_cli(argv, capsys)
    assert rc == 0
    assert err == ""
    assert "5 instances, 0 mismatches" in out


# ---------------------------------------------------------------------------
# usage errors (exit code 2)
# ---------------------------------------------------------------------------


def test_no_arguments_is_a_parser_error():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_decode_requires_logits_positional():
    with pytest.raises(SystemExit) as exc:
        cli.main(["decode"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--sentences", "0"], "--sentences: must be at least 1, got 0"),
        (["--frames-per-char", "0"], "--frames-per-char: must be at least 1, got 0"),
        (["--min-words", "5", "--max-words", "2"], "min_words <= max_words"),
        (["--noise", "1.5"], "noise level must lie in [0, 1)"),
    ],
)
def test_synth_refuses_values_it_cannot_use(tmp_path, flags, message, capsys):
    """Each used to reach the library and exit 1, the data-error code."""
    out_dir = tmp_path / "corpus"
    try:
        rc = cli.main(["synth", "--out", str(out_dir), *flags])
    except SystemExit as exc:
        rc = exc.code
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--alphabet", ""], "at least one character"),
        (["--alphabet", "aa"], "repeated characters"),
        (["--alphabet", "a", "--separator", "b"], "separator must be in the alphabet"),
    ],
)
def test_decode_refuses_an_alphabet_it_cannot_build(tmp_path, flags, message, capsys):
    logits = write_json_logits(tmp_path / "a.json", [[1.0, 0.0]])
    rc, out, err = run_cli(["decode", logits, *flags], capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: --alphabet/--separator:") and message in err


@pytest.mark.parametrize(
    "flag",
    [
        ["--unk-subword-penalty=nan"],
        ["--unk-subword-penalty=-inf"],
        ["--unk-word-penalty=-10,nan"],
        ["--unk-word-penalty=inf"],
        ["--unk-subword-penalty", "-inf"],
        ["--unk-subword-penalty", "-Infinity"],
        ["--unk-word-penalty", "-NaN"],
        ["--unk-word-penalty", "-inf,-10"],
    ],
)
def test_decode_rejects_non_finite_penalties(tiny_setup, flag, capsys):
    """``--unk-subword-penalty nan`` used to print ``score nan`` and a
    garbage transcript with exit 0; it is a usage error naming the flag.
    A negative non-finite value after a space is read as the flag's
    value and refused so, not as a missing value."""
    argv = [
        "decode",
        tiny_setup["logits"],
        "--alphabet",
        "ab ",
        "--lexicon",
        tiny_setup["general"],
        "--lexicon",
        tiny_setup["jargon"],
        "--fusion",
        "coloring",
        "--lm",
        tiny_setup["general_lm"],
        "--lm",
        tiny_setup["jargon_lm"],
        *flag,
    ]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"argument {flag[0].split('=')[0]}: must be finite" in err


_REFUSED_SCORER_FLAGS = [
    ("decode", ["--alpha", "inf"], "--alpha: must be finite"),
    ("decode", ["--beta", "nan"], "--beta: must be finite"),
    ("eval", ["--beta", "nan"], "--beta: must be finite"),
    ("decode", ["--lambda", "2"], "--lambda: must lie in [0, 1]"),
    ("eval", ["--lambda=-0.5"], "--lambda: must lie in [0, 1]"),
    ("decode", ["--unk-word-penalty", "nan"], "--unk-word-penalty: must be finite"),
    ("decode", ["--unk-subword-penalty", "inf"],
     "--unk-subword-penalty: must be finite"),
    ("decode", ["--bins", "0"], "--bins: must be at least 1"),
    ("gridsearch", ["--alphas", "1,inf"], "--alphas: must be finite"),
    ("gridsearch", ["--betas", "nan"], "--betas: must be finite"),
    ("gridsearch", ["--lambdas", "0.5,1.5"], "--lambdas: must lie in [0, 1]"),
    ("gridsearch", ["--bin-counts", "53,0"], "--bin-counts: must be at least 1"),
    ("eval", ["--alpha", "abc"], "--alpha: not a number: 'abc'"),
]


@pytest.mark.parametrize(
    "command, flags, message",
    _REFUSED_SCORER_FLAGS,
    ids=[f"{c}{f[0].split('=')[0]}" for c, f, _ in _REFUSED_SCORER_FLAGS],
)
def test_scorer_flags_the_library_refuses_are_usage_errors(
    tmp_path, command, flags, message, capsys
):
    """Each used to reach ``ScorerConfig`` or ``fit_bin_table`` and exit 1,
    the data-error code, with a message that named no flag. Parsing
    refuses it first, before any input is read."""
    argv = [command, str(tmp_path / "missing"), *flags]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"error: argument {message}" in err


def test_linear_fusion_requires_two_models(tiny_setup, capsys):
    argv = [
        "decode",
        tiny_setup["logits"],
        "--fusion",
        "linear",
        "--lm",
        tiny_setup["general_lm"],
    ]
    rc, _, err = run_cli(argv, capsys)
    assert rc == 2
    assert err.startswith("error:")
    assert "exactly two" in err


def test_coloring_fusion_requires_lexicons(tiny_setup, capsys):
    argv = [
        "decode",
        tiny_setup["logits"],
        "--fusion",
        "coloring",
        "--lm",
        tiny_setup["general_lm"],
    ]
    rc, _, err = run_cli(argv, capsys)
    assert rc == 2
    assert "--fusion coloring needs --lexicon files" in err
    argv += ["--lexicon", tiny_setup["general"], "--lexicon", tiny_setup["jargon"]]
    rc, _, err = run_cli(argv, capsys)
    assert rc == 2
    assert "--fusion coloring needs as many --lm files as --lexicon files" in err


@pytest.mark.parametrize("command", ["eval", "gridsearch"])
def test_coloring_needs_one_model_per_lexicon_on_a_manifest(synth_dir, command, capsys):
    """``eval`` and ``gridsearch`` refuse a coloring model count that
    differs from the lexicon count as ``decode`` does, with exit 2, not
    with the scorer's error after the lexicons are read."""
    argv = [
        command,
        str(synth_dir / "manifest.jsonl"),
        "--lexicon",
        str(synth_dir / "general.txt"),
        "--lexicon",
        str(synth_dir / "jargon.txt"),
        "--fusion",
        "coloring",
        "--lm",
        str(synth_dir / "general.arpa"),
    ]
    rc, out, err = run_cli(argv, capsys)
    assert rc == 2
    assert out == ""
    assert err == "error: --fusion coloring needs as many --lm files as --lexicon files\n"


@pytest.mark.parametrize("command", ["decode", "eval", "gridsearch"])
def test_a_model_without_fusion_is_a_usage_error(synth_dir, command, capsys):
    """``--fusion none`` is the default, so a ``--lm`` given without a
    fusion method used to be dropped silently."""
    source = (
        str(synth_dir / "logits" / "utt0000.ctcl")
        if command == "decode"
        else str(synth_dir / "manifest.jsonl")
    )
    argv = [
        command,
        source,
        "--lexicon",
        str(synth_dir / "general.txt"),
        "--lm",
        str(synth_dir / "general.arpa"),
    ]
    rc, out, err = run_cli(argv, capsys)
    assert rc == 2
    assert out == ""
    assert err == "error: --fusion none takes no --lm file\n"


@pytest.mark.parametrize("command", ["eval", "gridsearch"])
def test_an_empty_manifest_is_a_data_error(synth_dir, tmp_path, command, capsys):
    """A manifest with no utterances used to print WER 0.00 for 0
    utterances, or ``searched 500 configurations`` and a "best" point;
    it has no error rate, so both subcommands exit 1 and print nothing."""
    manifest = tmp_path / "empty.jsonl"
    manifest.write_text("\n", encoding="utf-8")
    argv = [
        command,
        str(manifest),
        "--lexicon",
        str(synth_dir / "general.txt"),
        "--lexicon",
        str(synth_dir / "jargon.txt"),
        "--fusion",
        "coloring",
        "--lm",
        str(synth_dir / "general.arpa"),
        "--lm",
        str(synth_dir / "jargon.arpa"),
    ]
    rc, out, err = run_cli(argv, capsys)
    assert rc == 1
    assert out == ""
    assert err == "error: the manifest has no utterances\n"


@pytest.mark.parametrize(
    "argv",
    [["eval"], ["eval", "--json"], ["gridsearch", "--betas", "0"]],
    ids=["eval", "eval-json", "gridsearch"],
)
def test_references_without_a_word_are_a_data_error(synth_dir, tmp_path, argv, capsys):
    """A manifest whose references are all empty used to print WER inf
    (``Infinity`` under ``--json``), or ``wer inf`` with point 0 named
    best; it has no error rate, so it exits 1 before any decode."""
    shutil.copy(synth_dir / "logits" / "utt0000.ctcl", tmp_path / "u0.ctcl")
    manifest = tmp_path / "empty-references.jsonl"
    manifest.write_text(
        '{"id": "u0", "logits": "u0.ctcl", "reference": ""}\n'
        '{"id": "u1", "logits": "u0.ctcl", "reference": []}\n',
        encoding="utf-8",
    )
    command, *flags = argv
    rc, out, err = run_cli(
        [command, str(manifest), "--lexicon", str(synth_dir / "general.txt"), *flags],
        capsys,
    )
    assert rc == 1
    assert out == ""
    assert err == "error: no reference in the manifest holds a word\n"


def _exit_abruptly(task):
    """Stands in for ``evaluation._decode_task`` in a worker: the process
    dies as one killed from outside does, with no exception to report."""
    os._exit(9)


@pytest.mark.parametrize(
    "command, flags",
    [("eval", []), ("gridsearch", ["--betas", "0,0.5"])],
    ids=["eval", "gridsearch"],
)
def test_a_worker_that_dies_is_a_data_error(
    synth_dir, monkeypatch, capsys, command, flags
):
    """A worker process that stops abruptly used to end the run in a
    ``BrokenProcessPool`` traceback. The run exits 1 with one line that
    says so and names the way round it, and leaves no worker running."""
    monkeypatch.setattr(evaluation, "_decode_task", _exit_abruptly)
    argv = [
        command, str(synth_dir / "manifest.jsonl"),
        "--lexicon", str(synth_dir / "general.txt"),
        "--beam-width", "4", "--jobs", "2", *flags,
    ]
    rc, out, err = run_cli(argv, capsys)
    assert rc == 1
    assert out == ""
    assert err.startswith("error: a worker process stopped abruptly")
    assert err.count("\n") == 1 and "--jobs 1" in err
    assert multiprocessing.active_children() == []


def test_eval_requires_a_lexicon(synth_dir, capsys):
    rc, _, err = run_cli(["eval", str(synth_dir / "manifest.jsonl")], capsys)
    assert rc == 2
    assert "--lexicon" in err or "lexicon" in err


def test_bins_requires_calibration_manifest(tiny_setup, capsys):
    argv = [
        "decode",
        tiny_setup["logits"],
        "--fusion",
        "bins",
        "--lm",
        tiny_setup["general_lm"],
        "--lm",
        tiny_setup["jargon_lm"],
        "--lexicon",
        tiny_setup["general"],
    ]
    rc, _, err = run_cli(argv, capsys)
    assert rc == 2
    assert "--calibration-manifest" in err


@pytest.mark.parametrize(
    "argv",
    [["eval", "--bins", "1000000000", "--jobs", "1"],
     ["gridsearch", "--bin-counts", "53,1000000000", "--alphas", "1",
      "--betas", "0", "--word-penalties", "-10", "--jobs", "1"]],
    ids=["eval", "gridsearch"],
)
def test_any_bin_count_fits(synth_dir, argv, capped_address_space, capsys):
    """A bin table holds only the cells calibration fills, so 10**9 bins
    cost what 53 do. A table of every cell used to run out of memory and
    blame the beam width."""
    command, *flags = argv
    lms = [a for name in ("general", "jargon")
           for a in ("--lm", str(synth_dir / f"{name}.arpa"))]
    rc, out, err = run_cli(
        [command, str(synth_dir / "manifest.jsonl"),
         "--lexicon", str(synth_dir / "general.txt"),
         "--lexicon", str(synth_dir / "jargon.txt"), "--fusion", "bins", *lms,
         "--calibration-manifest", str(synth_dir / "manifest.jsonl"),
         "--beam-width", "4", *flags],
        capsys,
    )
    assert (rc, err) == (0, "")
    assert "bins" in out


EMPTY_ARPA = "\\data\\\nngram 1=0\n\n\\1-grams:\n\n\\end\\\n"


@pytest.mark.parametrize("command", ["decode", "eval", "gridsearch"])
def test_a_calibration_over_models_without_words_is_a_data_error(
    tiny_setup, command, capsys
):
    """Calibration draws its negatives from the models' words. Over two
    models that hold none, each bins subcommand used to end in an
    ``IndexError`` traceback; it exits 1 with one line naming the cause."""
    root = tiny_setup["dir"]
    empty = root / "empty.arpa"
    empty.write_text(EMPTY_ARPA, encoding="utf-8")
    manifest = root / "manifest.jsonl"
    manifest.write_text(
        json.dumps({"id": "u0", "logits": tiny_setup["logits"],
                    "reference": "aa bb"}) + "\n",
        encoding="utf-8",
    )
    target = tiny_setup["logits"] if command == "decode" else str(manifest)
    argv = [command, target, "--alphabet", "ab ", "--fusion", "bins",
            "--lm", str(empty), "--lm", str(empty),
            "--lexicon", tiny_setup["general"],
            "--calibration-manifest", str(manifest)]
    rc, out, err = run_cli(argv, capsys)
    assert (rc, out, err) == (
        1, "",
        "error: neither model holds a word, so no negative pair can be drawn\n",
    )


# ---------------------------------------------------------------------------
# runtime failures (exit code 1)
# ---------------------------------------------------------------------------


def test_missing_logits_file_fails_cleanly(tmp_path, capsys):
    rc, _, err = run_cli(["decode", str(tmp_path / "nope.json")], capsys)
    assert rc == 1
    assert err.startswith("error:")


def test_malformed_model_fails_cleanly(tiny_setup, capsys):
    bad = tiny_setup["dir"] / "bad.arpa"
    bad.write_text("this is not a model\n", encoding="utf-8")
    argv = [
        "decode",
        tiny_setup["logits"],
        "--fusion",
        "general",
        "--lm",
        str(bad),
        "--lexicon",
        tiny_setup["general"],
    ]
    rc, _, err = run_cli(argv, capsys)
    assert rc == 1
    assert err.startswith("error:")


def test_manifest_with_missing_logits_fails_cleanly(tmp_path, capsys):
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text(
        json.dumps({"id": "u1", "logits": "missing.ctcl", "reference": "aa"})
        + "\n",
        encoding="utf-8",
    )
    lexicon = tmp_path / "lex.txt"
    lexicon.write_text("aa\n", encoding="utf-8")
    rc, _, err = run_cli(
        ["eval", str(manifest), "--lexicon", str(lexicon)], capsys
    )
    assert rc == 1
    assert err.startswith("error:")


def test_lexicon_outside_alphabet_fails_cleanly(tmp_path, capsys):
    logits = write_json_logits(tmp_path / "x.json", [[1.0, 0.0, 0.0, 0.0]])
    lexicon = tmp_path / "lex.txt"
    lexicon.write_text("zz\n", encoding="utf-8")
    rc, _, err = run_cli(
        ["decode", logits, "--alphabet", "ab ", "--lexicon", str(lexicon)],
        capsys,
    )
    assert rc == 1
    assert err.startswith("error:")


# (file kind, malformation) -> (file contents, None for a directory or a
# missing file; the fault stderr names). A lexicon cut short is still a
# list of words, so only a cut inside a character shows.
BAD_INPUT_FILES = {
    ("arpa", "non-utf8"): (
        b"\\data\\\nngram 1=1\n\\1-grams:\n-0.3 \xd0a\n", "not UTF-8 text"
    ),
    ("arpa", "empty"): (b"", "expected \\data\\ header"),
    ("arpa", "bad line"): (
        b"\\data\\\nngram 1=1\n\\1-grams:\nnope aa\n\\end\\\n",
        "line 4: bad log probability 'nope'",
    ),
    ("arpa", "directory"): (None, "Is a directory"),
    ("arpa", "missing"): (None, "No such file or directory"),
    ("arpa", "truncated"): (
        b"\\data\\\nngram 1=2\n\n\\1-grams:\n-0.3\taa\n",
        "\\1-grams: section has 1 entries, header declared 2",
    ),
    ("lexicon", "non-utf8"): (b"aa\n\xd0b\n", "not UTF-8 text"),
    ("lexicon", "empty"): (b"# no words\n\n", "no words"),
    ("lexicon", "bad line"): (
        b"aa\nzz\n", "word 'zz' contains 'z' outside the alphabet"
    ),
    ("lexicon", "directory"): (None, "Is a directory"),
    ("lexicon", "missing"): (None, "No such file or directory"),
    ("lexicon", "truncated"): (b"aa\nb\xc3", "not UTF-8 text"),
}


def _bad_input_argv(command, kind, bad, setup):
    if command == "merge-lm":
        return ["merge-lm", "--lm", setup["general_lm"], "--lm", bad,
                "--out", str(setup["dir"] / "merged.arpa")]
    lms = [setup["general_lm"], setup["jargon_lm"]]
    lexicons = [setup["general"], setup["jargon"]]
    (lms if kind == "arpa" else lexicons)[1] = bad
    source = setup["logits"]
    if command != "decode":
        source = str(setup["dir"] / "manifest.jsonl")
        with open(source, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"id": "u0", "logits": setup["logits"],
                                 "reference": "aa bb"}) + "\n")
    return [command, source, "--alphabet", "ab ", "--fusion", "coloring",
            "--lm", lms[0], "--lm", lms[1],
            "--lexicon", lexicons[0], "--lexicon", lexicons[1]]


@pytest.mark.parametrize(
    "command, kind, malformation",
    [(command, kind, malformation)
     for command in ("decode", "eval", "gridsearch")
     for kind, malformation in BAD_INPUT_FILES]
    + [("merge-lm", "arpa", malformation) for kind, malformation in BAD_INPUT_FILES
       if kind == "arpa"],
)
def test_bad_model_and_lexicon_files_are_named(
    tiny_setup, command, kind, malformation, capsys
):
    """A model or lexicon file that is missing, a directory, empty,
    truncated, not UTF-8 or holds a bad line exits 1 with an error
    naming the file and its fault, whichever command reads it."""
    contents, fault = BAD_INPUT_FILES[kind, malformation]
    bad = tiny_setup["dir"] / f"bad-{kind}"
    if malformation == "directory":
        bad.mkdir()
    elif malformation != "missing":
        bad.write_bytes(contents)
    rc, out, err = run_cli(_bad_input_argv(command, kind, str(bad), tiny_setup), capsys)
    assert rc == 1
    assert out == ""
    assert "Traceback" not in err
    assert any(
        line.startswith("error: ") and str(bad) in line and fault in line
        for line in err.splitlines()
    ), err


@pytest.mark.parametrize("command", ["decode", "eval", "gridsearch"])
def test_a_bad_word_in_a_union_trie_is_named_by_its_file(tiny_setup, command, capsys):
    """Every fusion but coloring builds one trie from all its lexicon
    files, so a word the alphabet refuses is found in the union; the
    error still names the file that holds it, here the second one."""
    bad = tiny_setup["dir"] / "bad-lexicon.txt"
    bad.write_text("bb\nzz\n", encoding="utf-8")
    # the command, its logits or manifest, and the alphabet
    argv = _bad_input_argv(command, "lexicon", str(bad), tiny_setup)[:4]
    argv += ["--fusion", "general", "--lm", tiny_setup["general_lm"],
             "--lexicon", tiny_setup["general"], "--lexicon", str(bad)]
    rc, out, err = run_cli(argv, capsys)
    assert rc == 1
    assert out == ""
    assert "Traceback" not in err
    assert any(
        line.startswith(f"error: {bad}: ")
        and "word 'zz' contains 'z' outside the alphabet" in line
        for line in err.splitlines()
    ), err


def ctcl_bytes(natural_log_rows) -> bytes:
    rows = np.asarray(natural_log_rows, dtype="<f8")
    header = f"{rows.shape[0]} {rows.shape[1]}\n".encode("ascii")
    return MAGIC + header + rows.tobytes()


def json_bytes(doc) -> bytes:
    return json.dumps(doc).encode("utf-8")


BAD_LOGITS = {
    # 28 columns (27 characters plus blank), each 0.5: the row sums to 14
    "rows-sum-14.ctcl": ctcl_bytes(np.log(np.full((2, 28), 0.5))),
    # proper distributions, but 5 columns where the alphabet needs 28
    "five-columns.ctcl": ctcl_bytes(np.log(np.full((2, 5), 0.2))),
    # frames numpy cannot turn into a float matrix
    "ragged.json": json_bytes({"frames": [[0.5, 0.5], [1.0]]}),
    "non-numeric.json": json_bytes({"frames": [[0.5, "a"]]}),
    # no frames, and a column count that is not an integer
    "text-columns.json": json_bytes({"frames": [], "columns": "x"}),
    # rows as wide as the alphabet needs, under a column count they contradict
    "contradicted-columns.json": json_bytes({"frames": [[1 / 28] * 28], "columns": 3}),
}
JSON_BAD_LOGITS = sorted(name for name in BAD_LOGITS if name.endswith(".json"))


def _manifest_with_bad_logits(synth_dir, tmp_path, bad_name):
    """A two-row manifest: a good logits file, then ``bad_name``."""
    good = shutil.copy(synth_dir / "logits" / "utt0000.ctcl", tmp_path / "good.ctcl")
    bad = tmp_path / bad_name
    bad.write_bytes(BAD_LOGITS[bad_name])
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text(
        "".join(
            json.dumps({"id": f"u{i}", "logits": str(path), "reference": "a"}) + "\n"
            for i, path in enumerate([good, bad])
        ),
        encoding="utf-8",
    )
    return manifest


@pytest.mark.parametrize("bad_name", sorted(BAD_LOGITS))
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_eval_names_the_malformed_logits_file(
    synth_dir, tmp_path, capsys, jobs, bad_name
):
    manifest = _manifest_with_bad_logits(synth_dir, tmp_path, bad_name)
    argv = [
        "eval",
        str(manifest),
        "--lexicon",
        str(synth_dir / "general.txt"),
        "--beam-width",
        "4",
        "--jobs",
        jobs,
    ]
    rc, out, err = run_cli(argv, capsys)
    assert rc == 1
    assert out == ""
    assert err.startswith("error:") and bad_name in err
    assert "Traceback" not in err


@pytest.mark.parametrize("bad_name", sorted(BAD_LOGITS))
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_gridsearch_names_the_malformed_logits_file(
    synth_dir, tmp_path, capsys, jobs, bad_name
):
    """Every grid point decodes through one stream; the first bad file
    still aborts the search and is named."""
    manifest = _manifest_with_bad_logits(synth_dir, tmp_path, bad_name)
    argv = [
        "gridsearch",
        str(manifest),
        "--lexicon",
        str(synth_dir / "general.txt"),
        "--betas",
        "0.0,0.5,1.0",
        "--beam-width",
        "4",
        "--jobs",
        jobs,
    ]
    rc, out, err = run_cli(argv, capsys)
    assert rc == 1
    assert out == ""
    assert err.startswith("error:") and bad_name in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["decode", "eval", "gridsearch"])
def test_a_missing_logits_file_is_named(synth_dir, tmp_path, capsys, command):
    """A logits file that does not exist exits 1 with an error saying
    so; named by a manifest row, the error names the manifest and the
    row's line as well."""
    missing = tmp_path.resolve() / "missing.ctcl"
    lexicon = ["--lexicon", str(synth_dir / "general.txt")]
    if command == "decode":
        argv = ["decode", str(missing), *lexicon]
        fault = f"logits file {missing} does not exist"
    else:
        manifest = tmp_path / "manifest.jsonl"
        good = str(synth_dir / "logits" / "utt0000.ctcl")
        manifest.write_text(
            "".join(
                json.dumps({"id": f"u{i}", "logits": path, "reference": "a"}) + "\n"
                for i, path in enumerate([good, "missing.ctcl"])
            ),
            encoding="utf-8",
        )
        argv = [command, str(manifest), *lexicon]
        fault = f"logits file {missing} does not exist (manifest {manifest}, line 2)"
    rc, out, err = run_cli(argv, capsys)
    assert rc == 1
    assert out == ""
    assert "Traceback" not in err
    assert f"error: {fault}" in err.splitlines(), err


# malformation -> (logits file contents, None for a directory; the fault
# stderr names). The tiny setup's alphabet "ab " needs 4 columns.
BAD_LOGITS_FILES = {
    "directory": (None, "Is a directory"),
    "empty": (b"", "binary nor JSON"),
    "bad header": (MAGIC + b"2 x\n", "non-integer header fields"),
    "truncated body": (
        ctcl_bytes(np.log(np.full((2, 4), 0.25)))[:-8],
        "body has 56 bytes, expected 64",
    ),
    "NaN": (b'{"frames": [[NaN, 0.5, 0.25, 0.25]]}', "rows must be probabilities"),
    "wrong columns": (
        ctcl_bytes(np.log(np.full((2, 5), 0.2))), "logits have 5 columns"
    ),
}


@pytest.mark.parametrize("command", ["decode", "eval", "gridsearch"])
@pytest.mark.parametrize("malformation", sorted(BAD_LOGITS_FILES))
def test_bad_logits_files_are_named(tiny_setup, capsys, command, malformation):
    """A logits file given to ``decode``, or named by the one row of a
    manifest given to ``eval`` or to ``gridsearch`` (in process and
    through its worker pool), that cannot be decoded exits 1 with an
    error naming the file and its fault."""
    contents, fault = BAD_LOGITS_FILES[malformation]
    bad = tiny_setup["dir"] / "bad-logits"
    if contents is None:
        bad.mkdir()
    else:
        bad.write_bytes(contents)
    if command == "decode":
        source = bad
    else:
        source = tiny_setup["dir"] / "manifest.jsonl"
        source.write_text(
            json.dumps({"id": "u0", "logits": str(bad), "reference": "aa"}) + "\n",
            encoding="utf-8",
        )
    argv = [command, str(source), "--alphabet", "ab ", "--lexicon", tiny_setup["general"]]
    runs = [argv]
    if command == "gridsearch":
        runs = [argv + ["--betas", "0.0,0.5", "--jobs", jobs] for jobs in ("1", "2")]
    for run in runs:
        rc, out, err = run_cli(run, capsys)
        assert rc == 1
        assert out == ""
        assert "Traceback" not in err
        assert any(
            line.startswith("error: ") and str(bad) in line and fault in line
            for line in err.splitlines()
        ), err


@pytest.mark.parametrize(
    "command, bad_role",
    [
        ("eval", "manifest"),
        ("gridsearch", "manifest"),
        ("decode", "calibration"),
        ("eval", "calibration"),
        ("gridsearch", "calibration"),
    ],
)
def test_a_manifest_that_is_not_utf8_is_named(
    synth_dir, tmp_path, command, bad_role, capsys
):
    """A manifest, or a ``--calibration-manifest``, holding a byte that
    is not UTF-8 exits 1 with an error naming the file."""
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b'{"id": "u0", "logits": "x.ctcl", "reference": "\xd0b"}\n')
    good = str(synth_dir / "manifest.jsonl")
    if command == "decode":
        first = str(synth_dir / "logits" / "utt0000.ctcl")
    else:
        first = str(bad) if bad_role == "manifest" else good
    argv = [
        command,
        first,
        "--lexicon",
        str(synth_dir / "general.txt"),
        "--lexicon",
        str(synth_dir / "jargon.txt"),
        "--fusion",
        "bins",
        "--lm",
        str(synth_dir / "general.arpa"),
        "--lm",
        str(synth_dir / "jargon.arpa"),
        "--calibration-manifest",
        str(bad) if bad_role == "calibration" else good,
        "--beam-width",
        "4",
    ]
    rc, out, err = run_cli(argv, capsys)
    assert rc == 1
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith(f"error: {bad}: not UTF-8 text: "), err


@pytest.mark.parametrize("command", ["decode", "eval", "gridsearch"])
def test_running_out_of_memory_names_the_beam_width(
    synth_dir, command, monkeypatch, capsys
):
    """A decode that raises ``MemoryError`` exits 1 with a message that
    names the beam width. The decoder is made to raise; no test
    exhausts memory."""

    def out_of_memory(logits, config):
        raise MemoryError

    monkeypatch.setattr(evaluation, "decode", out_of_memory)
    if command == "decode":
        argv = ["decode", str(synth_dir / "logits" / "utt0000.ctcl")]
    else:
        argv = [command, str(synth_dir / "manifest.jsonl"), "--jobs", "1"]
    if command == "gridsearch":
        argv += ["--betas", "0.0"]
    argv += ["--lexicon", str(synth_dir / "general.txt"), "--beam-width", "8"]
    rc, out, err = run_cli(argv, capsys)
    assert rc == 1
    assert out == ""
    assert err == (
        "error: out of memory at beam width 8; a narrower --beam-width needs less\n"
    )


def test_decode_names_the_malformed_logits_file(tmp_path, capsys):
    bad = tmp_path / "rows-sum-14.ctcl"
    bad.write_bytes(BAD_LOGITS["rows-sum-14.ctcl"])
    rc, out, err = run_cli(["decode", str(bad)], capsys)
    assert rc == 1
    assert out == ""
    assert err == f"error: {bad}: row 0 sums to 14.0, expected 1\n"


def test_decode_names_the_file_with_the_wrong_width(tmp_path, capsys):
    bad = tmp_path / "five-columns.ctcl"
    bad.write_bytes(BAD_LOGITS["five-columns.ctcl"])
    rc, out, err = run_cli(["decode", str(bad)], capsys)
    assert rc == 1
    assert out == ""
    assert err == f"error: {bad}: logits have 5 columns, alphabet needs 28\n"


@pytest.mark.parametrize("bad_name", JSON_BAD_LOGITS)
def test_decode_names_the_unconvertible_json_logits_file(tmp_path, capsys, bad_name):
    bad = tmp_path / bad_name
    bad.write_bytes(BAD_LOGITS[bad_name])
    rc, out, err = run_cli(["decode", str(bad)], capsys)
    assert rc == 1
    assert out == ""
    assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1


# malformation -> calibration manifest contents, None for a directory and
# "missing" for no file; the rows' logits are written beside them. A
# calibration manifest that is not UTF-8 is in
# test_a_manifest_that_is_not_utf8_is_named.
BAD_CALIBRATION_MANIFESTS = {
    "missing": "missing",
    "directory": None,
    "no reference": b'{"id": "u0", "logits": "u0.ctcl"}\n'
    b'{"id": "u1", "logits": "u0.ctcl", "reference": null}\n',
    "no word": b'{"id": "u0", "logits": "u0.ctcl", "reference": ""}\n'
    b'{"id": "u1", "logits": "u0.ctcl", "reference": []}\n',
}
# malformation -> the fault its error names
CALIBRATION_FAULTS = {
    "no reference": "no row has a reference",
    "no word": "no reference holds a word",
}


@pytest.mark.parametrize("command", ["decode", "eval", "gridsearch"])
@pytest.mark.parametrize("malformation", sorted(BAD_CALIBRATION_MANIFESTS))
def test_bad_calibration_manifests_are_named(
    synth_dir, tmp_path, capsys, command, malformation
):
    """A ``--calibration-manifest`` that is missing, a directory, or has
    no row with a reference or no reference with a word exits 1 with an
    error naming it and, when it reads, the fault."""
    contents = BAD_CALIBRATION_MANIFESTS[malformation]
    bad = tmp_path / "calibration.jsonl"
    shutil.copy(synth_dir / "logits" / "utt0000.ctcl", tmp_path / "u0.ctcl")
    if contents is None:
        bad.mkdir()
    elif contents != "missing":
        bad.write_bytes(contents)
    first = (
        str(synth_dir / "logits" / "utt0000.ctcl")
        if command == "decode"
        else str(synth_dir / "manifest.jsonl")
    )
    argv = [
        command, first,
        "--lexicon", str(synth_dir / "general.txt"),
        "--lexicon", str(synth_dir / "jargon.txt"),
        "--fusion", "bins",
        "--lm", str(synth_dir / "general.arpa"),
        "--lm", str(synth_dir / "jargon.arpa"),
        "--calibration-manifest", str(bad),
        "--beam-width", "4",
    ]
    rc, out, err = run_cli(argv, capsys)
    assert rc == 1
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("error: ") and str(bad) in err, err
    if malformation in CALIBRATION_FAULTS:
        assert err == (
            f"error: {bad}: {CALIBRATION_FAULTS[malformation]}, so there are no "
            "calibration pairs\n"
        )


# malformation -> (second row of a manifest whose first row is good,
# the start of the fault its error names)
MALFORMED_MANIFEST_ROWS = {
    "invalid-json": ('{"id": "u1", "logits"', "invalid JSON: "),
    "not-an-object": ('["u1", "u0.ctcl"]', "each line must be a JSON object"),
    "missing-id": ('{"logits": "u0.ctcl", "reference": "a"}', "missing or empty id"),
    "duplicate-id": ('{"id": "u0", "logits": "u0.ctcl", "reference": "a"}',
                     "duplicate id 'u0'"),
    "missing-logits": ('{"id": "u1", "reference": "a"}', "missing logits path"),
    "bad-reference": ('{"id": "u1", "logits": "u0.ctcl", "reference": 3}',
                      "reference must be a string or list of words"),
    "mask-without-reference": ('{"id": "u1", "logits": "u0.ctcl", "jargon_mask": []}',
                               "jargon_mask requires a reference"),
    "mask-not-booleans": (
        '{"id": "u1", "logits": "u0.ctcl", "reference": "a", "jargon_mask": [1]}',
        "jargon_mask must be a list of booleans",
    ),
    "mask-length": (
        '{"id": "u1", "logits": "u0.ctcl", "reference": "a b", "jargon_mask": [true]}',
        "jargon_mask length 1 does not match 2 reference words",
    ),
}


@pytest.mark.parametrize("command", ["decode", "eval", "gridsearch"])
@pytest.mark.parametrize("malformation", sorted(MALFORMED_MANIFEST_ROWS))
def test_a_malformed_manifest_row_names_its_file_and_line(
    synth_dir, tmp_path, capsys, command, malformation
):
    """A malformed row of the manifest of ``eval`` or ``gridsearch``, or
    of the ``--calibration-manifest`` of ``decode --fusion bins``, exits
    1 with one error line naming the file and the line."""
    row, fault = MALFORMED_MANIFEST_ROWS[malformation]
    shutil.copy(synth_dir / "logits" / "utt0000.ctcl", tmp_path / "u0.ctcl")
    bad = tmp_path / "bad.jsonl"
    bad.write_text(
        '{"id": "u0", "logits": "u0.ctcl", "reference": "a"}\n' + row + "\n",
        encoding="utf-8",
    )
    argv = ["--lexicon", str(synth_dir / "general.txt"), "--beam-width", "4"]
    if command == "decode":
        argv = [
            "decode", str(tmp_path / "u0.ctcl"), *argv,
            "--fusion", "bins",
            "--lm", str(synth_dir / "general.arpa"),
            "--lm", str(synth_dir / "jargon.arpa"),
            "--calibration-manifest", str(bad),
        ]
    else:
        argv = [command, str(bad), *argv]
    rc, out, err = run_cli(argv, capsys)
    assert rc == 1
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith(f"error: {bad}: line 2: {fault}") and err.count("\n") == 1, err


# a path prefix for files that do not exist: reading any of them would
# exit 1, not 2
NOWHERE = "/nonexistent"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["eval", f"{NOWHERE}.jsonl", "--fusion", "general",
          "--lm", f"{NOWHERE}.arpa"],
         "eval needs at least one --lexicon file"),
        (["gridsearch", f"{NOWHERE}.jsonl", "--fusion", "general",
          "--lm", f"{NOWHERE}.arpa"],
         "gridsearch needs at least one --lexicon file"),
        (["eval", f"{NOWHERE}.jsonl"], "eval needs at least one --lexicon file"),
        (["decode", f"{NOWHERE}.ctcl", "--fusion", "bins", "--lm", f"{NOWHERE}.arpa",
          "--lm", f"{NOWHERE}.arpa", "--lexicon", f"{NOWHERE}.txt"],
         "--fusion bins needs --calibration-manifest"),
        (["eval", f"{NOWHERE}.jsonl", "--fusion", "bins", "--lm", f"{NOWHERE}.arpa",
          "--lm", f"{NOWHERE}.arpa", "--lexicon", f"{NOWHERE}.txt"],
         "--fusion bins needs --calibration-manifest"),
        (["eval", f"{NOWHERE}.jsonl", "--fusion", "coloring",
          "--lm", f"{NOWHERE}.arpa"],
         "--fusion coloring needs --lexicon files"),
        (["gridsearch", f"{NOWHERE}.jsonl", "--fusion", "linear",
          "--lm", f"{NOWHERE}.arpa", "--lexicon", f"{NOWHERE}.txt"],
         "--fusion linear needs exactly two --lm files"),
        (["decode", f"{NOWHERE}.ctcl", "--fusion", "general",
          "--lm", f"{NOWHERE}.arpa", "--lm", f"{NOWHERE}.arpa"],
         "--fusion general needs exactly one --lm file"),
        (["eval", f"{NOWHERE}.jsonl", "--fusion", "jargon", "--lm", f"{NOWHERE}.arpa",
          "--lm", f"{NOWHERE}.arpa", "--lexicon", f"{NOWHERE}.txt"],
         "--fusion jargon needs exactly one --lm file"),
        (["merge-lm", "--out", f"{NOWHERE}.arpa"],
         "merge-lm needs at least one --lm file"),
        (["decode", f"{NOWHERE}.ctcl", "--fusion", "general", "--lm", f"{NOWHERE}.arpa",
          "--calibration-manifest", f"{NOWHERE}.jsonl"],
         "--fusion general takes no --calibration-manifest"),
        (["eval", f"{NOWHERE}.jsonl", "--fusion", "coloring",
          *["--lm", f"{NOWHERE}.arpa", "--lexicon", f"{NOWHERE}.txt"] * 2,
          "--calibration-manifest", f"{NOWHERE}.jsonl"],
         "--fusion coloring takes no --calibration-manifest"),
        (["gridsearch", f"{NOWHERE}.jsonl", "--lexicon", f"{NOWHERE}.txt",
          "--calibration-manifest", f"{NOWHERE}.jsonl"],
         "--fusion none takes no --calibration-manifest"),
    ],
    ids=[
        "eval-no-lexicon", "gridsearch-no-lexicon", "eval-no-lexicon-no-model",
        "decode-bins-no-calibration", "eval-bins-no-calibration",
        "eval-coloring-no-lexicon", "gridsearch-linear-one-model",
        "decode-general-two-models", "eval-jargon-two-models", "merge-lm-no-model",
        "decode-general-calibration", "eval-coloring-calibration",
        "gridsearch-none-calibration",
    ],
)
def test_flag_combinations_are_refused_before_any_file_is_read(
    argv, message, capsys, monkeypatch
):
    for name in ("load_arpa", "read_lexicon", "read_manifest", "_decode_file"):
        monkeypatch.setattr(cli, name, lambda *a, **k: pytest.fail("read a file"))
    rc, out, err = run_cli(argv, capsys)
    assert rc == 2
    assert out == ""
    assert "Traceback" not in err
    assert err == f"error: {message}\n"


def _takes_models(kind, count):
    """Whether ``make_scorer`` builds a ``kind`` scorer from ``count``
    models."""
    model = NGramModel(max_order=1, entries={("a",): (0.0, None)})
    table = fit_bin_table([(0.5, 0.5, True)], 1)
    try:
        make_scorer(kind, [model] * count, ScorerConfig(), bin_table=table)
    except MissingModel:
        return False
    return True


@pytest.mark.parametrize("count", range(4))
@pytest.mark.parametrize("kind", [k for k in SCORER_KINDS if k != "coloring"])
def test_decode_refuses_an_lm_count_exactly_when_make_scorer_does(
    kind, count, capsys, monkeypatch
):
    """The CLI checks the ``--lm`` count against the same table the
    library does: ``decode`` exits 2 before reading any file exactly
    when ``make_scorer`` refuses that many models for the kind, and
    otherwise goes on to read its files."""
    reads = []

    def read(*args, **kwargs):
        reads.append(args)
        raise OSError("read a file")

    for name in ("load_arpa", "read_lexicon", "read_manifest", "_decode_file"):
        monkeypatch.setattr(cli, name, read)
    calibration = ["--calibration-manifest", f"{NOWHERE}.jsonl"]
    argv = ["decode", f"{NOWHERE}.ctcl", "--fusion", kind,
            *(calibration if kind == "bins" else []),
            *["--lm", f"{NOWHERE}.arpa"] * count]
    rc, out, err = run_cli(argv, capsys)
    if _takes_models(kind, count):
        assert (rc, err) == (1, "error: read a file\n") and reads
    else:
        assert rc == 2 and not reads
        assert err.startswith(f"error: --fusion {kind} ") and "--lm file" in err


@pytest.mark.parametrize(
    "command, flag, dest, value, expected",
    [
        ("decode", "--unk-word-penalty", "word_penalties", "-10,-10", [-10.0, -10.0]),
        ("eval", "--unk-word-penalty", "word_penalties", "-10,-20.5", [-10.0, -20.5]),
        ("gridsearch", "--alphas", "alphas", "-0.5,1", [-0.5, 1.0]),
        ("gridsearch", "--betas", "betas", "-1.5,0", [-1.5, 0.0]),
        ("gridsearch", "--word-penalties", "word_penalties", "-10,-50", [-10.0, -50.0]),
        ("gridsearch", "--subword-penalties", "subword_penalties", "-3,-1", [-3.0, -1.0]),
        ("gridsearch", "--lambdas", "lams", "0.25,0.75", [0.25, 0.75]),
        ("gridsearch", "--bin-counts", "bin_counts", "4,9", [4, 9]),
    ],
    ids=[
        "decode-unk-word-penalty", "eval-unk-word-penalty", "alphas", "betas",
        "word-penalties", "subword-penalties", "lambdas", "bin-counts",
    ],
)
def test_a_list_flag_parses_alike_after_a_space_and_after_an_equals_sign(
    command, flag, dest, value, expected
):
    """A comma list parses to the same values after a space as after
    ``=``, also when its first value is negative: argparse used to take
    ``-10,-10`` for an option and refuse the flag as missing its
    argument."""
    parser = cli.build_parser()
    source = "x.ctcl" if command == "decode" else "m.jsonl"
    spaced = parser.parse_args([command, source, flag, value])
    joined = parser.parse_args([command, source, f"{flag}={value}"])
    assert getattr(spaced, dest) == getattr(joined, dest) == expected


def test_gridsearch_bins_calibrates_on_the_manifest_it_read(
    synth_dir, capsys, monkeypatch
):
    """Without ``--calibration-manifest``, a bins grid search calibrates
    on the utterances of its manifest, read once, and prints what it
    prints when that manifest is also named as the calibration one."""
    manifest = str(synth_dir / "manifest.jsonl")
    argv = [
        "gridsearch", manifest,
        "--lexicon", str(synth_dir / "general.txt"),
        "--lexicon", str(synth_dir / "jargon.txt"),
        "--fusion", "bins",
        "--lm", str(synth_dir / "general.arpa"),
        "--lm", str(synth_dir / "jargon.arpa"),
        "--alphas", "1.0", "--betas", "0.0", "--word-penalties", "-10",
        "--bin-counts", "4,9", "--beam-width", "4", "--all",
    ]
    rc, named, _ = run_cli(argv + ["--calibration-manifest", manifest], capsys)
    assert rc == 0
    reads = []
    real_read = cli.read_manifest

    def read_manifest(path):
        reads.append(path)
        return real_read(path)

    monkeypatch.setattr(cli, "read_manifest", read_manifest)
    rc, out, err = run_cli(argv, capsys)
    assert rc == 0 and err == ""
    assert reads == [manifest]
    assert out == named


# each single-value setting flag of decode and eval, by the ``GridSpec``
# field it sets, and the calibration seed, by its own name
SETTING_FLAGS = {
    "alphas": "--alpha", "betas": "--beta", "lams": "--lambda",
    "word_penalties": "--unk-word-penalty",
    "subword_penalties": "--unk-subword-penalty", "bin_counts": "--bins",
    "calibration_seed": "--calibration-seed",
}


def _reads_setting(kind, field):
    """Whether ``decode`` and ``eval`` read a setting flag with ``kind``
    over lexicons: a scorer setting exactly when ``kind``'s grid points
    vary in its field, the subword penalty for every kind (the decoder
    charges it), and the calibration seed for ``bins`` alone."""
    if field == "calibration_seed":
        return kind == "bins"
    return field == "subword_penalties" or _reads_field(kind, field)


@pytest.mark.parametrize("field", list(SETTING_FLAGS))
@pytest.mark.parametrize("kind", SCORER_KINDS)
@pytest.mark.parametrize("command", ["decode", "eval"])
def test_a_setting_flag_is_refused_exactly_when_its_kind_ignores_it(
    command, kind, field, capsys, monkeypatch
):
    """A single-value setting flag that ``kind`` would ignore exits 2,
    naming the kind and the flag, before any file is read; one that it
    reads goes on to read the files."""
    reads = []

    def read(*args, **kwargs):
        reads.append(args)
        raise OSError("read a file")

    for name in ("load_arpa", "read_lexicon", "read_manifest", "_decode_file"):
        monkeypatch.setattr(cli, name, read)
    flag = SETTING_FLAGS[field]
    source = f"{NOWHERE}.ctcl" if command == "decode" else f"{NOWHERE}.jsonl"
    calibration = ["--calibration-manifest", f"{NOWHERE}.jsonl"]
    argv = [command, source, "--fusion", kind,
            *["--lm", f"{NOWHERE}.arpa"] * len(KIND_MODELS[kind]),
            *["--lexicon", f"{NOWHERE}.txt"] * 2,
            *(calibration if kind == "bins" else []), flag, "1"]
    rc, out, err = run_cli(argv, capsys)
    if _reads_setting(kind, field):
        assert (rc, err) == (1, "error: read a file\n") and reads
    else:
        assert (rc, out, err) == (2, "", f"error: --fusion {kind} takes no {flag}\n")
        assert not reads


@pytest.mark.parametrize("kind", [k for k in SCORER_KINDS if k != "bins"])
def test_gridsearch_refuses_a_calibration_seed_outside_bins(kind, capsys, monkeypatch):
    """Only the bins method calibrates, so ``--calibration-seed`` with any
    other kind exits 2 before any file is read, as
    ``--calibration-manifest`` does."""
    for name in ("load_arpa", "read_lexicon", "read_manifest", "_decode_file"):
        monkeypatch.setattr(cli, name, lambda *a, **k: pytest.fail("read a file"))
    argv = ["gridsearch", f"{NOWHERE}.jsonl", "--fusion", kind,
            *["--lm", f"{NOWHERE}.arpa"] * len(KIND_MODELS[kind]),
            *["--lexicon", f"{NOWHERE}.txt"] * 2, "--calibration-seed", "3"]
    rc, out, err = run_cli(argv, capsys)
    assert (rc, out, err) == (
        2, "", f"error: --fusion {kind} takes no --calibration-seed\n"
    )


@pytest.mark.parametrize("kind", [k for k in SCORER_KINDS if k != "coloring"])
def test_decode_refuses_a_subword_penalty_without_lexicons(kind, capsys, monkeypatch):
    """Unconstrained decoding has no lexicon to leave, so it never charges
    an off-lexicon character: ``decode --unk-subword-penalty`` without
    ``--lexicon`` exits 2 before any file is read."""
    for name in ("load_arpa", "read_lexicon", "read_manifest", "_decode_file"):
        monkeypatch.setattr(cli, name, lambda *a, **k: pytest.fail("read a file"))
    calibration = ["--calibration-manifest", f"{NOWHERE}.jsonl"]
    argv = ["decode", f"{NOWHERE}.ctcl", "--fusion", kind,
            *["--lm", f"{NOWHERE}.arpa"] * len(KIND_MODELS[kind]),
            *(calibration if kind == "bins" else []),
            "--unk-subword-penalty", "-3"]
    rc, out, err = run_cli(argv, capsys)
    assert (rc, out, err) == (
        2, "", "error: --unk-subword-penalty needs --lexicon files\n"
    )


@pytest.mark.parametrize("kind", SCORER_KINDS)
def test_decode_without_setting_flags_builds_the_library_defaults(
    tiny_setup, kind, monkeypatch
):
    """With no setting flag, ``decode`` builds its scorer from
    ``ScorerConfig()`` itself and, for bins, a 53-bin table calibrated
    with ``calibration_pairs``' own seed."""

    class Built(Exception):
        pass

    def build_runtime(kind, lexicons, models, config, template, width, table):
        raise Built(config, table)

    monkeypatch.setattr(cli, "build_runtime", build_runtime)
    manifest = tiny_setup["dir"] / "manifest.jsonl"
    manifest.write_text(
        json.dumps({"id": "u0", "logits": tiny_setup["logits"],
                    "reference": "aa bb"}) + "\n",
        encoding="utf-8",
    )
    lms = [tiny_setup["general_lm"], tiny_setup["jargon_lm"]]
    calibration = ["--calibration-manifest", str(manifest)]
    argv = ["decode", tiny_setup["logits"], "--alphabet", "ab ", "--fusion", kind,
            *(a for i in KIND_MODELS[kind] for a in ("--lm", lms[i])),
            "--lexicon", tiny_setup["general"], "--lexicon", tiny_setup["jargon"],
            *(calibration if kind == "bins" else [])]
    with pytest.raises(Built) as exc:
        cli.main(argv)
    config, table = exc.value.args
    assert config == ScorerConfig()
    if kind == "bins":
        pairs = evaluation.calibration_pairs(
            read_manifest(manifest), [load_arpa(path) for path in lms], seed=0
        )
        assert table == fit_bin_table(pairs, 53)
        assert table.num_bins == 53
    else:
        assert table is None
