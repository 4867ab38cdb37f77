"""Acceptance suite: nine end-to-end checks, one printed PASS/FAIL line each.

Each test exercises a released behaviour at its stated tolerance and prints
a single summary line (visible under ``pytest -s``) before asserting, so a
plain run of this file doubles as an acceptance report.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import math
import random
import time

import pytest

from colordecode import cli
from colordecode.decoder import (
    DecodeStats,
    DecoderConfig,
    LogitsMatrix,
    decode,
)
from colordecode.evaluation import run_method_comparison
from colordecode.lexicon import ColoredAlphabet, build_trie
from colordecode.logmath import NEG_INF
from colordecode.metrics import cer, edit_distance, wer
from colordecode.ngram_lm import EMPTY_STATE, NGramModel, merge_colored
from colordecode.oracle import ctc_path_sum, run_verification
from colordecode.scorers import ScorerConfig, make_scorer

from conftest import random_c1_instance, random_rows
from reference_decoder import reference_decode


def _report(number: int, title: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"acceptance {number} ({title}): {status} - {detail}")


# ---------------------------------------------------------------------------
# 1. beam search matches the exhaustive oracle
# ---------------------------------------------------------------------------


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    report = run_verification(
        100,
        seed=20260815,
        max_frames=4,
        max_chars=3,
        min_colors=2,
    )
    elapsed = time.perf_counter() - start
    ok = report.ok and report.max_score_divergence <= 1e-9 and elapsed < 10.0
    _report(
        1,
        "oracle equivalence",
        ok,
        f"100 instances, {len(report.mismatches)} mismatches, max score "
        f"divergence {report.max_score_divergence:.2e}, {elapsed:.2f}s",
    )
    assert report.ok, report.mismatches[:3]
    assert report.max_score_divergence <= 1e-9
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 2. unconstrained CTC label probabilities sum to one
# ---------------------------------------------------------------------------


def test_criterion_2_ctc_normalization():
    rng = random.Random(4242)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        k = rng.randint(1, 3)
        chars = "abc"[:k]
        sep = chars[-1] if k >= 2 and rng.random() < 0.5 else None
        alphabet = ColoredAlphabet(tuple(chars), 1, sep)
        frames = rng.randint(0, 4)
        rows = random_rows(rng, frames, alphabet.num_columns)
        log_rows = LogitsMatrix.from_linear(
            rows, columns=alphabet.num_columns
        ).log10_rows()

        total = 0.0
        for length in range(frames + 1):
            for label in itertools.product(chars, repeat=length):
                cols = [alphabet.char_column(c) for c in label]
                total += 10.0 ** ctc_path_sum(log_rows, cols)
        worst = max(worst, abs(total - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    _report(
        2,
        "CTC normalization",
        ok,
        f"50 instances, max |sum - 1| = {worst:.2e}, {elapsed:.2f}s",
    )
    assert worst <= 1e-9
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 3. one lexicon degenerates to a plain single-lexicon search
# ---------------------------------------------------------------------------

_SATURATING_WIDTH = 5000


def _package_c1_decode(base_chars, separator, words, model, rows, alpha, beta):
    alphabet = ColoredAlphabet(tuple(base_chars), 1, separator)
    tries = [build_trie(alphabet, 0, sorted(words))]
    config = ScorerConfig(
        alpha=alpha,
        beta=beta,
        unknown_word_penalty=(-10.0,),
        unknown_subword_penalty=None,
    )
    scorer = make_scorer("coloring", [model], config)
    matrix = LogitsMatrix.from_linear(rows, columns=len(base_chars) + 1)
    return decode(
        matrix,
        DecoderConfig(alphabet, tries, scorer, beam_width=_SATURATING_WIDTH),
    )


def test_criterion_3_single_lexicon_degeneration():
    rng = random.Random(777)
    worst = 0.0
    for index in range(100):
        base_chars, separator, words, model, rows, alpha, beta = (
            random_c1_instance(rng)
        )
        got = _package_c1_decode(
            base_chars, separator, words, model, rows, alpha, beta
        )
        exp_words, exp_score = reference_decode(
            rows,
            base_chars,
            separator,
            words,
            model,
            alpha,
            beta,
            oov_log10=-10.0,
            beam_width=_SATURATING_WIDTH,
        )
        got_words = tuple(w for w, _ in got.words)
        assert got_words == exp_words, (
            f"instance {index}: {got_words!r} != {exp_words!r}"
        )
        if exp_score == NEG_INF or got.score == NEG_INF:
            assert got.score == exp_score, f"instance {index}"
        else:
            worst = max(worst, abs(got.score - exp_score))
            assert abs(got.score - exp_score) <= 1e-9, f"instance {index}"
    _report(
        3,
        "C=1 degeneration",
        True,
        f"100 instances identical, max score divergence {worst:.2e}",
    )


# ---------------------------------------------------------------------------
# 4. color branching adds no beams when lexicons partition one vocabulary
# ---------------------------------------------------------------------------


def test_criterion_4_branching_parity():
    base = tuple("abcdefgh ")
    groups = [
        ["aa", "ab", "b"],
        ["cc", "cd", "d"],
        ["ee", "ef", "f"],
        ["gg", "gh", "h"],
    ]
    union = sorted(w for g in groups for w in g)

    alpha1 = ColoredAlphabet(base, 1, " ")
    tries1 = [build_trie(alpha1, 0, union)]
    alpha4 = ColoredAlphabet(base, 4, " ")
    tries4 = [build_trie(alpha4, c, sorted(g)) for c, g in enumerate(groups)]
    scorer1 = make_scorer("none", [], ScorerConfig())
    scorer4 = make_scorer("none", [], ScorerConfig())

    rng = random.Random(99)
    checked_frames = 0
    for _ in range(20):
        frames = rng.randint(0, 5)
        rows = random_rows(rng, frames, len(base) + 1)
        matrix = LogitsMatrix.from_linear(rows, columns=len(base) + 1)

        stats1, stats4 = DecodeStats(), DecodeStats()
        out1 = decode(
            matrix, DecoderConfig(alpha1, tries1, scorer1, beam_width=64),
            stats=stats1,
        )
        out4 = decode(
            matrix, DecoderConfig(alpha4, tries4, scorer4, beam_width=64),
            stats=stats4,
        )
        assert stats1.expanded == stats4.expanded
        assert stats1.spawned == stats4.spawned
        assert tuple(w for w, _ in out1.words) == tuple(
            w for w, _ in out4.words
        )
        if out1.score != NEG_INF:
            assert abs(out1.score - out4.score) <= 1e-12
        checked_frames += frames
    _report(
        4,
        "branching parity",
        True,
        f"20 matrices ({checked_frames} frames): identical per-frame beam "
        "and extension counts for C=1 vs C=4",
    )


# ---------------------------------------------------------------------------
# 5. the merged colored model scores pure-color text identically
# ---------------------------------------------------------------------------


def _random_backoff_model(
    rng: random.Random, vocab: list[str], order: int | None = None
) -> NGramModel:
    if order is None:
        order = rng.choice([1, 2])
    entries: dict[tuple[str, ...], tuple[float, float | None]] = {}
    weights = [rng.random() + 0.05 for _ in vocab]
    total = sum(weights)
    for word, w in zip(vocab, weights):
        backoff = rng.uniform(-0.8, 0.0) if order == 2 else None
        entries[(word,)] = (math.log10(w / total), backoff)
    if order == 2:
        for a in vocab:
            for b in vocab:
                if rng.random() < 0.4:
                    entries[(a, b)] = (rng.uniform(-1.5, -0.1), None)
    return NGramModel(max_order=order, entries=entries)


def test_criterion_5_merge_fidelity():
    rng = random.Random(31337)
    vocab = ["aa", "bb", "cc", "dd"]
    # one bigram model with backoff weights, one unigram model, so queries
    # cover full-order hits, backoff walks, and context truncation
    models = [
        _random_backoff_model(rng, vocab, order=2),
        _random_backoff_model(rng, vocab, order=1),
    ]
    merged = merge_colored((m, c) for c, m in enumerate(models))

    queries = 0
    for _ in range(1000):
        color = rng.randint(0, 1)
        source = models[color]
        history = [
            rng.choice(vocab + ["zz"]) for _ in range(rng.randint(0, 3))
        ]
        word = rng.choice(vocab + ["zz"])

        src_state = EMPTY_STATE
        for h in history:
            src_state = source.advance(src_state, h)
        src_lp, _ = source.score_word(src_state, word)

        merged_state = EMPTY_STATE
        for h in history:
            merged_state = merged.advance(merged_state, f"{color}:{h}")
        merged_lp, _ = merged.score_word(merged_state, f"{color}:{word}")

        assert merged_lp == src_lp, (color, history, word)
        queries += 1
    _report(
        5,
        "merge fidelity",
        True,
        f"{queries} pure-color queries scored bit-identically "
        f"(orders {models[0].max_order} and {models[1].max_order}, "
        f"merged order {merged.max_order})",
    )


# ---------------------------------------------------------------------------
# 6. interpolation endpoints and the Bayes tie to linear 0.5
# ---------------------------------------------------------------------------


def test_criterion_6_fusion_identities():
    rng = random.Random(606)
    decode_checks = 0
    for _ in range(25):
        base_chars, separator, words, model_g, rows, alpha, beta = (
            random_c1_instance(rng)
        )
        model_j = _random_backoff_model(rng, sorted(words) or ["aa"])
        alphabet = ColoredAlphabet(tuple(base_chars), 1, separator)
        tries = [build_trie(alphabet, 0, sorted(words))]
        matrix = LogitsMatrix.from_linear(rows, columns=len(base_chars) + 1)

        def _run(scorer):
            return decode(
                matrix,
                DecoderConfig(alphabet, tries, scorer, beam_width=512),
            )

        for kind in ("linear", "loglinear"):
            for lam, single_kind, single_model in (
                (0.0, "general", model_g),
                (1.0, "jargon", model_j),
            ):
                config = ScorerConfig(
                    alpha=alpha,
                    beta=beta,
                    unknown_word_penalty=(-10.0, -10.0),
                    lam=lam,
                )
                mixed = _run(make_scorer(kind, [model_g, model_j], config))
                single = _run(make_scorer(single_kind, [single_model], config))
                assert mixed.words == single.words
                assert mixed.score == single.score  # bit-exact
                decode_checks += 1

    # Equal evidence on both sides: the adaptive mixture must sit at 0.5.
    model = _random_backoff_model(rng, ["aa", "bb", "cc"])
    config = ScorerConfig(unknown_word_penalty=(-10.0, -10.0), lam=0.5)
    worst = 0.0
    word_checks = 0
    for _ in range(50):
        bayes = make_scorer("bayes", [model, model], config)
        linear = make_scorer("linear", [model, model], config)
        st_b, st_l = bayes.initial_state(), linear.initial_state()
        for _ in range(rng.randint(1, 8)):
            word = rng.choice(["aa", "bb", "cc", "zz"])
            db, st_b = bayes.word_delta(st_b, word, 0)
            dl, st_l = linear.word_delta(st_l, word, 0)
            worst = max(worst, abs(db - dl))
            assert abs(db - dl) <= 1e-12
            word_checks += 1
    _report(
        6,
        "fusion identities",
        True,
        f"{decode_checks} endpoint decodes bit-identical; Bayes vs linear "
        f"0.5 over {word_checks} words, max gap {worst:.2e}",
    )


# ---------------------------------------------------------------------------
# 7. method ordering on the synthetic mixed-speech corpus
# ---------------------------------------------------------------------------


def test_criterion_7_method_ordering():
    start = time.perf_counter()
    lines = []
    ok = True
    for seed in (1, 2, 3):
        report, _ = run_method_comparison(seed, jobs=4)
        by = {r.method: r for r in report.results}
        col, lin = by["coloring"], by["linear"]
        log, gen = by["loglinear"], by["general"]
        seed_ok = (
            col.jargon_wer is not None
            and gen.jargon_wer is not None
            and log.jargon_wer is not None
            and col.jargon_wer < gen.jargon_wer
            and col.jargon_wer < log.jargon_wer
            and col.wer <= lin.wer + 1e-9
        )
        ok = ok and seed_ok
        lines.append(
            f"seed {seed}: coloring wer {col.wer:.2f} jargon "
            f"{col.jargon_wer:.2f} | linear wer {lin.wer:.2f} | loglinear "
            f"jargon {log.jargon_wer:.2f} | general jargon {gen.jargon_wer:.2f}"
        )
        assert seed_ok, lines[-1]
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 300.0
    _report(
        7,
        "method ordering",
        ok,
        f"{'; '.join(lines)}; total {elapsed:.1f}s",
    )
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# 8. metric ground truth
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _definition_distance(a: str, b: str) -> int:
    if not a:
        return len(b)
    if not b:
        return len(a)
    cost = 0 if a[-1] == b[-1] else 1
    return min(
        _definition_distance(a[:-1], b) + 1,
        _definition_distance(a, b[:-1]) + 1,
        _definition_distance(a[:-1], b[:-1]) + cost,
    )


def test_criterion_8_metric_ground_truth():
    fixture_wer = wer([("a", "b", "c")], [("a", "x", "c")])
    assert fixture_wer == pytest.approx(33.33, abs=0.01)
    assert cer([("ab",)], [("ab",)]) == 0.0
    assert cer([("ab",)], [("ac",)]) == 50.0
    # single-character single-word utterances make cer and wer agree
    refs = [("a",), ("b",), ("c",)]
    hyps = [("a",), ("x",), ("c",)]
    assert cer(refs, hyps) == pytest.approx(wer(refs, hyps), abs=1e-12)

    strings = [
        "".join(p)
        for n in range(7)
        for p in itertools.product("ab", repeat=n)
    ]
    pairs = 0
    for a in strings:
        for b in strings:
            assert edit_distance(a, b) == _definition_distance(a, b), (a, b)
            pairs += 1
    _report(
        8,
        "metric ground truth",
        True,
        f"wer fixture {fixture_wer:.2f}%, cer fixtures exact, edit distance "
        f"exhaustive over {pairs} pairs",
    )


# ---------------------------------------------------------------------------
# 9. command line output is deterministic and job-count independent
# ---------------------------------------------------------------------------


def _run_cli(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def test_criterion_9_cli_determinism(tmp_path):
    corpus = tmp_path / "corpus"
    rc, _ = _run_cli(
        [
            "synth",
            "--out",
            str(corpus),
            "--sentences",
            "6",
            "--noise",
            "0.2",
            "--seed",
            "11",
            "--min-words",
            "2",
            "--max-words",
            "3",
        ]
    )
    assert rc == 0

    shared = [
        "--lexicon",
        str(corpus / "general.txt"),
        "--lexicon",
        str(corpus / "jargon.txt"),
        "--fusion",
        "coloring",
        "--lm",
        str(corpus / "general.arpa"),
        "--lm",
        str(corpus / "jargon.arpa"),
        "--beam-width",
        "8",
    ]

    decode_argv = ["decode", str(corpus / "logits" / "utt0000.ctcl"), *shared]
    rc1, out1 = _run_cli(decode_argv)
    rc2, out2 = _run_cli(decode_argv)
    assert rc1 == rc2 == 0
    assert out1.encode() == out2.encode()

    def _eval_argv(jobs: int):
        return [
            "eval",
            str(corpus / "manifest.jsonl"),
            *shared,
            "--jobs",
            str(jobs),
        ]

    rc3, eval_j1a = _run_cli(_eval_argv(1))
    rc4, eval_j1b = _run_cli(_eval_argv(1))
    rc5, eval_j8 = _run_cli(_eval_argv(8))
    assert rc3 == rc4 == rc5 == 0
    assert eval_j1a.encode() == eval_j1b.encode()
    assert eval_j1a.encode() == eval_j8.encode()
    _report(
        9,
        "determinism",
        True,
        "decode and eval byte-identical across repeat runs and "
        "--jobs 1 vs --jobs 8",
    )
