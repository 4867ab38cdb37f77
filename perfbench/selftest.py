#!/usr/bin/env python3
"""Self-test of the benchmark's own checks, on a hand-built instance.

    python3 perfbench/selftest.py

Shows that the CTC forward recursion matches brute-force path
enumeration, that the independent rescoring agrees with ``decode`` on a
hand-built four-word utterance, and that the checks reject the same
transcript once its score or one of its colors has been altered. Takes
about a second; exits 1 on the first failed expectation.
"""

from __future__ import annotations

import itertools
import math
import os
import shutil
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from colordecode import corpus, decoder, evaluation  # noqa: E402

import checks  # noqa: E402
from workloads import CHARS, FIXED, TEMPLATE  # noqa: E402


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise AssertionError(what)
    print(f"ok  {what}")


def brute_force_ctc(logp: np.ndarray, labels: list[int], blank: int) -> float:
    total = 0.0
    for path in itertools.product(range(logp.shape[1]), repeat=logp.shape[0]):
        collapsed = [c for i, c in enumerate(path) if c != blank and (i == 0 or c != path[i - 1])]
        if collapsed == labels:
            total += math.exp(sum(logp[t, c] for t, c in enumerate(path)))
    return math.log10(total)


def tiny_language():
    """Three general words with a bigram chain, one jargon mutation, and
    one spelling (``dog``) in both lexicons."""
    general = ("cat", "ran", "dog")
    jargon = ("dog", "cap")
    lexicons = corpus.LexiconSets(general, jargon, shared=("dog",), mutations=("cap",))
    unigram = {"cat": 0.5, "ran": 0.3, "dog": 0.2}
    bigram = {
        "cat": {"cat": 0.1, "ran": 0.7, "dog": 0.2},
        "ran": {"cat": 0.4, "ran": 0.1, "dog": 0.5},
        "dog": {"cat": 0.3, "ran": 0.6, "dog": 0.1},
    }
    return corpus.SynthLanguage(lexicons, unigram, bigram, {"cap": 0.8, "dog": 0.2})


def main() -> int:
    rng = np.random.default_rng(7)
    raw = rng.random((4, 3)) + 0.05
    logp = np.log(raw / raw.sum(axis=1, keepdims=True))
    for labels in ([0, 1], [0, 0], [1]):
        expect(
            abs(checks.ctc_log10(logp, labels, 2) - brute_force_ctc(logp, labels, 2)) < 1e-12,
            f"CTC forward equals path enumeration for labels {labels}",
        )

    lang = tiny_language()
    general, jargon = corpus.language_models(lang)
    runtime = evaluation.build_runtime(
        "coloring", [lang.lexicons.general, lang.lexicons.jargon],
        [general, jargon], FIXED, TEMPLATE, 16,
    )
    reference = ("cat", "cap", "ran", "dog")
    workdir = HERE / "out" / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        path = workdir / "utt.ctcl"
        corpus.write_logits(
            corpus.synthesize_logits(" ".join(reference), runtime.alphabet, 0.25, 1), path
        )
        decoded = decoder.decode(corpus.read_logits(path), runtime.decoder_config())

        def errors(transcript):
            return checks.check_coloring_transcript(
                transcript, reference, path, lang, CHARS, FIXED
            )[0]

        expect([w for w, _ in decoded.words] == list(reference), "decode returns the reference")
        independent = checks.rescore(decoded.words, path, lang, CHARS, FIXED.alpha, FIXED.beta)
        expect(
            abs(decoded.score - independent) < 1e-12,
            f"rescoring agrees with decode ({decoded.score!r} vs {independent!r})",
        )
        expect(errors(decoded) == [], "checks accept the decoded transcript")
        for step in (1e-3, -1e-3):
            expect(
                len(errors(replace(decoded, score=decoded.score + step))) == 1,
                f"checks reject the score moved by {step}",
            )
        words = list(decoded.words)
        for index in (1, 3):
            word, color = words[index]
            altered = words[:index] + [(word, 1 - color)] + words[index + 1:]
            expect(
                len(errors(replace(decoded, words=tuple(altered)))) == 1,
                f"checks reject {word!r} recolored from {color} to {1 - color}",
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as exc:
        print(f"FAILED {exc}", file=sys.stderr)
        sys.exit(1)
