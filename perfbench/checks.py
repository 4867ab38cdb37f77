"""Output checks that do not rely on a stored copy of earlier output.

The rescoring here is independent of the decoder: it parses the logits
file itself, runs its own CTC forward recursion over the reference
characters, and prices words from the synthetic language's own unigram,
bigram and jargon tables instead of going through ``ngram_lm`` or
``scorers``.

The synthetic corpora put exactly one frame on each character (plus a
blank between repeated characters), so the reference spelling has a
single CTC path and the beam cannot lose any of its mass. A decoded
transcript that equals its reference therefore has to score what the
rescoring says, up to floating-point rounding.
"""

from __future__ import annotations

import math

import numpy as np

# the decoder sums the same terms in another order and base
ROUNDING_LOG10 = 1e-9
# largest allowed shortfall of the decoder's score below the rescoring
AGREEMENT_LOG10 = 1e-6

_MAGIC = b"CTCL1\n"
_LOG10_HALF = math.log10(0.5)


def read_natural_log(path) -> np.ndarray:
    """Parse a CTCL1 file: magic, 'frames columns' line, float64 LE body."""
    blob = open(path, "rb").read()
    if not blob.startswith(_MAGIC):
        raise ValueError(f"{path}: not a CTCL1 file")
    header, _, body = blob[len(_MAGIC):].partition(b"\n")
    frames, columns = (int(x) for x in header.split())
    return np.frombuffer(body, dtype="<f8").reshape(frames, columns)


def ctc_log10(logp: np.ndarray, labels: list[int], blank: int) -> float:
    """log10 of the total CTC probability of ``labels`` (standard forward
    recursion over the blank-interleaved label, natural log inside)."""
    frames = logp.shape[0]
    if not labels:
        return float(logp[:, blank].sum()) / math.log(10.0)
    ext = [blank]
    for lab in labels:
        ext += [lab, blank]
    ext_arr = np.array(ext)
    size = len(ext)
    # a skip over a blank is allowed unless it joins two equal labels
    skip = np.zeros(size, dtype=bool)
    for s in range(2, size):
        skip[s] = ext[s] != blank and ext[s] != ext[s - 2]
    neg = -np.inf
    alpha = np.full(size, neg)
    if frames == 0:
        return neg
    alpha[0] = logp[0, blank]
    alpha[1] = logp[0, ext[1]]
    for t in range(1, frames):
        prev1 = np.concatenate(([neg], alpha[:-1]))
        prev2 = np.where(skip, np.concatenate(([neg, neg], alpha[:-2])), neg)
        alpha = np.logaddexp(np.logaddexp(alpha, prev1), prev2) + logp[t, ext_arr]
    return float(np.logaddexp(alpha[-1], alpha[-2])) / math.log(10.0)


def lm_log10(words, lang, alpha: float, beta: float) -> float:
    """Coloring text score from the language's own tables: color 0 words
    follow the general bigram chain (unigram at the start and after a
    jargon word), color 1 words take their jargon unigram weight, and
    every word pays the uniform two-color prior."""
    total = 0.0
    prev = None
    for word, color in words:
        if color == 1:
            p = lang.jargon_weights[word]
        elif prev is not None and prev[1] == 0:
            p = lang.bigram[prev[0]][word]
        else:
            p = lang.unigram[word]
        total += alpha * (_LOG10_HALF + math.log10(p)) + beta
        prev = (word, color)
    return total


def rescore(words, logits_path, lang, chars: str, alpha: float, beta: float) -> float:
    """Independent score of a colored transcript over its logits file;
    ``chars`` lists the logits columns in order, blank last."""
    labels = [chars.index(c) for c in " ".join(w for w, _ in words)]
    acoustic = ctc_log10(read_natural_log(logits_path), labels, len(chars))
    return acoustic + lm_log10(words, lang, alpha, beta)


def lexicon_errors(words, lexicons) -> list[str]:
    """Words missing from the lexicon of their color; ``lexicons[c]`` is
    the set of words color ``c`` may spell."""
    bad = []
    for word, color in words:
        if not 0 <= color < len(lexicons) or word not in lexicons[color]:
            bad.append(f"{word!r} is not in the lexicon of color {color}")
    return bad


def score_error(decoded: float, independent: float) -> str | None:
    if decoded > independent + ROUNDING_LOG10:
        return f"decoder score {decoded!r} above rescoring {independent!r}"
    if independent - decoded > AGREEMENT_LOG10:
        return (
            f"decoder score {decoded!r} below rescoring {independent!r} by "
            f"more than {AGREEMENT_LOG10}"
        )
    return None


def check_coloring_transcript(
    transcript, reference, logits_path, lang, chars: str, config, off_lexicon=False
):
    """Errors for one coloring transcript: every word in the lexicon of
    its color (unless off-lexicon spelling is on), and, when the words
    equal the reference and all are on their lexicon, agreement with the
    independent rescoring. Returns the errors and whether it rescored."""
    lexicons = [set(lang.lexicons.general), set(lang.lexicons.jargon)]
    errors = lexicon_errors(transcript.words, lexicons)
    if errors or [w for w, _ in transcript.words] != list(reference):
        return ([] if off_lexicon else errors), False
    independent = rescore(
        transcript.words, logits_path, lang, chars, config.alpha, config.beta
    )
    err = score_error(transcript.score, independent)
    return ([err] if err else []), True
