"""Error-rate metrics and evaluation reports."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "LengthMismatch",
    "edit_distance",
    "align",
    "wer",
    "cer",
    "jargon_wer",
    "MethodResult",
    "EvalReport",
]


class LengthMismatch(ValueError):
    """Parallel sequences (references, hypotheses, masks) disagree in length."""


def edit_distance(ref: Sequence, hyp: Sequence) -> int:
    """Levenshtein distance with unit costs; elements must be hashable.

    Myers' bit-vector recurrence in Hyyrö's form: one column of the
    dynamic program per element of ``hyp``, as bit vectors over ``ref``
    held in Python ints (any length), so a column costs a few integer
    operations instead of ``len(ref)`` steps.
    """
    if ref == hyp:
        return 0
    if not ref:
        return len(hyp)
    if not hyp:
        return len(ref)
    # per element of ref, the bits of the positions holding it
    peq: dict = {}
    bit = 1
    for r in ref:
        peq[r] = peq.get(r, 0) | bit
        bit <<= 1
    full = bit - 1
    high = bit >> 1
    # vertical deltas +1 (pv) and -1 (mv) of the current column
    pv = full
    mv = 0
    dist = len(ref)
    for h in hyp:
        eq = peq.get(h, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & high:
            dist += 1
        elif mh & high:
            dist -= 1
        # the first row grows by one per column
        ph = (ph << 1) | 1
        mh <<= 1
        pv = (mh | ~(xv | ph)) & full
        mv = ph & xv
    return dist


def align(ref: Sequence, hyp: Sequence) -> list[tuple[int | None, int | None]]:
    """One minimal alignment as (ref index, hyp index) pairs.

    None marks the missing side of an insertion or deletion. Ties prefer
    the diagonal, then deletion, so the output is deterministic.
    """
    n, m = len(ref), len(hyp)
    if ref == hyp:
        return [(i, i) for i in range(n)]
    dist = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        dist[i][0] = i
    for j in range(m + 1):
        dist[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            dist[i][j] = min(
                dist[i - 1][j - 1] + (ref[i - 1] != hyp[j - 1]),
                dist[i - 1][j] + 1,
                dist[i][j - 1] + 1,
            )

    pairs: list[tuple[int | None, int | None]] = []
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and dist[i][j] == dist[i - 1][j - 1] + (
            ref[i - 1] != hyp[j - 1]
        ):
            pairs.append((i - 1, j - 1))
            i -= 1
            j -= 1
        elif i > 0 and dist[i][j] == dist[i - 1][j] + 1:
            pairs.append((i - 1, None))
            i -= 1
        else:
            pairs.append((None, j - 1))
            j -= 1
    pairs.reverse()
    return pairs


def _pooled_rate(edits: int, total: int) -> float:
    if total == 0:
        return 0.0 if edits == 0 else float("inf")
    return 100.0 * edits / total


def wer(refs: Sequence[Sequence[str]], hyps: Sequence[Sequence[str]]) -> float:
    """Corpus word error rate, percent, pooled over utterances."""
    if len(refs) != len(hyps):
        raise LengthMismatch(f"{len(refs)} references vs {len(hyps)} hypotheses")
    edits = sum(edit_distance(r, h) for r, h in zip(refs, hyps))
    total = sum(len(r) for r in refs)
    return _pooled_rate(edits, total)


def cer(refs: Sequence[Sequence[str]], hyps: Sequence[Sequence[str]]) -> float:
    """Corpus character error rate over space-joined word sequences."""
    if len(refs) != len(hyps):
        raise LengthMismatch(f"{len(refs)} references vs {len(hyps)} hypotheses")
    edits = 0
    total = 0
    for r, h in zip(refs, hyps):
        rc = " ".join(r)
        hc = " ".join(h)
        edits += edit_distance(rc, hc)
        total += len(rc)
    return _pooled_rate(edits, total)


def jargon_wer(
    refs: Sequence[Sequence[str]],
    masks: Sequence[Sequence[bool]],
    hyps: Sequence[Sequence[str]],
) -> float | None:
    """Error rate restricted to masked reference words.

    A masked reference word counts as an error when its aligned
    hypothesis word differs or it was deleted; insertions have no
    reference word and never count. Returns None when no reference word
    is masked anywhere.
    """
    if not (len(refs) == len(masks) == len(hyps)):
        raise LengthMismatch("references, masks and hypotheses must align")
    edits = 0
    total = 0
    for ref, mask, hyp in zip(refs, masks, hyps):
        if len(ref) != len(mask):
            raise LengthMismatch(
                f"mask length {len(mask)} vs reference length {len(ref)}"
            )
        total += sum(mask)
        for ri, hi in align(ref, hyp):
            if ri is None or not mask[ri]:
                continue
            if hi is None or hyp[hi] != ref[ri]:
                edits += 1
    if total == 0:
        return None
    return 100.0 * edits / total


@dataclass
class MethodResult:
    """Scores for one fusion method on one corpus."""

    method: str
    wer: float
    cer: float
    jargon_wer: float | None
    utterances: int
    config: dict | None = None


@dataclass
class EvalReport:
    """Results table for several methods on a shared corpus."""

    corpus: str
    results: list[MethodResult]

    def as_text(self) -> str:
        lines = [
            f"corpus: {self.corpus}",
            "rates are percent, pooled over all utterances",
            f"{'method':<12} {'WER':>8} {'CER':>8} {'jargon WER':>12} {'utts':>6}",
        ]
        for r in self.results:
            jw = f"{r.jargon_wer:.2f}" if r.jargon_wer is not None else "n/a"
            lines.append(
                f"{r.method:<12} {r.wer:>8.2f} {r.cer:>8.2f} {jw:>12} "
                f"{r.utterances:>6}"
            )
        return "\n".join(lines) + "\n"

    def as_json(self) -> str:
        payload = {
            "corpus": self.corpus,
            "results": [
                {
                    "method": r.method,
                    "wer": r.wer,
                    "cer": r.cer,
                    "jargon_wer": r.jargon_wer,
                    "utterances": r.utterances,
                    "config": r.config,
                }
                for r in self.results
            ],
        }
        return json.dumps(payload, indent=2) + "\n"
