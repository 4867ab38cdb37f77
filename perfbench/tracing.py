"""Span tracing of colordecode's layers, from outside the package.

The tracer replaces public functions and methods of the colordecode
modules with thin wrappers for the length of a traced phase, then puts
the originals back. Each wrapped call records one span: name, start,
end (``perf_counter_ns``), the enclosing span and the utterance being
decoded. Spans stay in memory in flat arrays and are written out once,
when the run ends. A layer's self time is its spans' durations minus
the time their child spans cover.

Wrappers are installed on the attribute the caller looks up: the
decoder calls ``word_successors`` through its own module namespace, so
that is where the wrapper goes. Nothing under ``src/`` changes.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

from colordecode import corpus, decoder, evaluation, metrics, ngram_lm, scorers

perf_ns = time.perf_counter_ns

# (owner, attribute, span name). Owners are modules or classes; the
# attribute is patched where the caller resolves it.
EVALUATION_TARGETS = [
    (ngram_lm, "load_arpa", "ngram_lm.load_arpa"),
    (corpus, "read_lexicon", "corpus.read_lexicon"),
    (corpus, "read_manifest", "corpus.read_manifest"),
    (scorers, "merge_colored", "ngram_lm.merge_colored"),
    (evaluation, "build_trie", "lexicon.build_trie"),
    (evaluation, "build_runtime", "evaluation.build_runtime"),
    (evaluation, "calibration_pairs", "evaluation.calibration_pairs"),
    (scorers, "fit_bin_table", "evaluation.fit_bin_table"),
    (evaluation, "decode_utterances", "evaluation.decode_utterances"),
    (metrics, "wer", "metrics.wer"),
    (metrics, "cer", "metrics.cer"),
    (metrics, "jargon_wer", "metrics.jargon_wer"),
    (evaluation, "wer", "metrics.wer"),
    (evaluation, "cer", "metrics.cer"),
    (evaluation, "jargon_wer", "metrics.jargon_wer"),
]

DECODER_TARGETS = [
    (corpus, "read_logits", "corpus.read_logits"),
    (decoder.LogitsMatrix, "log10_rows", "decoder.log10_rows"),
    (decoder, "get_best_beams", "decoder.get_best_beams"),
    (decoder, "word_successors", "lexicon.word_successors"),
    (decoder, "finish_word", "lexicon.finish_word"),
]

SCORER_CLASSES = [
    scorers.NullScorer,
    scorers.SingleLmScorer,
    scorers.ColoringScorer,
    scorers.InterpolationScorer,
    scorers.BayesScorer,
]


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.utt = array("i")
        self.stack: list[int] = []
        self.utterances: list[str] = []
        self.current_utt = -1
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        # decoder statistics gathered by the decode and ranking wrappers
        self.frames = 0
        self.rank_inputs: list[int] = []
        self.candidates = 0
        self.expanded = 0
        self.spawned = 0
        self.merged = 0
        self._delta_keys: set = set()
        self.delta_distinct = 0

    # -- spans ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.utt.append(self.current_utt)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(perf_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_ns()
        self.stack.pop()

    def set_utterance(self, utt_id: str | None) -> None:
        """Tag later spans with ``utt_id``; closes the previous
        utterance's count of distinct word_delta inputs."""
        self.delta_distinct += len(self._delta_keys)
        self._delta_keys.clear()
        if utt_id is None:
            self.current_utt = -1
            return
        self.current_utt = len(self.utterances)
        self.utterances.append(utt_id)

    # -- wrappers ------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper_for) -> None:
        original = vars(owner).get(attr)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper_for(original))

    def _spanning(self, name: str):
        def wrapper_for(fn):
            def wrapper(*args, **kwargs):
                idx = self.open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.close(idx)

            return wrapper

        return wrapper_for

    def _ranking(self, fn):
        def wrapper(beams, limit):
            self.rank_inputs.append(len(beams))
            idx = self.open("decoder.get_best_beams")
            try:
                return fn(beams, limit)
            finally:
                self.close(idx)

        return wrapper

    def _decoding(self, fn):
        def wrapper(logits, config, stats=None):
            own = decoder.DecodeStats() if stats is None else stats
            self.rank_inputs = []
            idx = self.open("decoder.decode")
            try:
                result = fn(logits, config, own)
            finally:
                self.close(idx)
            self._add_frame_counts(own)
            return result

        return wrapper

    def _add_frame_counts(self, stats) -> None:
        # ranking runs once per frame on the frame's candidates, then once
        # more on the final beams: call t + 1 sees what frame t produced
        frames = len(stats.expanded)
        ranks = self.rank_inputs
        if len(ranks) != frames + 1:
            self.missing.append("decoder.get_best_beams once per frame plus once")
            return
        self.frames += frames
        self.candidates += sum(ranks[:frames])
        self.expanded += sum(stats.expanded)
        self.spawned += sum(stats.spawned)
        self.merged += sum(
            e + s - n for e, s, n in zip(stats.expanded, stats.spawned, ranks[1:])
        )

    def _scoring(self, fn):
        keys = self._delta_keys

        def wrapper(scorer, state, word, color):
            keys.add((state, word, color))
            idx = self.open("scorers.word_delta")
            try:
                return fn(scorer, state, word, color)
            finally:
                self.close(idx)

        return wrapper

    def _counting(self, name: str):
        counts = self.counts

        def wrapper_for(fn):
            def wrapper(*args, **kwargs):
                # only calls made while an utterance decodes
                if self.current_utt >= 0:
                    counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        return wrapper_for

    def install(self, decoder_layers: bool) -> None:
        """Wrap the set-up and evaluation layers, and with
        ``decoder_layers`` also everything a decode calls. Decoder layers
        stay unwrapped while a process pool runs, so forked workers do
        not pay for spans nobody collects."""
        for owner, attr, name in EVALUATION_TARGETS:
            self._patch(owner, attr, self._spanning(name))
        if not decoder_layers:
            return
        for owner, attr, name in DECODER_TARGETS:
            wrapper_for = self._ranking if attr == "get_best_beams" else self._spanning(name)
            self._patch(owner, attr, wrapper_for)
        self._patch(decoder, "decode", self._decoding)
        for cls in SCORER_CLASSES:
            self._patch(cls, "word_delta", self._scoring)
        self._patch(
            ngram_lm.NGramModel, "score_word", self._counting("ngram_lm.score_word")
        )

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self.set_utterance(None)

    # -- analysis ------------------------------------------------------

    def layer_totals(self, roots: set[str], per_span: bool = False) -> dict:
        """Per span name: call count, total and self seconds, over the
        spans whose outermost ancestor is named in ``roots``. With
        ``per_span``, each name maps to its spans' durations in order."""
        n = len(self.start)
        child = [0] * n
        root = [0] * n
        for i in range(n):
            p = self.parent[i]
            root[i] = i if p < 0 else root[p]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        keep = {self._name_ids[r] for r in roots if r in self._name_ids}
        out: dict[str, dict[str, float]] = {}
        for i in range(n):
            if self.name[root[i]] not in keep:
                continue
            dur = self.end[i] - self.start[i]
            if per_span:
                out.setdefault(self.names[self.name[i]], []).append(dur / 1e9)
                continue
            row = out.setdefault(
                self.names[self.name[i]], {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            row["calls"] += 1
            row["total_s"] += dur / 1e9
            row["self_s"] += (dur - child[i]) / 1e9
        return out

    def write(self, path: Path, header: dict) -> None:
        """Write every span as columns, gzip-compressed JSON."""
        t0 = self.start[0] if len(self.start) else 0
        doc = dict(header)
        doc.update(
            {
                "names": self.names,
                "utterances": self.utterances,
                "unpatched": self.missing,
                "counts": dict(self.counts),
                "spans": {
                    "name": self.name.tolist(),
                    "start_ns": [s - t0 for s in self.start],
                    "end_ns": [e - t0 for e in self.end],
                    "parent": self.parent.tolist(),
                    "utterance": self.utt.tolist(),
                },
            }
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)

    def warn_missing(self) -> None:
        if self.missing:
            print(
                "trace: not found, reported as 0: " + ", ".join(sorted(set(self.missing))),
                file=sys.stderr,
            )
