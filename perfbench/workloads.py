"""The benchmark's workloads: synthetic inputs, set-up, timed rounds,
output checks and the metrics derived from them.

Every workload is a closed loop with one client: the next utterance or
grid point starts when the previous one has finished. A run repeats
whole rounds of the same operations until ``seconds`` have passed.
Everything goes through the public functions that the ``decode``,
``eval`` and ``gridsearch`` subcommands call, and is looked up on its
module at call time, so the tracer's wrappers see each call.
"""

from __future__ import annotations

import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from colordecode import corpus, decoder, evaluation, metrics, ngram_lm, scorers
from colordecode.lexicon import ColoredAlphabet

import checks

CHARS = "abcdefghijklmnopqrstuvwxyz "
# the alphabet the CLI builds from its default flags
TEMPLATE = ColoredAlphabet(tuple(CHARS), 1, " ")
NOISE = 0.25
JARGON_RATE = 0.3
# One language (lexicons, chain and models) for every run; ``--seed``
# draws the sentences. With the seed picking the language as well, five
# seeds spread the median utterance time of decode-long by 0.45 of its
# median (quartile distance), against 0.24 with the language fixed.
LANGUAGE_SEED = 1
# fixed hyperparameters for eval-short and decode-long
FIXED = scorers.ScorerConfig(alpha=1.0, beta=0.0, unknown_word_penalty=(-10.0, -10.0), lam=0.5)
NUM_BINS = 53
EVAL_KINDS = ("coloring", "linear", "loglinear", "bins", "bayes", "general")
# coloring may trail linear interpolation by this much WER (percentage
# points) at the fixed hyperparameters; see README
LINEAR_WER_SLACK = 0.5
# set-ups timed before the first round and again after every round, so
# their median does not hang on the machine's speed at one moment
SETUP_BATCH = 5


@dataclass(frozen=True)
class Split:
    sentences: int
    seed_offset: int
    min_words: int
    max_words: int


SPLITS = {
    "validation": Split(40, 1_000_000, 3, 7),
    "test": Split(200, 2_000_000, 3, 7),
    "long": Split(10, 3_000_000, 60, 60),
}


def write_inputs(workdir: Path, seed: int, split_names) -> object:
    """Synthesize the named splits, with sentences drawn from ``seed``,
    under ``workdir`` the way ``colordecode synth`` does, plus both
    lexicons and models. Returns the language, whose tables the checks
    rescore with."""
    lang = None
    for name in split_names:
        s = SPLITS[name]
        spec = corpus.SynthesisSpec(
            num_sentences=s.sentences,
            jargon_insertion_rate=JARGON_RATE,
            noise_level=NOISE,
            frames_per_char=1,
            rng_seed=seed + s.seed_offset,
            min_words=s.min_words,
            max_words=s.max_words,
            language_seed=LANGUAGE_SEED,
        )
        _, lang = corpus.synthesize_corpus(spec, workdir / name, corpus.default_alphabet(2))
    (workdir / "general.txt").write_text("\n".join(lang.lexicons.general) + "\n")
    (workdir / "jargon.txt").write_text("\n".join(lang.lexicons.jargon) + "\n")
    general, jargon = corpus.language_models(lang)
    ngram_lm.save_arpa(general, workdir / "general.arpa")
    ngram_lm.save_arpa(jargon, workdir / "jargon.arpa")
    return lang


@dataclass
class Tally:
    """Operations attempted and failed, and output check failures."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    # transcripts checked against the independent rescoring
    rescored: int = 0

    def fail(self, what: str, operations: int = 1) -> None:
        self.failed += operations
        print(f"FAILED {what}:\n{traceback.format_exc()}", file=sys.stderr)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)


@dataclass
class Pass:
    """One decode pass over a split with one method."""

    transcripts: list
    frames: int
    utt_s: list[float]


def decode_split(utts, runtime, tally: Tally, label: str, tracer=None) -> Pass:
    """read_logits plus decode per utterance, as ``colordecode decode``
    and a one-job ``eval`` do. A decode that raises counts as failed and
    leaves None in its place."""
    cfg = runtime.decoder_config()
    out = []
    frames = 0
    times = []
    for u in utts:
        if tracer is not None:
            tracer.set_utterance(f"{label}/{u.id}")
        tally.attempted += 1
        t0 = perf_counter()
        try:
            logits = corpus.read_logits(u.logits_path)
            transcript = decoder.decode(logits, cfg)
        except Exception:
            tally.fail(f"{label} {u.id}")
            out.append(None)
            continue
        times.append(perf_counter() - t0)
        frames += logits.frames
        out.append(transcript)
    if tracer is not None:
        tracer.set_utterance(None)
    return Pass(out, frames, times)


def rates(utts, transcripts):
    """Pooled WER, CER and jargon WER; a failed decode counts as an
    empty hypothesis (every reference word deleted)."""
    refs = [list(u.reference) for u in utts]
    masks = [list(u.jargon_mask) for u in utts]
    hyps = [[w for w, _ in t.words] if t is not None else [] for t in transcripts]
    return (
        metrics.wer(refs, hyps),
        metrics.cer(refs, hyps),
        metrics.jargon_wer(refs, masks, hyps),
    )


def load_inputs(workdir: Path, manifest: str):
    models = [
        ngram_lm.load_arpa(workdir / "general.arpa"),
        ngram_lm.load_arpa(workdir / "jargon.arpa"),
    ]
    lexicons = [
        corpus.read_lexicon(workdir / "general.txt"),
        corpus.read_lexicon(workdir / "jargon.txt"),
    ]
    utts = corpus.read_manifest(workdir / manifest / "manifest.jsonl")
    return models, lexicons, utts


def method_models(kind: str, models):
    return models[:1] if kind == "general" else models


def percentile_ms(samples: list[float], pct: int) -> float:
    if pct == 50:
        return statistics.median(samples) * 1e3
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1] * 1e3


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_transcripts(tally, label, utts, transcripts, lang, config, off_lexicon=False):
    for u, t in zip(utts, transcripts):
        if t is None:
            continue
        errors, rescored = checks.check_coloring_transcript(
            t, u.reference, u.logits_path, lang, CHARS, config, off_lexicon
        )
        tally.rescored += rescored
        tally.errors.extend(f"{label} {u.id}: {err}" for err in errors)


class DecodeWorkload:
    """Shared shape of eval-short and decode-long: build runtimes once,
    then decode a split with each method per round."""

    kinds: tuple[str, ...] = ()
    beam = 16
    with_rates = False
    tail_pct = 50

    def __init__(self, workdir: Path, lang):
        self.workdir = workdir
        self.lang = lang

    def setup(self):
        raise NotImplementedError

    def round(self, state, tally: Tally, tracer=None) -> dict:
        """Decode the split once per method; returns per-method passes
        and rates."""
        models, lexicons, utts, runtimes = state
        out = {}
        for kind in self.kinds:
            p = decode_split(utts, runtimes[kind], tally, kind, tracer)
            out[kind] = (p, rates(utts, p.transcripts) if self.with_rates else None)
        return out

    def check(self, state, result: dict, tally: Tally) -> None:
        utts = state[2]
        union = [set(self.lang.lexicons.general) | set(self.lang.lexicons.jargon)]
        for kind, (p, _) in result.items():
            if kind == "coloring":
                check_transcripts(tally, kind, utts, p.transcripts, self.lang, FIXED)
                continue
            for u, t in zip(utts, p.transcripts):
                if t is not None:
                    for err in checks.lexicon_errors(t.words, union):
                        tally.errors.append(f"{kind} {u.id}: {err}")

    @staticmethod
    def same_outputs(a: dict, b: dict) -> bool:
        return all(
            a[k][0].transcripts == b[k][0].transcripts and a[k][1] == b[k][1]
            for k in a
        )


class EvalShort(DecodeWorkload):
    """Six methods over 200 short utterances at beam 16."""

    name = "eval-short"
    splits = ("validation", "test")
    kinds = EVAL_KINDS
    beam = 16
    with_rates = True
    tail_pct = 99

    def setup(self):
        models, lexicons, utts = load_inputs(self.workdir, "test")
        validation = corpus.read_manifest(self.workdir / "validation" / "manifest.jsonl")
        pairs = evaluation.calibration_pairs(validation, models, seed=0)
        table = scorers.fit_bin_table(pairs, NUM_BINS)
        runtimes = {
            kind: evaluation.build_runtime(
                kind,
                lexicons,
                method_models(kind, models),
                FIXED,
                TEMPLATE,
                self.beam,
                table if kind == "bins" else None,
            )
            for kind in self.kinds
        }
        return models, lexicons, utts, runtimes

    def check(self, state, result, tally):
        super().check(state, result, tally)
        w = {kind: r for kind, (_, r) in result.items()}
        col_wer, _, col_jw = w["coloring"]
        for other in ("general", "loglinear"):
            tally.check(
                col_jw < w[other][2],
                f"coloring jargon WER {col_jw} not below {other}'s {w[other][2]}",
            )
        tally.check(
            col_wer <= w["linear"][0] + LINEAR_WER_SLACK,
            f"coloring WER {col_wer} above linear's {w['linear'][0]} "
            f"by more than {LINEAR_WER_SLACK}",
        )


class DecodeLong(DecodeWorkload):
    """Coloring over ten 60-word utterances at beam 64, one at a time."""

    name = "decode-long"
    splits = ("long",)
    kinds = ("coloring",)
    beam = 64
    tail_pct = 50

    def setup(self):
        models, lexicons, utts = load_inputs(self.workdir, "long")
        runtime = evaluation.build_runtime(
            "coloring", lexicons, models, FIXED, TEMPLATE, self.beam
        )
        return models, lexicons, utts, {"coloring": runtime}


class GridsearchOfflex:
    """Coloring grid search with off-lexicon spelling over 40 short
    validation utterances, two worker processes, beam 16."""

    name = "gridsearch-offlex"
    splits = ("validation",)
    grid = evaluation.COMPARISON_GRID
    beam = 16
    jobs = 2
    tail_pct = 50

    def __init__(self, workdir: Path, lang):
        self.workdir = workdir
        self.lang = lang
        self.points = list(self.grid.points("coloring"))

    def setup(self):
        return load_inputs(self.workdir, "validation")

    def split_frames(self, state) -> int:
        return sum(checks.read_natural_log(u.logits_path).shape[0] for u in state[2])

    def search(self, state, tally: Tally):
        """One parallel grid search, as ``colordecode gridsearch`` runs it."""
        models, lexicons, utts = state
        tally.attempted += len(self.points)
        try:
            return evaluation.run_grid_search(
                "coloring", utts, lexicons, models, self.grid, TEMPLATE,
                beam_width=self.beam, jobs=self.jobs,
            )
        except Exception:
            tally.fail(f"{self.name} grid search", len(self.points))
            return None

    def serial(self, state, tally: Tally, tracer=None):
        """The same grid points decoded one utterance at a time in this
        process. Returns rows and best point ranked like the grid search,
        and per-point decode busy seconds."""
        models, lexicons, utts = state
        rows = []
        busy = []
        best = None
        for index, point in enumerate(self.points):
            runtime = evaluation.build_runtime(
                "coloring", lexicons, models, point.config, TEMPLATE, self.beam
            )
            # a grid point is one operation, failed if any utterance failed
            per_utt = Tally()
            p = decode_split(utts, runtime, per_utt, f"point{index}", tracer)
            tally.attempted += 1
            tally.failed += per_utt.failed > 0
            busy.append(sum(p.utt_s))
            w, c, jw = rates(utts, p.transcripts)
            rows.append((point, w, c, jw))
            if best is None or (w, c, index) < best[0]:
                best = ((w, c, index), point)
            check_transcripts(
                tally, f"point{index}", utts, p.transcripts, self.lang,
                point.config, off_lexicon=True,
            )
        return rows, best, busy

    def check(self, result, serial_rows, serial_best, tally: Tally) -> None:
        if result is None:
            return
        tally.check(
            result.rows == serial_rows,
            f"grid rows at jobs={self.jobs} differ from the serial pass",
        )
        tally.check(
            result.best == serial_best[1] and (result.wer, result.cer) == serial_best[0][:2],
            f"best grid point at jobs={self.jobs} differs from the serial pass",
        )


WORKLOADS = {w.name: w for w in (EvalShort, DecodeLong, GridsearchOfflex)}


def timed(fn, *args):
    t0 = perf_counter()
    out = fn(*args)
    return out, perf_counter() - t0


def time_setups(workload, setup_s: list[float]):
    for _ in range(SETUP_BATCH):
        state, dt = timed(workload.setup)
        setup_s.append(dt)
    return state


def measure(workload, seconds: float) -> dict:
    """Untraced run: whole rounds for ``seconds``, set-ups timed between
    them. Returns the result object the benchmark prints."""
    tally = Tally()
    setup_s: list[float] = []
    state = time_setups(workload, setup_s)
    if isinstance(workload, GridsearchOfflex):
        return _measure_grid(workload, state, setup_s, seconds, tally)

    samples: list[float] = []
    frames = 0
    wall = 0.0
    first = None
    start = perf_counter()
    while True:
        result, dt = timed(workload.round, state, tally)
        wall += dt
        for p, _ in result.values():
            frames += p.frames
            samples.extend(p.utt_s)
        if first is None:
            first = result
            workload.check(state, result, tally)
        else:
            tally.check(workload.same_outputs(first, result), "outputs changed between rounds")
        time_setups(workload, setup_s)
        if perf_counter() - start >= seconds:
            break
    return _result(tally, setup_s, frames / wall, samples, workload.tail_pct)


def _measure_grid(workload, state, setup_s, seconds, tally) -> dict:
    # One sample per search: its grid points run inside one call, so a
    # point's time is the search's wall time over its points.
    split_frames = workload.split_frames(state)
    points = len(workload.points)
    frames = 0
    wall = 0.0
    samples = []
    results = []
    start = perf_counter()
    while True:
        result, dt = timed(workload.search, state, tally)
        wall += dt
        if result is not None:
            frames += split_frames * points
            samples.append(dt / points)
        results.append(result)
        time_setups(workload, setup_s)
        if perf_counter() - start >= seconds:
            break
    rows, best, _busy = workload.serial(state, tally)
    for result in results:
        workload.check(result, rows, best, tally)
    return _result(tally, setup_s, frames / wall, samples, workload.tail_pct)


def _result(tally, setup_s, frames_per_s, samples, tail_pct) -> dict:
    if not samples:
        tally.errors.append("no operation succeeded")
        samples = [0.0, 0.0]
    return {
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
        "rescored": tally.rescored,
        "metrics": {
            "setup_s": (statistics.median(setup_s), "s"),
            "frames_per_s": (frames_per_s, "frames/s"),
            "op_ms_p50": (percentile_ms(samples, 50), "ms"),
            "op_ms_tail": (percentile_ms(samples, tail_pct), "ms"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        },
    }


def _traced(tracer, root: str, decoder_layers: bool, fn, *args):
    """Call ``fn`` with the wrappers installed, under one root span."""
    tracer.install(decoder_layers)
    try:
        idx = tracer.open(root)
        t0 = perf_counter()
        out = fn(*args)
        dt = perf_counter() - t0
        tracer.close(idx)
    finally:
        tracer.uninstall()
    return out, dt


def trace_run(workload, tracer) -> dict:
    """Traced run: one untraced round, then a traced set-up and a traced
    round of the same work. The difference between the two rounds is the
    tracing overhead."""
    tally = Tally()
    state = workload.setup()
    if isinstance(workload, GridsearchOfflex):
        return _trace_grid(workload, state, tracer, tally)
    baseline, untraced_s = timed(workload.round, state, tally)
    state, _ = _traced(tracer, "bench.setup", True, workload.setup)
    result, traced_s = _traced(tracer, "bench.round", True, workload.round, state, tally, tracer)
    workload.check(state, result, tally)
    tally.check(workload.same_outputs(baseline, result), "tracing changed the outputs")
    return _trace_result(tally, tracer, ("bench.round",), untraced_s, traced_s, 0.0)


def _trace_grid(workload, state, tracer, tally) -> dict:
    # Decoder layers are traced on the serial pass only: spans recorded
    # inside the pool's worker processes would never reach this process.
    (rows, best, busy), untraced_s = timed(workload.serial, state, tally)
    state, _ = _traced(tracer, "bench.setup", True, workload.setup)
    parallel, _ = _traced(tracer, "bench.round", False, workload.search, state, tally)
    (t_rows, _, _), traced_s = _traced(
        tracer, "bench.serial", True, workload.serial, state, tally, tracer
    )
    workload.check(parallel, rows, best, tally)
    tally.check(t_rows == rows, "tracing changed the serial grid rows")
    # per point: pool wall time minus an even split of the serial busy time
    pool = tracer.layer_totals({"bench.round"}, per_span=True).get(
        "evaluation.decode_utterances", []
    )
    overhead = 0.0
    if len(pool) == len(busy):
        overhead = statistics.fmean(w - b / workload.jobs for w, b in zip(pool, busy))
    else:
        tracer.missing.append("evaluation.decode_utterances once per grid point")
    return _trace_result(
        tally, tracer, ("bench.round", "bench.serial"), untraced_s, traced_s, overhead
    )


def _trace_result(tally, tracer, phase_roots, untraced_s, traced_s, pool_overhead_s) -> dict:
    totals = tracer.layer_totals({"bench.setup", *phase_roots})

    def total(name, key="total_s"):
        return totals.get(name, {}).get(key, 0)

    frames = tracer.frames
    delta_calls = total("scorers.word_delta", "calls")
    phase_s = sum(total(r) for r in phase_roots)
    harness_s = sum(total(r, "self_s") for r in phase_roots)
    values = {
        "decoder.frame_step_s": (total("decoder.decode", "self_s"), "s"),
        "decoder.rank_s": (total("decoder.get_best_beams"), "s"),
        "decoder.rank_candidates_per_frame": (tracer.candidates / frames if frames else 0.0, "count/frame"),
        "decoder.expanded_per_frame": (tracer.expanded / frames if frames else 0.0, "count/frame"),
        "decoder.spawned_per_frame": (tracer.spawned / frames if frames else 0.0, "count/frame"),
        "decoder.merged_per_frame": (tracer.merged / frames if frames else 0.0, "count/frame"),
        "decoder.finish_s": (total("lexicon.finish_word"), "s"),
        "decoder.log10_rows_s": (total("decoder.log10_rows"), "s"),
        "corpus.read_logits_s": (total("corpus.read_logits"), "s"),
        "corpus.read_logits_calls": (total("corpus.read_logits", "calls"), "count"),
        "lexicon.successors_s": (total("lexicon.word_successors"), "s"),
        "lexicon.successors_calls": (total("lexicon.word_successors", "calls"), "count"),
        "scorers.word_delta_s": (total("scorers.word_delta"), "s"),
        "scorers.word_delta_calls": (delta_calls, "count"),
        "scorers.word_delta_distinct_ratio": (
            tracer.delta_distinct / delta_calls if delta_calls else 0.0, "ratio"
        ),
        "ngram_lm.score_word_calls": (tracer.counts["ngram_lm.score_word"], "count"),
        "ngram_lm.load_arpa_s": (total("ngram_lm.load_arpa"), "s"),
        "ngram_lm.merge_colored_s": (total("ngram_lm.merge_colored"), "s"),
        "lexicon.build_trie_s": (total("lexicon.build_trie"), "s"),
        "evaluation.build_runtime_s": (total("evaluation.build_runtime"), "s"),
        "evaluation.calibration_s": (
            total("evaluation.calibration_pairs") + total("evaluation.fit_bin_table"), "s"
        ),
        "evaluation.pool_overhead_s": (pool_overhead_s, "s"),
        "metrics.rates_s": (
            total("metrics.wer") + total("metrics.cer") + total("metrics.jargon_wer"), "s"
        ),
        "trace.untraced_s": (untraced_s, "s"),
        "trace.traced_s": (traced_s, "s"),
        "trace.overhead_pct": (100.0 * (traced_s - untraced_s) / untraced_s, "%"),
        "trace.unattributed_pct": (100.0 * harness_s / phase_s if phase_s else 0.0, "%"),
    }
    return {
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
        "rescored": tally.rescored,
        "metrics": values,
    }
