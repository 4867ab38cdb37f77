"""Command line interface.

Subcommands:

    decode      one logits file -> colored transcript
    eval        score a manifest with one fusion method
    gridsearch  pick hyperparameters on a validation manifest
    merge-lm    color-rename and union several ARPA models
    synth       generate a synthetic corpus with lexicons and models
    verify      cross-check the search against the exhaustive oracle

Exit codes: 0 success, 1 data problems (unreadable or malformed inputs,
failed verification), 2 usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import re
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

from .corpus import (
    SynthesisSpec,
    default_alphabet,
    format_colored,
    language_models,
    read_lexicon,
    read_manifest,
    synthesize_corpus,
    write_colored_transcript,
)
from .decoder import DEFAULT_BEAM_WIDTH, DecoderConfig
from .evaluation import (
    KIND_GRID_FIELDS,
    GridPoint,
    GridSpec,
    _decode_file,
    _own_collector,
    build_runtime,
    calibration_pairs,
    evaluate,
    run_grid_search,
)
from .lexicon import ColoredAlphabet, InvalidWordChar, UnknownChar, build_trie
from .ngram_lm import load_arpa, merge_colored, save_arpa
from .oracle import _LETTER_POOL, InstanceTooLarge, run_verification
from .scorers import (
    KIND_MODELS,
    SCORER_KINDS,
    EmptyCalibration,
    ScorerConfig,
    fit_bin_table,
)

JOBS_ENV = "COLOR_DECODE_JOBS"


class UsageError(Exception):
    """Flag combinations argparse cannot catch on its own."""


def _int_in(raw: str, minimum: int, maximum: float = math.inf) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {raw!r}")
    if value < minimum:
        raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
    if value > maximum:
        raise argparse.ArgumentTypeError(f"must be at most {maximum}, got {value}")
    return value


def _positive_int(raw: str) -> int:
    return _int_in(raw, 1)


def _non_negative_int(raw: str) -> int:
    return _int_in(raw, 0)


def _char_count(raw: str) -> int:
    """A ``verify --max-chars`` value, at most the oracle's letter pool."""
    return _int_in(raw, 1, len(_LETTER_POOL))


def _finite(value: float) -> float:
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {value}")
    return value


def _weight(value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1], got {value}")
    return value


def _finite_float(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {raw!r}") from None
    return _finite(value)


def _weight_float(raw: str) -> float:
    return _weight(_finite_float(raw))


def _jobs_from_args(args) -> int:
    """``--jobs`` when given, else ``$COLOR_DECODE_JOBS`` when set and
    non-empty, else 1."""
    if args.jobs is not None:
        return args.jobs
    raw = os.environ.get(JOBS_ENV, "")
    if not raw:
        return 1
    try:
        return _positive_int(raw)
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"${JOBS_ENV}: {exc}") from None


def _csv(raw: str, kind: type, what: str) -> list:
    """A non-empty comma list of ``kind`` values; blank items are skipped."""
    try:
        values = [kind(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"not a comma list of {what}: {raw!r}")
    return values


def _finite_floats(raw: str) -> list[float]:
    return [_finite(v) for v in _csv(raw, float, "numbers")]


def _weight_floats(raw: str) -> list[float]:
    return [_weight(v) for v in _csv(raw, float, "numbers")]


def _positive_ints(raw: str) -> list[int]:
    values = _csv(raw, int, "integers")
    if min(values) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {min(values)}")
    return values


# the bin count of decode's and eval's bins method without --bins
_DEFAULT_BINS = 53

# each scorer setting's flags, by the ``GridSpec`` field both set: the
# single value of decode and eval (flag, parser, metavar, help), then the
# comma list of gridsearch (flag, parser)
_SETTING_FLAGS = {
    "alphas": ("--alpha", _finite_float, "ALPHA", "LM weight",
               "--alphas", _finite_floats),
    "betas": ("--beta", _finite_float, "BETA", "word bonus",
              "--betas", _finite_floats),
    "lams": ("--lambda", _weight_float, "LAM",
             "jargon weight for linear/loglinear fusion",
             "--lambdas", _weight_floats),
    "word_penalties": (
        "--unk-word-penalty", _finite_floats, "P[,P...]",
        "per-model log10 penalty for unknown words (default "
        + ",".join(f"{p:g}" for p in ScorerConfig.unknown_word_penalty) + ")",
        "--word-penalties", _finite_floats,
    ),
    "subword_penalties": ("--unk-subword-penalty", _finite_float, "P",
                          "log10 penalty per off-lexicon character; omit to "
                          "forbid off-lexicon spellings",
                          "--subword-penalties", _finite_floats),
    "bin_counts": ("--bins", _positive_int, "BINS",
                   f"bin count for the bins method (default {_DEFAULT_BINS})",
                   "--bin-counts", _positive_ints),
}


def _add_decoding_flags(p: argparse.ArgumentParser) -> None:
    """The flags of the subcommands that decode: lexicons, beam,
    alphabet, and the fusion method with its models."""
    p.add_argument("--lexicon", action="append", default=[], metavar="PATH",
                   help="lexicon word list, repeatable; decode runs "
                   "unconstrained without one")
    p.add_argument("--beam-width", type=_positive_int, default=DEFAULT_BEAM_WIDTH)
    p.add_argument(
        "--alphabet",
        default="abcdefghijklmnopqrstuvwxyz ",
        help="base characters in column order, blank is implicit last "
        "(default: lowercase letters and space)",
    )
    p.add_argument(
        "--separator",
        default=None,
        help="word separator character; defaults to space when the "
        "alphabet contains one, use --separator '' for none",
    )
    p.add_argument(
        "--fusion",
        choices=SCORER_KINDS,
        default="none",
        help="fusion method (default: none)",
    )
    p.add_argument("--lm", action="append", default=[], metavar="ARPA",
                   help="language model, repeatable; order matters "
                   "(general first, then jargon)")
    p.add_argument(
        "--calibration-manifest",
        metavar="PATH",
        help="manifest whose references calibrate the bins method",
    )
    p.add_argument("--calibration-seed", type=int)


def _add_manifest_flags(p: argparse.ArgumentParser) -> None:
    """The manifest and worker count of the subcommands that decode one."""
    p.add_argument("manifest")
    p.add_argument("--jobs", type=_positive_int, default=None,
                   help=f"worker processes (default ${JOBS_ENV} or 1)")


def _add_setting_flags(p: argparse.ArgumentParser, grid: bool) -> None:
    """A flag per scorer setting, gridsearch's list or else one value, its
    ``GridSpec`` field as ``dest``; a value the scorer refuses is refused."""
    for field, (flag, parse, metavar, text, *lists) in _SETTING_FLAGS.items():
        if grid:
            flag, parse = lists
            metavar, text = flag[2:].replace("-", "_").upper(), None
        p.add_argument(flag, dest=field, metavar=metavar, type=parse, help=text)


def _alphabet_from_args(args) -> ColoredAlphabet:
    chars = tuple(args.alphabet)
    sep = args.separator
    if sep is None:
        sep = " " if " " in chars else None
    elif sep == "":
        sep = None
    try:
        return ColoredAlphabet(chars, 1, sep)
    except ValueError as exc:
        raise UsageError(f"--alphabet/--separator: {exc}") from None


def _settings_from_args(args) -> dict:
    """The setting flags given, by ``GridSpec`` field; a list as a tuple."""
    return {f: tuple(v) if isinstance(v, list) else v
            for f in _SETTING_FLAGS if (v := getattr(args, f)) is not None}


def _calibration_from_args(args, models, utterances=None) -> list:
    """Calibration pairs for the bins method from the references of
    ``--calibration-manifest``, or, without one, of ``utterances`` (the
    manifest gridsearch has read, whose references the search checks).
    A calibration manifest that yields no pair is refused, naming it and
    whether its rows lack references or its references lack words."""
    path = args.calibration_manifest
    utterances = read_manifest(path) if path else utterances
    seed = {} if args.calibration_seed is None else {"seed": args.calibration_seed}
    pairs = calibration_pairs(utterances, models, **seed)
    if path and not pairs:
        fault = "no row has a reference"
        if any(u.reference is not None for u in utterances):
            fault = "no reference holds a word"
        raise EmptyCalibration(f"{path}: {fault}, so there are no calibration pairs")
    return pairs


def _load_models(args) -> list:
    """The ``--lm`` models, once their count fits ``--fusion`` and, for
    coloring, the ``--lexicon`` count; every model-using subcommand
    checks its flag combinations here, before reading any file."""
    kind = args.fusion
    count = len(args.lm)
    wanted = len(KIND_MODELS[kind])
    if kind != "coloring" and count != wanted:
        if not wanted:
            raise UsageError(f"--fusion {kind} takes no --lm file")
        files = ("one --lm file", "two --lm files")[wanted - 1]
        raise UsageError(f"--fusion {kind} needs exactly {files}")
    if kind == "coloring":
        if not args.lexicon:
            raise UsageError("--fusion coloring needs --lexicon files")
        if count != len(args.lexicon):
            raise UsageError(
                "--fusion coloring needs as many --lm files as --lexicon files"
            )
    if args.command != "decode" and not args.lexicon:
        raise UsageError(f"{args.command} needs at least one --lexicon file")
    # gridsearch calibrates on its own manifest when given none
    if kind == "bins" and not args.calibration_manifest and args.command != "gridsearch":
        raise UsageError("--fusion bins needs --calibration-manifest")
    # a flag whose setting the kind never reads is refused, not ignored;
    # the single subword penalty is the decoder's, read over lexicons
    grid = args.command == "gridsearch"
    if not grid and args.subword_penalties is not None and not args.lexicon:
        raise UsageError("--unk-subword-penalty needs --lexicon files")
    reads = {*KIND_GRID_FIELDS[kind], *([] if grid else ["subword_penalties"])}
    unread = [(f, row[4 if grid else 0]) for f, row in _SETTING_FLAGS.items()
              if f not in reads]
    if kind != "bins":
        unread = [("calibration_manifest", "--calibration-manifest"),
                  ("calibration_seed", "--calibration-seed"), *unread]
    for dest, flag in unread:
        if getattr(args, dest) is not None:
            raise UsageError(f"--fusion {kind} takes no {flag}")
    return [load_arpa(path) for path in args.lm]


@contextlib.contextmanager
def _naming_lexicon_file(paths, lexicons, template: ColoredAlphabet):
    """Name the file of a lexicon word the alphabet refuses. Runtimes
    build their tries from every lexicon at once, so on a refusal each
    file's words are tried alone, in order, and the first file refused
    is named with its word."""
    try:
        yield
    except InvalidWordChar:
        for path, words in zip(paths, lexicons):
            try:
                build_trie(template, 0, words)
            except InvalidWordChar as exc:
                raise InvalidWordChar(f"{path}: {exc}") from None
        raise


def _decoder_config(args) -> DecoderConfig:
    """The decoder config ``decode`` and ``eval`` run: the flags'
    method over the ``--lexicon`` files, unconstrained without any."""
    template = _alphabet_from_args(args)
    models = _load_models(args)
    point = GridPoint.from_fields(
        {"bin_counts": _DEFAULT_BINS, **_settings_from_args(args)}
    )
    bin_table = None
    if args.fusion == "bins":
        bin_table = fit_bin_table(_calibration_from_args(args, models), point.num_bins)
    lexicons = [read_lexicon(p) for p in args.lexicon] or None
    with _naming_lexicon_file(args.lexicon, lexicons or (), template):
        return build_runtime(
            args.fusion, lexicons, models, point.config, template,
            args.beam_width, bin_table,
        ).decoder_config()


def cmd_decode(args) -> int:
    cfg = _decoder_config(args)
    transcript = _decode_file(args.logits, cfg)
    num_colors = cfg.alphabet.num_colors
    print(format_colored(transcript.words, num_colors))
    print(f"score {transcript.score:.9f}")
    if args.out:
        write_colored_transcript(transcript, args.out, num_colors)
    return 0


def cmd_eval(args) -> int:
    jobs = _jobs_from_args(args)
    cfg = _decoder_config(args)
    utterances = read_manifest(args.manifest)
    report = evaluate(args.manifest, utterances, [(args.fusion, cfg)], jobs=jobs)
    sys.stdout.write(report.as_json() if args.json else report.as_text())
    return 0


def cmd_gridsearch(args) -> int:
    jobs = _jobs_from_args(args)
    template = _alphabet_from_args(args)
    models = _load_models(args)
    lexicons = [read_lexicon(p) for p in args.lexicon]
    utterances = read_manifest(args.manifest)

    calibration = None
    if args.fusion == "bins":
        calibration = _calibration_from_args(args, models, utterances)

    with _naming_lexicon_file(args.lexicon, lexicons, template):
        result = run_grid_search(
            args.fusion, utterances, lexicons, models,
            GridSpec(**_settings_from_args(args)), template,
            beam_width=args.beam_width, jobs=jobs, calibration=calibration,
        )
    print(f"method {args.fusion}: searched {len(result.rows)} configurations")
    print(f"best {result.best.describe(args.fusion)}")
    jw = f"{result.jargon_wer:.2f}" if result.jargon_wer is not None else "n/a"
    print(f"wer {result.wer:.2f}  cer {result.cer:.2f}  jargon-wer {jw}")
    if args.all:
        for point, w, c, j in result.rows:
            js = f"{j:.2f}" if j is not None else "n/a"
            print(f"  {point.describe(args.fusion)} wer={w:.2f} cer={c:.2f} jargon={js}")
    return 0


def cmd_merge_lm(args) -> int:
    models = [load_arpa(path) for path in args.lm]
    if not models:
        raise UsageError("merge-lm needs at least one --lm file")
    merged = merge_colored((m, c) for c, m in enumerate(models))
    save_arpa(merged, args.out)
    print(f"merged {len(models)} models ({len(merged.entries)} entries) -> {args.out}")
    return 0


def cmd_synth(args) -> int:
    try:
        spec = SynthesisSpec(
            num_sentences=args.sentences,
            jargon_insertion_rate=args.rate,
            noise_level=args.noise,
            frames_per_char=args.frames_per_char,
            rng_seed=args.seed,
            min_words=args.min_words,
            max_words=args.max_words,
            language_seed=args.language_seed,
        )
    except ValueError as exc:
        # every field is a flag value, so a refused one is a usage error
        raise UsageError(str(exc)) from None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    utterances, lang = synthesize_corpus(spec, out, default_alphabet(2))

    (out / "general.txt").write_text(
        "\n".join(lang.lexicons.general) + "\n", encoding="utf-8"
    )
    (out / "jargon.txt").write_text(
        "\n".join(lang.lexicons.jargon) + "\n", encoding="utf-8"
    )
    general, jargon = language_models(lang)
    save_arpa(general, out / "general.arpa")
    save_arpa(jargon, out / "jargon.arpa")
    print(
        f"wrote {len(utterances)} utterances, 2 lexicons and 2 models to {out}"
    )
    return 0


def cmd_verify(args) -> int:
    report = run_verification(
        args.instances,
        args.seed,
        max_frames=args.max_frames,
        max_chars=args.max_chars,
    )
    print(
        f"{report.instances} instances, {len(report.mismatches)} mismatches, "
        f"max score divergence {report.max_score_divergence:.3e}"
    )
    if not report.ok:
        for m in report.mismatches[:10]:
            print(f"  instance {m['instance']}: expected {m['expected']}, "
                  f"got {m['got']}")
        return 1
    return 0


class _Parser(argparse.ArgumentParser):
    """A parser without prefix matching, so --beta is never read as
    gridsearch's --betas, that takes a token starting like a negative
    number, -inf or -nan (any case) for a value: -10,-10 may then follow
    its flag after a space, and -inf is refused as not finite."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.I)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="colordecode",
        description="CTC beam search with lexicon-colored language model fusion",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("decode", help="decode one logits file")
    p.add_argument("logits", help="CTCL1 or JSON logits file")
    _add_decoding_flags(p)
    p.add_argument("--out", help="write markup plus JSON sidecar here")
    _add_setting_flags(p, grid=False)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("eval", help="evaluate one method on a manifest")
    _add_manifest_flags(p)
    _add_decoding_flags(p)
    p.add_argument("--json", action="store_true", help="JSON report")
    _add_setting_flags(p, grid=False)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gridsearch", help="search hyperparameters on a manifest")
    _add_manifest_flags(p)
    _add_decoding_flags(p)
    _add_setting_flags(p, grid=True)
    p.add_argument("--all", action="store_true", help="print every grid row")
    p.set_defaults(func=cmd_gridsearch)

    p = sub.add_parser("merge-lm", help="merge models into one colored ARPA")
    p.add_argument("--lm", action="append", default=[], metavar="ARPA",
                   help="input model, repeatable; list order sets the color")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_merge_lm)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--sentences", type=_positive_int, default=100)
    p.add_argument("--rate", type=float, default=0.3,
                   help="jargon insertion rate (default 0.3)")
    p.add_argument("--noise", type=float, default=0.25)
    p.add_argument("--frames-per-char", type=_positive_int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--language-seed", type=int, default=None)
    p.add_argument("--min-words", type=_positive_int, default=3)
    p.add_argument("--max-words", type=_positive_int, default=7)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("verify", help="cross-check decoder against the oracle")
    p.add_argument("--instances", type=_positive_int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-frames", type=_non_negative_int, default=4)
    p.add_argument("--max-chars", type=_char_count, default=3)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, UnknownChar, OSError, InstanceTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenProcessPool:
        # the pool's own message names no cause a user can act on
        print(
            "error: a worker process stopped abruptly, as when the system "
            "kills it for memory; --jobs 1 decodes without workers",
            file=sys.stderr,
        )
        return 1
    except MemoryError:
        # only the decoding subcommands grow with their beam
        if not hasattr(args, "beam_width"):
            raise
        print(
            f"error: out of memory at beam width {args.beam_width}; "
            "a narrower --beam-width needs less",
            file=sys.stderr,
        )
        return 1


def entry() -> None:
    """The ``colordecode`` console command. The command owns its
    process, so it raises the collector's threshold before it runs;
    ``main`` runs in whatever process calls it, so it leaves it alone."""
    _own_collector()
    sys.exit(main())


if __name__ == "__main__":
    entry()
