"""Corpus I/O and synthetic corpus generation.

On disk a corpus is a JSONL manifest naming per-utterance logits files,
references, and optional jargon masks. Logits travel either in a small
binary container (magic ``CTCL1``, natural-log float64, little-endian)
or as JSON with linear probabilities. Decoded transcripts serialize as
markup text (``[J:word]`` tags the jargon color) plus a JSON sidecar
with exact colors and score.

The synthesizer builds a deterministic miniature language: a general
lexicon with a bigram word chain, a jargon lexicon of near-miss
mutations of general words (plus a few shared spellings), and block
acoustic posteriors with uniform leakage noise. Every random draw comes
from string-seeded ``random.Random`` instances, so corpora reproduce
bit-for-bit across platforms. The language itself (lexicons, chain,
jargon weights) is seeded separately from sentence sampling, letting
validation and test splits share one language.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .decoder import ColoredTranscript, LogitsMatrix, MalformedLogits
from .lexicon import ColoredAlphabet
from .ngram_lm import NGramModel

__all__ = [
    "MalformedManifest",
    "MissingLogitsFile",
    "EmptyLexicon",
    "IoFailure",
    "MAGIC",
    "Utterance",
    "read_manifest",
    "write_manifest",
    "read_logits",
    "write_logits",
    "read_lexicon",
    "format_colored",
    "write_colored_transcript",
    "LETTERS",
    "default_alphabet",
    "SynthesisSpec",
    "LexiconSets",
    "generate_lexicons",
    "SynthLanguage",
    "build_language",
    "language_models",
    "sample_sentences",
    "synthesize_logits",
    "synthesize_corpus",
]

MAGIC = b"CTCL1\n"
LETTERS = "abcdefghijklmnopqrstuvwxyz"


class MalformedManifest(ValueError):
    """Manifest line is not valid or contradicts the rest of the file:
    ``<manifest>: line <line>: <fault>``."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class MissingLogitsFile(FileNotFoundError):
    """A logits file that does not exist. ``path`` is the file; when a
    manifest row names it, ``manifest`` and ``line`` name the row."""

    def __init__(self, path, manifest=None, line: int | None = None):
        message = f"logits file {path} does not exist"
        if manifest is not None:
            message += f" (manifest {manifest}, line {line})"
        super().__init__(message)
        self.path = path
        self.manifest = manifest
        self.line = line

    def __reduce__(self):
        # a decode worker's error reaches the parent process pickled
        return type(self), (self.path, self.manifest, self.line)


class EmptyLexicon(ValueError):
    """A lexicon source contained no words."""


class IoFailure(ValueError):
    """A logits or lexicon file exists but cannot be parsed."""


@dataclass
class Utterance:
    """One manifest row; ``logits_path`` is resolved against the manifest."""

    id: str
    logits_path: Path
    reference: tuple[str, ...] | None = None
    jargon_mask: tuple[bool, ...] | None = None


def _parse_reference(value) -> tuple[str, ...] | None:
    """A row's reference words; None when it is neither a string nor a
    list of words."""
    if isinstance(value, str):
        return tuple(value.split())
    if isinstance(value, list) and all(isinstance(w, str) for w in value):
        return tuple(value)
    return None


def read_manifest(path) -> list[Utterance]:
    """Load a JSONL manifest; paths resolve relative to the manifest file.
    A file that is not UTF-8 text raises an error naming it."""
    path = Path(path)
    base = path.parent
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise IoFailure(f"{path}: not UTF-8 text: {exc}") from None
    utterances: list[Utterance] = []
    seen: set[str] = set()
    # a row's directory part -> its resolved path, so each is resolved once
    dirs: dict[str, Path] = {}

    def malformed(fault: str) -> MalformedManifest:
        return MalformedManifest(f"{path}: line {line_no}: {fault}", line_no)

    for line_no, raw in enumerate(text.split("\n"), start=1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            row = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise malformed(f"invalid JSON: {exc.msg}") from None
        if not isinstance(row, dict):
            raise malformed("each line must be a JSON object")
        utt_id = row.get("id")
        if not isinstance(utt_id, str) or not utt_id:
            raise malformed("missing or empty id")
        if utt_id in seen:
            raise malformed(f"duplicate id {utt_id!r}")
        seen.add(utt_id)
        logits = row.get("logits")
        if not isinstance(logits, str) or not logits:
            raise malformed("missing logits path")
        reference = None
        if row.get("reference") is not None:
            reference = _parse_reference(row["reference"])
            if reference is None:
                raise malformed("reference must be a string or list of words")
        mask = None
        if row.get("jargon_mask") is not None:
            raw_mask = row["jargon_mask"]
            if reference is None:
                raise malformed("jargon_mask requires a reference")
            if not isinstance(raw_mask, list) or not all(
                isinstance(b, bool) for b in raw_mask
            ):
                raise malformed("jargon_mask must be a list of booleans")
            if len(raw_mask) != len(reference):
                raise malformed(
                    f"jargon_mask length {len(raw_mask)} does not match "
                    f"{len(reference)} reference words"
                )
            mask = tuple(raw_mask)
        logits_path = _resolve(base, logits, dirs)
        if not logits_path.exists():
            raise MissingLogitsFile(logits_path, path, line_no)
        utterances.append(Utterance(utt_id, logits_path, reference, mask))
    return utterances


def _resolve(base: Path, logits: str, dirs: dict[str, Path]) -> Path:
    """``(base / logits).resolve()``, resolving each distinct directory
    part of ``logits`` once through ``dirs``. Joining a resolved
    directory and a last component that is no symlink, ``.`` or ``..``
    leaves nothing to resolve; any other path is resolved in full."""
    head, name = os.path.split(logits)
    if name in ("", ".", ".."):
        return (base / logits).resolve()
    resolved = dirs.get(head)
    if resolved is None:
        resolved = dirs[head] = (base / head).resolve()
    joined = resolved / name
    return (base / logits).resolve() if joined.is_symlink() else joined


def write_manifest(utterances: Sequence[Utterance], path) -> None:
    """Write JSONL rows with logits paths relative to the manifest."""
    path = Path(path)
    base = path.parent.resolve()
    with open(path, "w", encoding="utf-8") as fh:
        for utt in utterances:
            row: dict = {
                "id": utt.id,
                "logits": os.path.relpath(Path(utt.logits_path).resolve(), base),
            }
            if utt.reference is not None:
                row["reference"] = " ".join(utt.reference)
            if utt.jargon_mask is not None:
                row["jargon_mask"] = list(utt.jargon_mask)
            fh.write(json.dumps(row) + "\n")


def read_logits(path) -> LogitsMatrix:
    """Load one logits file, binary or JSON. Contents that are not
    per-frame distributions raise MalformedLogits naming the file."""
    path = Path(path)
    if not path.exists():
        raise MissingLogitsFile(path)
    blob = path.read_bytes()
    if blob.startswith(MAGIC):
        rest = blob[len(MAGIC):]
        newline = rest.find(b"\n")
        if newline < 0:
            raise IoFailure(f"{path}: truncated header")
        header = rest[:newline].decode("ascii", errors="replace").split()
        if len(header) != 2:
            raise IoFailure(f"{path}: header must be 'frames columns'")
        try:
            frames, columns = int(header[0]), int(header[1])
        except ValueError:
            raise IoFailure(f"{path}: non-integer header fields") from None
        if frames < 0 or columns < 2:
            raise IoFailure(f"{path}: bad dimensions {frames}x{columns}")
        body = rest[newline + 1:]
        expected = frames * columns * 8
        if len(body) != expected:
            raise IoFailure(
                f"{path}: body has {len(body)} bytes, expected {expected}"
            )
        rows = np.frombuffer(body, dtype="<f8").reshape(frames, columns)
        build = LogitsMatrix.from_natural_log
    else:
        try:
            doc = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise IoFailure(
                f"{path}: neither {MAGIC!r} binary nor JSON: {exc}"
            ) from None
        if not isinstance(doc, dict) or "frames" not in doc:
            raise IoFailure(f"{path}: JSON logits need a 'frames' key")
        rows, columns = doc["frames"], doc.get("columns")
        build = LogitsMatrix.from_linear
    try:
        return build(rows, columns=columns)
    except MalformedLogits as exc:
        raise MalformedLogits(f"{path}: {exc}") from None


def write_logits(matrix: LogitsMatrix, path) -> None:
    """Write the binary container: magic, 'frames columns', float64 LE body."""
    path = Path(path)
    header = f"{matrix.frames} {matrix.columns}\n".encode("ascii")
    body = np.ascontiguousarray(matrix.natural, dtype="<f8").tobytes()
    path.write_bytes(MAGIC + header + body)


def read_lexicon(path) -> tuple[str, ...]:
    """One word per line, lowercased; blank lines and # comments skipped.
    A file that is not UTF-8 text, or holds no word, raises an error
    naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise IoFailure(f"{path}: not UTF-8 text: {exc}") from None
    words: list[str] = []
    for raw in text.split("\n"):
        word = raw.strip().lower()
        if word and not word.startswith("#"):
            words.append(word)
    if not words:
        raise EmptyLexicon(
            f"{path}: no words (every line is blank or a # comment)"
        )
    return tuple(dict.fromkeys(words))


def format_colored(words: Sequence[tuple[str, int]], num_colors: int) -> str:
    """Markup text: color 0 plain, jargon colors tagged.

    Two colors use ``[J:word]``; more keep the color id, ``[J2:word]``.
    """
    parts = []
    for word, color in words:
        if color == 0:
            parts.append(word)
        elif num_colors <= 2:
            parts.append(f"[J:{word}]")
        else:
            parts.append(f"[J{color}:{word}]")
    return " ".join(parts)


def write_colored_transcript(
    transcript: ColoredTranscript, path, num_colors: int
) -> None:
    """Markup at ``path``, exact words/colors/score at ``path + .json``.
    The sidecar is standard JSON: a transcript with no finite score, as
    when no beam survives, has score null."""
    path = Path(path)
    path.write_text(format_colored(transcript.words, num_colors) + "\n")
    sidecar = Path(str(path) + ".json")
    score = transcript.score
    payload = {
        "words": [[w, c] for w, c in transcript.words],
        "score": score if math.isfinite(score) else None,
    }
    sidecar.write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n")


def default_alphabet(num_colors: int) -> ColoredAlphabet:
    """Lowercase letters plus space separator, blank last."""
    return ColoredAlphabet(tuple(LETTERS + " "), num_colors, " ")


@dataclass(frozen=True)
class SynthesisSpec:
    """Parameters of one synthetic corpus.

    ``rng_seed`` drives sentence sampling; the language (lexicons, word
    chain, jargon weights) is seeded by ``language_seed`` when given, so
    two specs can share a language while sampling disjoint sentences.
    ``jargon_insertion_rate`` is the per-position probability that a
    chain word is replaced by a jargon mutation. ``noise_level`` is the
    acoustic leakage: the true column keeps 1 - noise_level, the rest is
    spread evenly over the other columns.
    """

    num_sentences: int
    jargon_insertion_rate: float
    noise_level: float
    frames_per_char: int
    rng_seed: int
    min_words: int = 3
    max_words: int = 7
    language_seed: int | None = None

    def __post_init__(self):
        if self.num_sentences < 1:
            raise ValueError("need at least one sentence")
        if not 0.0 <= self.jargon_insertion_rate <= 1.0:
            raise ValueError("jargon insertion rate must lie in [0, 1]")
        if not 0.0 <= self.noise_level < 1.0:
            raise ValueError("noise level must lie in [0, 1)")
        if self.frames_per_char < 1:
            raise ValueError("need at least one frame per character")
        if not 1 <= self.min_words <= self.max_words:
            raise ValueError("need 1 <= min_words <= max_words")

    def chain_seed(self) -> int:
        return self.language_seed if self.language_seed is not None else self.rng_seed


@dataclass(frozen=True)
class LexiconSets:
    """General and jargon vocabularies with their overlap structure.

    ``shared`` spellings live in both lexicons; ``mutations`` are
    one-character substitutions of general words and belong to the
    jargon lexicon only.
    """

    general: tuple[str, ...]
    jargon: tuple[str, ...]
    shared: tuple[str, ...]
    mutations: tuple[str, ...]


# lexicon sizes and the general words' length range
_NUM_GENERAL = 40
_NUM_SHARED = 5
_NUM_JARGON = 15
_WORD_LENGTHS = (3, 7)


def _random_word(rng: random.Random) -> str:
    return "".join(
        rng.choice(LETTERS) for _ in range(rng.randint(*_WORD_LENGTHS))
    )


def generate_lexicons(seed: int) -> LexiconSets:
    """Build the two vocabularies: 40 general words of 3-7 letters and
    15 jargon mutations, plus 5 shared spellings.

    The first 5 general words are copied into the jargon lexicon
    verbatim. Mutations substitute one character of a base word: the
    shared words are mutated first (one each), further bases are
    sampled from the remaining general words. All spellings are unique
    across both lexicons.
    """
    rng = random.Random(f"lexicon:{seed}")

    general: list[str] = []
    taken: set[str] = set()
    while len(general) < _NUM_GENERAL:
        word = _random_word(rng)
        if word not in taken:
            taken.add(word)
            general.append(word)

    shared = tuple(general[:_NUM_SHARED])

    def mutate(base: str) -> str | None:
        for _ in range(50):
            pos = rng.randrange(len(base))
            repl = rng.choice(LETTERS)
            if repl == base[pos]:
                continue
            cand = base[:pos] + repl + base[pos + 1:]
            if cand not in taken:
                return cand
        return None

    mutations: list[str] = []
    bases = list(shared)
    others = general[_NUM_SHARED:]
    while len(mutations) < _NUM_JARGON:
        if bases:
            base = bases.pop(0)
        else:
            base = rng.choice(others if others else general)
        cand = mutate(base)
        if cand is not None:
            taken.add(cand)
            mutations.append(cand)

    return LexiconSets(
        general=tuple(general),
        jargon=shared + tuple(mutations),
        shared=shared,
        mutations=tuple(mutations),
    )


@dataclass(frozen=True)
class SynthLanguage:
    """A sampled language: vocabularies, word chain, jargon weights."""

    lexicons: LexiconSets
    unigram: dict[str, float]
    bigram: dict[str, dict[str, float]]
    jargon_weights: dict[str, float]


_CHAIN_FLOOR = 0.02
_CHAIN_STRONG = 4
_MUTATION_MASS = 0.85


def build_language(seed: int) -> SynthLanguage:
    """Sample the language for one seed.

    The chain gives every word a floor transition weight and boosts a
    few strong successors per row, so general text is predictable but
    never forbids a word pair. Jargon weights put most mass on the
    mutations, the rest on the shared spellings.
    """
    lex = generate_lexicons(seed)
    rng = random.Random(f"chain:{seed}")

    weights = [rng.random() + 0.2 for _ in lex.general]
    total = sum(weights)
    unigram = {w: v / total for w, v in zip(lex.general, weights)}

    bigram: dict[str, dict[str, float]] = {}
    for prev in lex.general:
        row = {w: _CHAIN_FLOOR for w in lex.general}
        strong = rng.sample(lex.general, min(_CHAIN_STRONG, len(lex.general)))
        for w in strong:
            row[w] += rng.uniform(0.5, 2.0)
        norm = sum(row.values())
        bigram[prev] = {w: v / norm for w, v in row.items()}

    jrng = random.Random(f"jargonlm:{seed}")
    jargon_weights: dict[str, float] = {}
    if lex.mutations:
        mw = [jrng.random() + 0.2 for _ in lex.mutations]
        mt = sum(mw)
        for word, v in zip(lex.mutations, mw):
            jargon_weights[word] = _MUTATION_MASS * v / mt
    shared_mass = 1.0 - (_MUTATION_MASS if lex.mutations else 0.0)
    if lex.shared:
        sw = [jrng.random() + 0.2 for _ in lex.shared]
        st = sum(sw)
        for word, v in zip(lex.shared, sw):
            jargon_weights[word] = shared_mass * v / st

    return SynthLanguage(lex, unigram, bigram, jargon_weights)


def language_models(lang: SynthLanguage) -> tuple[NGramModel, NGramModel]:
    """The true models behind a language: general bigram, jargon unigram."""
    entries: dict[tuple[str, ...], tuple[float, float | None]] = {}
    for word, p in lang.unigram.items():
        entries[(word,)] = (math.log10(p), 0.0)
    for prev, row in lang.bigram.items():
        for word, p in row.items():
            entries[(prev, word)] = (math.log10(p), None)
    general = NGramModel(max_order=2, entries=entries)

    jargon = NGramModel(
        max_order=1,
        entries={
            (word,): (math.log10(p), None)
            for word, p in lang.jargon_weights.items()
        },
    )
    return general, jargon


def sample_sentences(
    spec: SynthesisSpec, lang: SynthLanguage
) -> list[tuple[tuple[str, ...], tuple[bool, ...]]]:
    """Chain sentences with per-position jargon replacement.

    Each position independently swaps its chain word for a jargon
    mutation with probability ``jargon_insertion_rate``; the chain state
    keeps the original word, so replacements do not derail the walk. The
    mask flags replaced positions.
    """
    rng = random.Random(f"sentences:{spec.rng_seed}")
    gen_words = list(lang.lexicons.general)
    uni_weights = [lang.unigram[w] for w in gen_words]
    mutations = list(lang.lexicons.mutations)
    mut_weights = [lang.jargon_weights[w] for w in mutations]

    out = []
    for _ in range(spec.num_sentences):
        length = rng.randint(spec.min_words, spec.max_words)
        chain: list[str] = []
        for i in range(length):
            if i == 0:
                word = rng.choices(gen_words, weights=uni_weights)[0]
            else:
                row = lang.bigram[chain[-1]]
                word = rng.choices(gen_words, weights=[row[w] for w in gen_words])[0]
            chain.append(word)
        words = []
        mask = []
        for word in chain:
            if mutations and rng.random() < spec.jargon_insertion_rate:
                words.append(rng.choices(mutations, weights=mut_weights)[0])
                mask.append(True)
            else:
                words.append(word)
                mask.append(False)
        out.append((tuple(words), tuple(mask)))
    return out


def synthesize_logits(
    text: str,
    alphabet: ColoredAlphabet,
    noise_level: float,
    frames_per_char: int,
) -> LogitsMatrix:
    """Deterministic block posteriors for a character string.

    Each character occupies ``frames_per_char`` frames with 1 - noise on
    its own column and the leak spread over the rest. Repeated
    characters get a mandatory blank block in between, since CTC cannot
    express a repeat without one.
    """
    cols = alphabet.num_columns
    leak = noise_level / (cols - 1)

    def block(col: int) -> list[list[float]]:
        row = [leak] * cols
        row[col] = 1.0 - noise_level
        return [row] * frames_per_char

    rows: list[list[float]] = []
    prev: str | None = None
    for char in text:
        if char == prev:
            rows.extend(block(alphabet.blank_index))
        rows.extend(block(alphabet.char_column(char)))
        prev = char
    return LogitsMatrix.from_linear(rows, columns=cols)


def synthesize_corpus(
    spec: SynthesisSpec,
    out_dir,
    alphabet: ColoredAlphabet | None = None,
) -> tuple[list[Utterance], SynthLanguage]:
    """Write a full corpus under ``out_dir`` and return its rows.

    Produces ``logits/utt%04d.ctcl`` files and ``manifest.jsonl``; the
    returned utterances carry resolved paths and in-memory references.
    """
    if alphabet is None:
        alphabet = default_alphabet(2)
    out_dir = Path(out_dir)
    logits_dir = out_dir / "logits"
    logits_dir.mkdir(parents=True, exist_ok=True)

    lang = build_language(spec.chain_seed())
    sentences = sample_sentences(spec, lang)

    utterances: list[Utterance] = []
    for i, (words, mask) in enumerate(sentences):
        utt_id = f"utt{i:04d}"
        text = " ".join(words)
        matrix = synthesize_logits(
            text, alphabet, spec.noise_level, spec.frames_per_char
        )
        path = (logits_dir / f"{utt_id}.ctcl").resolve()
        write_logits(matrix, path)
        utterances.append(Utterance(utt_id, path, words, mask))

    write_manifest(utterances, out_dir / "manifest.jsonl")
    return utterances, lang
