"""Backoff n-gram language models with ARPA serialization.

Models score one word at a time against a bounded history, backing off to
shorter contexts when the full context is unseen. Scores are log10
probabilities throughout, matching the on-disk ARPA convention.

The module also implements the "colored token" scheme used to combine a
general model with one or more domain models inside a single vocabulary:
every surface word is renamed to ``<colorId>:<word>`` with the color
identifying the source model, and the renamed entry sets are unioned. A
merged model can then score colored histories directly, keeping each
source model's statistics intact because the renamed vocabularies never
overlap across colors.

Parsing and merging run once per model at start-up; both are linear
in the entry count, with little work per entry: ``parse_arpa`` splits
each entry line once and checks it as it reads it, and proves the
model prefix-closed by looking up each entry's immediate prefix only;
``merge_colored`` renames each distinct token of a model once and
hashes each colored entry once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Iterable

__all__ = [
    "MalformedArpa",
    "DuplicateColoredToken",
    "EMPTY_STATE",
    "NGramModel",
    "DEFAULT_OOV_LOG10",
    "color_token",
    "parse_arpa",
    "serialize_arpa",
    "load_arpa",
    "save_arpa",
    "merge_colored",
]

DEFAULT_OOV_LOG10 = -10.0


class MalformedArpa(ValueError):
    """Raised when ARPA text violates the format or its n-gram entries are
    inconsistent (counts wrong, non-contiguous orders, missing prefixes)."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DuplicateColoredToken(ValueError):
    """Raised when merging colored models would assign the same colored
    n-gram two different entries."""


def color_token(word: str, color: int) -> str:
    """Rename a surface word into color space: ``clozaril`` + 1 -> ``1:clozaril``."""
    return f"{color}:{word}"


# a scoring context is the tuple of the most recent words, oldest first,
# never more than ``max_order - 1`` of them for the model that made it
EMPTY_STATE: tuple[str, ...] = ()


@dataclass
class NGramModel:
    """A backoff n-gram model over string tokens.

    ``entries`` maps each n-gram (a tuple of tokens, length 1..max_order)
    to ``(log10_prob, backoff_weight_or_None)``. Backoff weights are None
    exactly on entries that cannot be extended (in valid ARPA files, all
    entries of the highest order). Lookups use the standard longest-match
    rule: score with the longest known suffix of (context + word),
    accumulating backoff weights for every context that had to be
    shortened. A context that is missing entirely contributes backoff 0.
    """

    max_order: int
    entries: dict[tuple[str, ...], tuple[float, float | None]] = field(
        default_factory=dict
    )

    @property
    def vocabulary(self) -> set[str]:
        """All tokens with a unigram entry."""
        return {key[0] for key in self.entries if len(key) == 1}

    def advance(self, state: tuple[str, ...], word: str) -> tuple[str, ...]:
        """Append a word to the context, truncating to what the model can use."""
        keep = self.max_order - 1
        if keep <= 0:
            return EMPTY_STATE
        return (state + (word,))[-keep:]

    def score_word(
        self,
        state: tuple[str, ...],
        word: str,
        oov_log10: float = DEFAULT_OOV_LOG10,
    ) -> tuple[float, tuple[str, ...]]:
        """Score one word after ``state`` and return (log10 prob, next state).

        Unknown words (no unigram entry) receive ``oov_log10`` with no
        backoff charges; the word still enters the returned context so a
        following word sees the true history.
        """
        next_state = self.advance(state, word)
        if (word,) not in self.entries:
            return oov_log10, next_state

        context = state
        if len(context) > self.max_order - 1:
            context = context[len(context) - (self.max_order - 1):]
        penalty = 0.0
        # ends at the unigram entry, found above, at the latest
        while True:
            hit = self.entries.get(context + (word,))
            if hit is not None:
                return penalty + hit[0], next_state
            back = self.entries.get(context)
            if back is not None and back[1] is not None:
                penalty += back[1]
            context = context[1:]


_INF = float("inf")
_NEG_INF = -_INF


def _check_prefixes(entries: dict[tuple[str, ...], object]) -> None:
    # Every proper prefix of an entry must itself be an entry, otherwise
    # the backoff walk would silently skip a level. When every entry's
    # immediate prefix is an entry, by induction so is every shorter
    # one; only a failure walks all prefixes, to name the first gap.
    for key in entries:
        if len(key) > 1 and key[:-1] not in entries:
            break
    else:
        return
    for key in entries:
        for cut in range(1, len(key)):
            if key[:cut] not in entries:
                raise MalformedArpa(
                    f"{len(key)}-gram {' '.join(key)!r} lacks prefix entry "
                    f"{' '.join(key[:cut])!r}"
                )


def parse_arpa(text: str) -> NGramModel:
    """Parse ARPA text into an NGramModel.

    Enforces: a ``\\data\\`` header with contiguous orders 1..N, section
    counts matching the header, one entry per line shaped as
    ``logprob tok1..tokN [backoff]``, finite or -inf log probabilities
    (never positive, never NaN), finite backoff weights, no backoff on
    the highest order, no duplicate entries, a closing ``\\end\\``, and
    prefix-closedness of the final entry set. Violations raise
    MalformedArpa with a 1-based line number where one applies.
    """
    lines = text.splitlines()
    counts: dict[int, int] = {}
    entries: dict[tuple[str, ...], tuple[float, float | None]] = {}

    i = 0
    n_lines = len(lines)

    def skip_blank(j: int) -> int:
        while j < n_lines and not lines[j].strip():
            j += 1
        return j

    i = skip_blank(i)
    if i >= n_lines or lines[i].strip() != "\\data\\":
        raise MalformedArpa("expected \\data\\ header", i + 1 if i < n_lines else None)
    i += 1

    count_re = re.compile(r"^ngram\s+(\d+)\s*=\s*(\d+)$")
    while i < n_lines:
        stripped = lines[i].strip()
        if not stripped:
            i += 1
            continue
        m = count_re.match(stripped)
        if not m:
            break
        order = int(m.group(1))
        if order in counts:
            raise MalformedArpa(f"repeated count for order {order}", i + 1)
        counts[order] = int(m.group(2))
        i += 1

    if not counts:
        raise MalformedArpa("no ngram count lines after \\data\\")
    max_order = max(counts)
    for order in range(1, max_order + 1):
        if order not in counts:
            raise MalformedArpa(f"non-contiguous orders: missing ngram {order}= line")

    seen_sections: set[int] = set()
    section_re = re.compile(r"^\\(\d+)-grams:$")
    while True:
        i = skip_blank(i)
        if i >= n_lines:
            raise MalformedArpa("missing \\end\\")
        stripped = lines[i].strip()
        if stripped == "\\end\\":
            break
        m = section_re.match(stripped)
        if not m:
            raise MalformedArpa(f"unexpected content {stripped!r}", i + 1)
        order = int(m.group(1))
        if order not in counts:
            raise MalformedArpa(f"section for undeclared order {order}", i + 1)
        if order in seen_sections:
            raise MalformedArpa(f"duplicate \\{order}-grams: section", i + 1)
        seen_sections.add(order)
        i += 1

        plain = order + 1  # fields of an entry without a backoff weight
        backoff_allowed = order != max_order
        # entries held before this section; a section's count of new keys
        # falls behind its line count exactly at a duplicate
        before = len(entries)
        section_count = 0
        for i in range(i, n_lines):
            fields = lines[i].split()
            if not fields:
                continue
            if fields[0][0] == "\\":
                break
            n_fields = len(fields)
            if n_fields != plain and n_fields != plain + 1:
                raise MalformedArpa(
                    f"expected {plain} or {plain + 1} fields, got {n_fields}",
                    i + 1,
                )
            try:
                logprob = float(fields[0])
            except ValueError:
                raise MalformedArpa(
                    f"bad log probability {fields[0]!r}", i + 1
                ) from None
            if not logprob <= 0.0:
                if logprob != logprob:
                    raise MalformedArpa("log probability is NaN", i + 1)
                raise MalformedArpa(f"positive log probability {logprob!r}", i + 1)
            if n_fields == plain:
                key = tuple(fields[1:])
                backoff = None
            else:
                if not backoff_allowed:
                    raise MalformedArpa(
                        "backoff weight on highest-order entry", i + 1
                    )
                key = tuple(fields[1:plain])
                try:
                    backoff = float(fields[plain])
                except ValueError:
                    raise MalformedArpa(
                        f"bad backoff weight {fields[plain]!r}", i + 1
                    ) from None
                if not _NEG_INF < backoff < _INF:
                    if backoff != backoff:
                        raise MalformedArpa("backoff weight is NaN", i + 1)
                    raise MalformedArpa("infinite backoff weight", i + 1)
            entries[key] = (logprob, backoff)
            section_count += 1
            if len(entries) - before != section_count:
                raise MalformedArpa(f"duplicate entry {' '.join(key)!r}", i + 1)
        else:
            i = n_lines

        if section_count != counts[order]:
            raise MalformedArpa(
                f"\\{order}-grams: section has {section_count} entries, "
                f"header declared {counts[order]}"
            )

    for order in counts:
        if counts[order] > 0 and order not in seen_sections:
            raise MalformedArpa(f"missing \\{order}-grams: section")

    _check_prefixes(entries)
    return NGramModel(max_order=max_order, entries=entries)


def serialize_arpa(model: NGramModel) -> str:
    """Render a model as ARPA text.

    Entries are sorted per order for a canonical layout, and floats use
    repr() so parse(serialize(m)) reproduces every bit of m.
    """
    by_order: dict[int, list[tuple[tuple[str, ...], tuple[float, float | None]]]] = {
        order: [] for order in range(1, model.max_order + 1)
    }
    for key, value in model.entries.items():
        by_order[len(key)].append((key, value))

    out: list[str] = ["\\data\\"]
    for order in range(1, model.max_order + 1):
        out.append(f"ngram {order}={len(by_order[order])}")
    for order in range(1, model.max_order + 1):
        out.append("")
        out.append(f"\\{order}-grams:")
        for key, (logprob, backoff) in sorted(by_order[order]):
            parts = [repr(logprob), " ".join(key)]
            if backoff is not None:
                parts.append(repr(backoff))
            out.append("\t".join(parts))
    out.append("")
    out.append("\\end\\")
    return "\n".join(out) + "\n"


def load_arpa(path) -> NGramModel:
    """Read and parse an ARPA file. Text that is not UTF-8 or not valid
    ARPA raises MalformedArpa naming ``path`` (and keeping ``line``)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise MalformedArpa(f"{path}: not UTF-8 text: {exc}") from None
    try:
        return parse_arpa(text)
    except MalformedArpa as exc:
        named = MalformedArpa(f"{path}: {exc}")
        named.line = exc.line
        raise named from None


def save_arpa(model: NGramModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_arpa(model))


def merge_colored(models: Iterable[tuple[NGramModel, int]]) -> NGramModel:
    """Union color-renamed copies of several models into one model.

    Each (model, color) pair contributes its entries with every token
    renamed by ``color_token``. Orders may differ; the merged model's
    order is the maximum. Colliding colored n-grams raise
    DuplicateColoredToken since the merge would have to drop statistics.
    """
    merged: dict[tuple[str, ...], tuple[float, float | None]] = {}
    max_order = 0
    done: list[tuple[NGramModel, int]] = []
    for model, color in models:
        done.append((model, color))
        max_order = max(max_order, model.max_order)
        entries = model.entries
        # each distinct token renamed once; renaming within one color is
        # one-to-one, so only another model's entries can collide
        rename = {
            tok: color_token(tok, color) for tok in set(chain.from_iterable(entries))
        }
        size = len(merged) + len(entries)
        # tuple(map(rename.__getitem__, key)) for every key, looped in C
        colored = map(tuple, map(map, repeat(rename.__getitem__), entries))
        merged.update(zip(colored, entries.values()))
        if len(merged) != size:
            _raise_first_collision(done)
    if max_order == 0:
        raise ValueError("merge_colored needs at least one model")
    return NGramModel(max_order=max_order, entries=merged)


def _raise_first_collision(models: list[tuple[NGramModel, int]]) -> None:
    """Replay a merge of ``models`` entry by entry and raise at the first
    colored n-gram met twice."""
    seen: set[tuple[str, ...]] = set()
    for model, color in models:
        for key in model.entries:
            colored_key = tuple(color_token(tok, color) for tok in key)
            if colored_key in seen:
                raise DuplicateColoredToken(
                    f"colored n-gram {' '.join(colored_key)!r} appears twice"
                )
            seen.add(colored_key)
