"""Shared fixtures and small instance generators."""

import math
import random
import resource

import pytest

from colordecode.lexicon import ColoredAlphabet
from colordecode.ngram_lm import NGramModel


@pytest.fixture
def bigram_fixture_model() -> NGramModel:
    """Small bigram model over the / cat / sat / </s>."""
    entries = {
        ("the",): (-0.30103, -0.2),
        ("cat",): (-0.602059991, -0.15),
        ("sat",): (-0.9030899869919435, -0.1),
        ("</s>",): (-0.5228787452803376, 0.0),
        ("the", "cat"): (-0.15490195998574316, None),
        ("the", "the"): (-1.0, None),
        ("cat", "sat"): (-0.2218487496163564, None),
        ("sat", "</s>"): (-0.09691001300805642, None),
    }
    return NGramModel(max_order=2, entries=entries)


@pytest.fixture
def capped_address_space():
    """Caps this process's address space at 1 GiB above its size for one
    test, so code that allocates by a huge count fails with
    ``MemoryError`` rather than taking the machine's memory."""
    with open("/proc/self/statm") as statm:
        size = int(statm.read().split()[0]) * resource.getpagesize()
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = size + (1 << 30)
    for limit in (soft, hard):
        if limit != resource.RLIM_INFINITY:
            cap = min(cap, limit)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


@pytest.fixture
def abc_alphabet() -> ColoredAlphabet:
    return ColoredAlphabet(("a", "b", "c"), 1, None)


def random_rows(rng: random.Random, frames: int, columns: int) -> list[list[float]]:
    """Random per-frame linear distributions, occasionally with a zeroed
    column to exercise impossible paths."""
    rows = []
    for _ in range(frames):
        row = [rng.random() + 1e-3 for _ in range(columns)]
        if rng.random() < 0.3:
            row[rng.randrange(columns)] = 0.0
        total = sum(row)
        rows.append([v / total for v in row])
    return rows


def random_model(rng: random.Random, word_list) -> NGramModel:
    """A random unigram or bigram model over a random subset of
    ``word_list``, so unknown-word paths occur."""
    vocab = [w for w in word_list if rng.random() < 0.8]
    order = 2 if vocab and rng.random() < 0.5 else 1
    entries = {}
    if vocab:
        weights = [rng.random() + 0.05 for _ in vocab]
        total = sum(weights)
        for w, x in zip(vocab, weights):
            backoff = rng.uniform(-0.5, 0.0) if order == 2 else None
            entries[(w,)] = (math.log10(x / total), backoff)
        if order == 2:
            for a in vocab:
                for b in vocab:
                    if rng.random() < 0.4:
                        entries[(a, b)] = (rng.uniform(-1.5, -0.1), None)
    return NGramModel(max_order=order, entries=entries)


def random_c1_instance(rng: random.Random):
    """A small single-lexicon decoding problem as raw parts.

    Returns (base_chars, separator, words, model, rows, alpha, beta).
    The model covers a subset of the lexicon so unknown-word paths occur.
    """
    k = rng.randint(1, 3)
    chars = "abc"[:k]
    sep = chars[-1] if k >= 2 and rng.random() < 0.7 else None
    word_chars = chars.replace(sep, "") if sep else chars
    words: set[str] = set()
    for _ in range(rng.randint(0, 3)):
        length = rng.randint(1, 3)
        words.add("".join(rng.choice(word_chars) for _ in range(length)))
    word_list = sorted(words)
    model = random_model(rng, word_list)
    rows = random_rows(rng, rng.randint(0, 4), k + 1)
    alpha = rng.choice([0.5, 1.0])
    beta = rng.choice([0.0, 0.5])
    return chars, sep, word_list, model, rows, alpha, beta


def trie_words(trie) -> set[str]:
    """Every word a LexiconTrie spells, found by following ``root.children``."""
    words = set()
    stack = [trie.root]
    while stack:
        node = stack.pop()
        if node.word is not None:
            words.add(node.word)
        stack.extend(node.children.values())
    return words
