import json
import math
import pickle
import random

import numpy as np
import pytest

from colordecode.corpus import (
    EmptyLexicon,
    MalformedManifest,
    MissingLogitsFile,
    IoFailure,
    SynthesisSpec,
    Utterance,
    build_language,
    default_alphabet,
    format_colored,
    generate_lexicons,
    language_models,
    read_lexicon,
    read_logits,
    read_manifest,
    sample_sentences,
    synthesize_corpus,
    synthesize_logits,
    write_colored_transcript,
    write_logits,
    write_manifest,
)
from colordecode.decoder import ColoredTranscript, LogitsMatrix
from colordecode.ngram_lm import parse_arpa, serialize_arpa
from conftest import random_rows

# ---------------------------------------------------------------------------
# Logits container
# ---------------------------------------------------------------------------


def test_binary_logits_lossless_round_trip(tmp_path):
    rng = random.Random(4)
    rows = random_rows(rng, 5, 4)
    matrix = LogitsMatrix.from_linear(rows)
    path = tmp_path / "x.ctcl"
    write_logits(matrix, path)
    again = read_logits(path)
    assert np.array_equal(matrix.natural, again.natural)
    assert matrix.log10_rows() == again.log10_rows()


def test_binary_logits_bytes_deterministic(tmp_path):
    matrix = LogitsMatrix.from_linear([[0.25, 0.75]])
    a, b = tmp_path / "a.ctcl", tmp_path / "b.ctcl"
    write_logits(matrix, a)
    write_logits(matrix, b)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().startswith(b"CTCL1\n1 2\n")


def test_binary_logits_empty_matrix(tmp_path):
    matrix = LogitsMatrix.from_linear([], columns=3)
    path = tmp_path / "empty.ctcl"
    write_logits(matrix, path)
    again = read_logits(path)
    assert again.frames == 0 and again.columns == 3


def test_json_logits(tmp_path):
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"frames": [[0.5, 0.5], [0.1, 0.9]]}))
    m = read_logits(path)
    assert m.frames == 2 and m.columns == 2
    path2 = tmp_path / "empty.json"
    path2.write_text(json.dumps({"frames": [], "columns": 4}))
    assert read_logits(path2).columns == 4


@pytest.mark.parametrize(
    "blob",
    [
        b"CTCL1\n",  # truncated header
        b"CTCL1\nx y\n",  # non-integer dims
        b"CTCL1\n2 3\n" + b"\x00" * 10,  # body size mismatch
        b"CTCL1\n1 1\n" + b"\x00" * 8,  # too few columns
        b"CTCL1\n5\n",  # a header with one field
        b"not json at all {",
        b'{"no_frames": 1}',
    ],
)
def test_logits_malformed(tmp_path, blob):
    path = tmp_path / "bad.ctcl"
    path.write_bytes(blob)
    with pytest.raises(IoFailure):
        read_logits(path)


def test_logits_missing_file(tmp_path):
    path = tmp_path / "absent.ctcl"
    with pytest.raises(MissingLogitsFile) as exc:
        read_logits(path)
    assert str(exc.value) == f"logits file {path} does not exist"
    assert exc.value.path == path


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------


def _write_logits_file(tmp_path, name="u.ctcl"):
    path = tmp_path / name
    write_logits(LogitsMatrix.from_linear([[0.5, 0.5]]), path)
    return path


def test_manifest_round_trip(tmp_path):
    lp = _write_logits_file(tmp_path)
    utts = [
        Utterance("u1", lp, ("hello", "world"), (False, True)),
        Utterance("u2", lp, None, None),
    ]
    manifest = tmp_path / "manifest.jsonl"
    write_manifest(utts, manifest)
    again = read_manifest(manifest)
    assert [u.id for u in again] == ["u1", "u2"]
    assert again[0].reference == ("hello", "world")
    assert again[0].jargon_mask == (False, True)
    assert again[1].reference is None and again[1].jargon_mask is None
    assert again[0].logits_path == lp.resolve()


def test_manifest_accepts_word_list_reference(tmp_path):
    lp = _write_logits_file(tmp_path)
    manifest = tmp_path / "m.jsonl"
    manifest.write_text(
        json.dumps({"id": "u", "logits": lp.name, "reference": ["a", "b"]})
        + "\n"
    )
    assert read_manifest(manifest)[0].reference == ("a", "b")


@pytest.mark.parametrize(
    "row, err_line",
    [
        ("{bad json", 1),
        ('"not an object"', 1),
        ('{"logits": "u.ctcl"}', 1),  # missing id
        ('{"id": "u"}', 1),  # missing logits
        ('{"id": "u", "logits": "u.ctcl", "jargon_mask": [true]}', 1),
        (
            '{"id": "u", "logits": "u.ctcl", "reference": "a b", '
            '"jargon_mask": [true]}',
            1,
        ),
        (
            '{"id": "u", "logits": "u.ctcl", "reference": "a", '
            '"jargon_mask": [1]}',
            1,
        ),
    ],
)
def test_manifest_malformed_rows(tmp_path, row, err_line):
    _write_logits_file(tmp_path)
    manifest = tmp_path / "m.jsonl"
    manifest.write_text(row + "\n")
    with pytest.raises(MalformedManifest) as exc:
        read_manifest(manifest)
    assert exc.value.line == err_line
    assert str(exc.value).startswith(f"{manifest}: line {err_line}: ")


def test_manifest_duplicate_ids(tmp_path):
    lp = _write_logits_file(tmp_path)
    manifest = tmp_path / "m.jsonl"
    row = json.dumps({"id": "u", "logits": lp.name})
    manifest.write_text(row + "\n" + row + "\n")
    with pytest.raises(MalformedManifest) as exc:
        read_manifest(manifest)
    assert exc.value.line == 2
    assert str(exc.value) == f"{manifest}: line 2: duplicate id 'u'"


def test_manifest_line_numbers_count_newlines_only(tmp_path):
    """Rows are split on newlines alone, a CRLF counting as one: a
    U+2028 inside a row starts no line, so a bad row's number is the
    one an editor shows."""
    lp = _write_logits_file(tmp_path)
    manifest = tmp_path / "m.jsonl"
    row = json.dumps(
        {"id": "u", "logits": lp.name, "reference": "a\u2028b"}, ensure_ascii=False
    )
    manifest.write_bytes((row + "\r\n\r\n{bad json\r\n").encode("utf-8"))
    with pytest.raises(MalformedManifest) as exc:
        read_manifest(manifest)
    assert exc.value.line == 3


def test_manifest_that_is_not_utf8_is_named(tmp_path):
    manifest = tmp_path / "m.jsonl"
    manifest.write_bytes(b'{"id": "u", "logits": "u.ctcl", "reference": "\xd0b"}\n')
    with pytest.raises(IoFailure, match="not UTF-8 text") as exc:
        read_manifest(manifest)
    assert str(exc.value).startswith(f"{manifest}: ")


def test_manifest_checks_logits_exist(tmp_path):
    """The error names the file, the manifest and the row's line, and
    survives the pickling that carries a decode worker's error back."""
    manifest = tmp_path / "m.jsonl"
    manifest.write_text("\n" + json.dumps({"id": "u", "logits": "gone.ctcl"}) + "\n")
    with pytest.raises(MissingLogitsFile) as exc:
        read_manifest(manifest)
    gone = (tmp_path / "gone.ctcl").resolve()
    assert str(exc.value) == (
        f"logits file {gone} does not exist (manifest {manifest}, line 2)"
    )
    again = pickle.loads(pickle.dumps(exc.value))
    assert type(again) is MissingLogitsFile
    assert str(again) == str(exc.value)
    assert (again.path, again.manifest, again.line) == (gone, manifest, 2)


def test_manifest_paths_resolve_as_path_resolve(tmp_path):
    """Each row's logits path is exactly ``(manifest dir / logits)
    .resolve()``: through a symlinked directory (the manifest's own and
    a row's), to a symlinked file and over ``..``, also after a symlink;
    a missing file is named by that same path."""
    real = tmp_path / "real"
    (real / "sub").mkdir(parents=True)
    _write_logits_file(real, "a.ctcl")
    _write_logits_file(real / "sub", "b.ctcl")
    data = tmp_path / "data"
    data.mkdir()
    (data / "linked").symlink_to(real, target_is_directory=True)
    (data / "alias.ctcl").symlink_to(real / "sub" / "b.ctcl")
    _write_logits_file(data, "c.ctcl")
    (tmp_path / "datalink").symlink_to(data, target_is_directory=True)
    rows = [
        "c.ctcl",
        "./c.ctcl",
        "linked/a.ctcl",
        "linked/sub/b.ctcl",
        "alias.ctcl",
        "../real/a.ctcl",
        "linked/sub/../a.ctcl",
        "linked/sub/..",
        "linked/sub/",
        str(real / "sub" / "b.ctcl"),
    ]
    manifest = data / "m.jsonl"

    def write(rows):
        manifest.write_text(
            "".join(json.dumps({"id": f"u{i}", "logits": r}) + "\n"
                    for i, r in enumerate(rows))
        )

    write(rows)
    for base in (data, tmp_path / "datalink"):
        read = read_manifest(base / "m.jsonl")
        expected = [(base / r).resolve() for r in rows]
        assert [str(u.logits_path) for u in read] == [str(p) for p in expected]
    # the symlinked file and the ".." after a symlink resolve to targets
    assert read[4].logits_path == real / "sub" / "b.ctcl"
    assert read[6].logits_path == real / "a.ctcl"

    for missing in ("gone.ctcl", "linked/gone.ctcl", "linked/sub/../gone.ctcl",
                    "gone/x.ctcl", "/colordecode-gone.ctcl"):
        write([missing])
        with pytest.raises(MissingLogitsFile) as exc:
            read_manifest(tmp_path / "datalink" / "m.jsonl")
        assert str(exc.value.path) == str((tmp_path / "datalink" / missing).resolve())


# ---------------------------------------------------------------------------
# Lexicon files and markup
# ---------------------------------------------------------------------------


def test_read_lexicon(tmp_path):
    path = tmp_path / "lex.txt"
    path.write_text("# comment\nHello\n\nworld\nhello\n")
    assert read_lexicon(path) == ("hello", "world")
    empty = tmp_path / "empty.txt"
    empty.write_text("# only a comment\n")
    with pytest.raises(EmptyLexicon):
        read_lexicon(empty)


def test_markup_fixture():
    words = (("he", 0), ("clozaril", 1))
    assert format_colored(words, 2) == "he [J:clozaril]"


def test_markup_many_colors():
    words = (("a", 0), ("b", 1), ("c", 2))
    text = format_colored(words, 3)
    assert text == "a [J1:b] [J2:c]"


def test_write_colored_transcript(tmp_path):
    t = ColoredTranscript((("he", 0), ("clozaril", 1)), -3.5)
    path = tmp_path / "out.txt"
    write_colored_transcript(t, path, num_colors=2)
    assert path.read_text() == "he [J:clozaril]\n"
    sidecar = json.loads((tmp_path / "out.txt.json").read_text())
    assert sidecar == {"words": [["he", 0], ["clozaril", 1]], "score": -3.5}


# ---------------------------------------------------------------------------
# Synthesis: language
# ---------------------------------------------------------------------------


def test_default_alphabet_layout():
    ab = default_alphabet(2)
    assert len(ab.base_chars) == 27
    assert ab.word_separator == " "
    assert ab.num_columns == 28


def test_spec_validation():
    good = dict(
        num_sentences=1,
        jargon_insertion_rate=0.3,
        noise_level=0.2,
        frames_per_char=1,
        rng_seed=0,
    )
    SynthesisSpec(**good)
    for key, bad in [
        ("num_sentences", 0),
        ("jargon_insertion_rate", 1.5),
        ("noise_level", 1.0),
        ("frames_per_char", 0),
        ("min_words", 0),
    ]:
        with pytest.raises(ValueError):
            SynthesisSpec(**{**good, key: bad})


def test_generate_lexicons_structure():
    lex = generate_lexicons(3)
    assert len(lex.general) == 40
    assert len(set(lex.general)) == 40
    assert lex.shared == lex.general[:5]
    assert len(lex.mutations) == 15
    assert lex.jargon == lex.shared + lex.mutations
    # no mutation collides with any general spelling
    assert not set(lex.mutations) & set(lex.general)
    # the first five mutations are one-substitution variants of the shared words
    for base, mut in zip(lex.shared, lex.mutations[:5]):
        assert len(base) == len(mut)
        assert sum(a != b for a, b in zip(base, mut)) == 1


def test_language_models_are_proper_distributions():
    lang = build_language(9)
    general, jargon = language_models(lang)
    uni_mass = sum(
        10 ** general.entries[(w,)][0] for w in lang.lexicons.general
    )
    assert uni_mass == pytest.approx(1.0, abs=1e-9)
    for prev in lang.lexicons.general:
        row_mass = sum(
            10 ** general.entries[(prev, w)][0] for w in lang.lexicons.general
        )
        assert row_mass == pytest.approx(1.0, abs=1e-9)
    j_mass = sum(10 ** lp for lp, _ in jargon.entries.values())
    assert j_mass == pytest.approx(1.0, abs=1e-9)


def test_language_models_serialize_exactly():
    lang = build_language(11)
    general, jargon = language_models(lang)
    assert parse_arpa(serialize_arpa(general)) == general
    assert parse_arpa(serialize_arpa(jargon)) == jargon


def test_language_shared_across_seeds():
    a = build_language(5)
    b = build_language(5)
    assert a == b
    c = build_language(6)
    assert c.lexicons.general != a.lexicons.general


def test_sentences_respect_language_seed_split():
    lang = build_language(5)
    base = dict(
        num_sentences=30,
        jargon_insertion_rate=0.3,
        noise_level=0.2,
        frames_per_char=1,
        language_seed=5,
    )
    s1 = sample_sentences(SynthesisSpec(rng_seed=100, **base), lang)
    s1_again = sample_sentences(SynthesisSpec(rng_seed=100, **base), lang)
    s2 = sample_sentences(SynthesisSpec(rng_seed=101, **base), lang)
    assert s1 == s1_again
    assert s1 != s2


def test_jargon_mask_marks_jargon_words():
    lang = build_language(7)
    spec = SynthesisSpec(
        num_sentences=200,
        jargon_insertion_rate=0.3,
        noise_level=0.0,
        frames_per_char=1,
        rng_seed=7,
    )
    sentences = sample_sentences(spec, lang)
    total = 0
    flagged = 0
    mutations = set(lang.lexicons.mutations)
    general = set(lang.lexicons.general)
    for words, mask in sentences:
        assert len(words) == len(mask)
        for word, m in zip(words, mask):
            total += 1
            flagged += m
            if m:
                assert word in mutations
            else:
                assert word in general
    assert flagged / total == pytest.approx(0.3, abs=0.05)


# ---------------------------------------------------------------------------
# Synthesis: logits and corpora
# ---------------------------------------------------------------------------


def test_synthesize_logits_block_structure():
    ab = default_alphabet(1)
    m = synthesize_logits("aa", ab, noise_level=0.1, frames_per_char=2)
    # a (2 frames), forced blank block (2), a (2)
    assert m.frames == 6
    rows = 10 ** np.array(m.log10_rows())
    a_col = ab.char_column("a")
    assert rows[0][a_col] == pytest.approx(0.9, abs=1e-9)
    assert rows[2][ab.blank_index] == pytest.approx(0.9, abs=1e-9)
    assert rows[4][a_col] == pytest.approx(0.9, abs=1e-9)
    # rows are proper distributions
    assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-9)


def test_synthesize_logits_zero_noise_is_forced():
    ab = default_alphabet(1)
    m = synthesize_logits("ab", ab, noise_level=0.0, frames_per_char=1)
    rows = 10 ** np.array(m.log10_rows())
    assert rows[0][ab.char_column("a")] == 1.0
    assert rows[1][ab.char_column("b")] == 1.0


def _greedy_collapse(matrix, alphabet):
    out = []
    prev = None
    for row in matrix.log10_rows():
        col = max(range(len(row)), key=row.__getitem__)
        if col != prev and col != alphabet.blank_index:
            out.append(alphabet.base_chars[col])
        prev = col
    return "".join(out)


def test_corpus_zero_noise_greedy_equals_reference(tmp_path):
    spec = SynthesisSpec(
        num_sentences=8,
        jargon_insertion_rate=0.4,
        noise_level=0.0,
        frames_per_char=2,
        rng_seed=13,
    )
    utts, _ = synthesize_corpus(spec, tmp_path)
    ab = default_alphabet(2)
    for utt in utts:
        matrix = read_logits(utt.logits_path)
        assert _greedy_collapse(matrix, ab) == " ".join(utt.reference)


def test_corpus_synthesis_byte_identical(tmp_path):
    spec = SynthesisSpec(
        num_sentences=5,
        jargon_insertion_rate=0.3,
        noise_level=0.25,
        frames_per_char=1,
        rng_seed=21,
    )
    utts_a, lang_a = synthesize_corpus(spec, tmp_path / "a")
    utts_b, lang_b = synthesize_corpus(spec, tmp_path / "b")
    assert lang_a == lang_b
    assert (tmp_path / "a" / "manifest.jsonl").read_bytes() == (
        tmp_path / "b" / "manifest.jsonl"
    ).read_bytes()
    for ua, ub in zip(utts_a, utts_b):
        assert ua.id == ub.id and ua.reference == ub.reference
        assert ua.logits_path.read_bytes() == ub.logits_path.read_bytes()


def test_corpus_manifest_reads_back(tmp_path):
    spec = SynthesisSpec(
        num_sentences=4,
        jargon_insertion_rate=0.5,
        noise_level=0.1,
        frames_per_char=1,
        rng_seed=2,
    )
    utts, _ = synthesize_corpus(spec, tmp_path)
    again = read_manifest(tmp_path / "manifest.jsonl")
    assert [u.id for u in again] == [u.id for u in utts]
    assert all(a.reference == b.reference for a, b in zip(again, utts))
    assert all(a.jargon_mask == b.jargon_mask for a, b in zip(again, utts))
