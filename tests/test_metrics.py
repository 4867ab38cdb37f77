import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colordecode.metrics import (
    EvalReport,
    LengthMismatch,
    MethodResult,
    align,
    cer,
    edit_distance,
    jargon_wer,
    wer,
)

# ---------------------------------------------------------------------------
# edit_distance
# ---------------------------------------------------------------------------


def brute_force_distance(a, b):
    """Definition-based three-way recursion, no DP table."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    return min(
        brute_force_distance(a[1:], b[1:]) + (a[0] != b[0]),
        brute_force_distance(a[1:], b) + 1,
        brute_force_distance(a, b[1:]) + 1,
    )


@pytest.mark.parametrize(
    "a, b, want",
    [
        ("", "", 0),
        ("abc", "abc", 0),
        ("abc", "axc", 1),
        ("abc", "ab", 1),
        ("kitten", "sitting", 3),
        ("", "xyz", 3),
    ],
)
def test_edit_distance_known_values(a, b, want):
    assert edit_distance(a, b) == want


@settings(max_examples=100)
@given(
    st.text(alphabet="ab", max_size=5),
    st.text(alphabet="ab", max_size=5),
)
def test_edit_distance_matches_brute_force(a, b):
    assert edit_distance(a, b) == brute_force_distance(a, b)


def plain_dp_distance(a, b):
    """The textbook O(n·m) table, one row at a time."""
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, start=1):
        cur = [i] + [0] * len(b)
        for j, y in enumerate(b, start=1):
            cur[j] = min(prev[j - 1] + (x != y), prev[j] + 1, cur[j - 1] + 1)
        prev = cur
    return prev[-1]


def test_edit_distance_matches_a_plain_dp_beyond_one_machine_word():
    """Strings and word lists up to 150 elements, so the bit vectors
    over ``ref`` run past 64 bits, over small alphabets where long
    matches and many ties occur; both argument orders."""
    rng = random.Random(2718)
    words = ["the", "a", "cat", "sat", "mat", "on", "catt"]
    long_pairs = 0
    for i in range(600):
        n, m = rng.randint(0, 150), rng.randint(0, 150)
        if i % 2:
            a = [rng.choice(words) for _ in range(n)]
            b = [rng.choice(words) for _ in range(m)]
        else:
            alphabet = "abc "[: rng.randint(1, 4)]
            a = "".join(rng.choice(alphabet) for _ in range(n))
            b = "".join(rng.choice(alphabet) for _ in range(m))
        if i % 3 == 0 and a:
            # a near copy: a few edits of a
            b = list(a)
            for _ in range(rng.randint(1, 4)):
                b.insert(rng.randint(0, len(b)), b[rng.randrange(len(b))])
                del b[rng.randrange(len(b))]
            b = "".join(b) if isinstance(a, str) else b
        want = plain_dp_distance(a, b)
        assert edit_distance(a, b) == want
        assert edit_distance(b, a) == want
        long_pairs += min(len(a), len(b)) > 64
    assert long_pairs > 100


def test_edit_distance_of_word_lists_counts_whole_words():
    assert edit_distance(["colored", "words"], ["colored", "word"]) == 1
    assert edit_distance(["a", "b"] * 40, ["b", "a"] * 40) == 2
    assert edit_distance(["x"] * 70, ["x"] * 69 + ["y"]) == 1


@given(
    st.text(alphabet="abc", max_size=6),
    st.text(alphabet="abc", max_size=6),
    st.text(alphabet="abc", max_size=6),
)
def test_edit_distance_is_a_metric(a, b, c):
    assert edit_distance(a, b) == edit_distance(b, a)
    assert (edit_distance(a, b) == 0) == (a == b)
    assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)


# ---------------------------------------------------------------------------
# align
# ---------------------------------------------------------------------------


def _alignment_cost(ref, hyp, pairs):
    cost = 0
    for ri, hi in pairs:
        if ri is None or hi is None:
            cost += 1
        elif ref[ri] != hyp[hi]:
            cost += 1
    return cost


@given(
    st.lists(st.sampled_from("abc"), max_size=6),
    st.lists(st.sampled_from("abc"), max_size=6),
)
def test_align_achieves_minimal_cost(ref, hyp):
    pairs = align(ref, hyp)
    assert _alignment_cost(ref, hyp, pairs) == edit_distance(ref, hyp)
    # Every index appears exactly once, in order.
    ref_idx = [ri for ri, _ in pairs if ri is not None]
    hyp_idx = [hi for _, hi in pairs if hi is not None]
    assert ref_idx == list(range(len(ref)))
    assert hyp_idx == list(range(len(hyp)))


def test_align_deterministic():
    ref, hyp = ["a", "b", "c"], ["x", "b"]
    assert align(ref, hyp) == align(ref, hyp)
    assert align(ref, hyp) == [(0, 0), (1, 1), (2, None)]


@pytest.mark.parametrize("ref", [(), ("a",), ("a", "a", "b"), ("b", "a", "b", "a")])
def test_equal_sequences_align_on_the_diagonal(ref):
    """Equal word sequences, also as a tuple against a list, are 0 edits
    apart and align word for word."""
    for hyp in (ref, tuple(ref), list(ref)):
        assert edit_distance(ref, hyp) == 0
        assert align(ref, hyp) == [(i, i) for i in range(len(ref))]


# ---------------------------------------------------------------------------
# wer / cer
# ---------------------------------------------------------------------------


def test_wer_substitution_fixture():
    got = wer([["a", "b", "c"]], [["a", "x", "c"]])
    assert got == pytest.approx(100.0 / 3.0, abs=0.01)


def test_wer_deletion_fixture():
    got = wer([["a", "b", "c"]], [["a", "b"]])
    assert got == pytest.approx(100.0 / 3.0, abs=0.01)


def test_wer_identity_is_zero():
    assert wer([["a", "b"]], [["a", "b"]]) == 0.0


def test_wer_pools_rather_than_averages():
    refs = [["w"], ["a", "b", "c"]]
    hyps = [["x"], ["a", "b", "c"]]
    # pooled: 1 edit / 4 ref words = 25%; a per-utterance average would say 50%
    assert wer(refs, hyps) == pytest.approx(25.0, abs=1e-9)


def test_wer_can_exceed_100():
    assert wer([["a"]], [["x", "y", "z"]]) == pytest.approx(300.0, abs=1e-9)


def test_empty_pair_contributes_nothing():
    assert wer([[], ["a"]], [[], ["a"]]) == 0.0
    assert wer([[]], [[]]) == 0.0


def test_wer_length_mismatch():
    with pytest.raises(LengthMismatch):
        wer([["a"]], [["a"], ["b"]])
    with pytest.raises(LengthMismatch):
        cer([["a"]], [["a"], ["b"]])


def test_cer_fixtures():
    assert cer([["ab"]], [["ab"]]) == 0.0
    assert cer([["ab"]], [["ac"]]) == pytest.approx(50.0, abs=0.01)
    # spaces count as characters in the joined form: "a b" vs "a c"
    assert cer([["a", "b"]], [["a", "c"]]) == pytest.approx(
        100.0 / 3.0, abs=0.01
    )


def test_cer_equals_wer_for_single_char_words():
    refs = [["a"], ["b"], ["c"]]
    hyps = [["a"], ["x"], ["c"]]
    assert cer(refs, hyps) == wer(refs, hyps)


@settings(max_examples=50)
@given(
    st.lists(
        st.tuples(
            st.lists(st.sampled_from(["aa", "b", "cd"]), max_size=4),
            st.lists(st.sampled_from(["aa", "b", "cd"]), max_size=4),
        ),
        min_size=1,
        max_size=5,
    )
)
def test_wer_invariant_to_utterance_order(pairs):
    refs = [r for r, _ in pairs]
    hyps = [h for _, h in pairs]
    base = wer(refs, hyps)
    rng = random.Random(0)
    order = list(range(len(pairs)))
    rng.shuffle(order)
    shuffled = wer([refs[i] for i in order], [hyps[i] for i in order])
    if base == float("inf"):
        assert shuffled == float("inf")
    else:
        assert shuffled == pytest.approx(base, abs=1e-9)


# ---------------------------------------------------------------------------
# jargon_wer
# ---------------------------------------------------------------------------


def test_jargon_wer_counts_only_masked_words():
    refs = [["he", "took", "clozaril", "daily"]]
    masks = [[False, False, True, False]]
    perfect = [["he", "took", "clozaril", "daily"]]
    garbled = [["ha", "tok", "clozaril", "dailee"]]
    assert jargon_wer(refs, masks, perfect) == 0.0
    assert jargon_wer(refs, masks, garbled) == 0.0  # jargon word intact


def test_jargon_wer_one_of_four():
    refs = [["j1", "j2", "j3", "j4"]]
    masks = [[True, True, True, True]]
    hyps = [["j1", "xx", "j3", "j4"]]
    assert jargon_wer(refs, masks, hyps) == pytest.approx(25.0, abs=1e-9)


def test_jargon_wer_counts_deletions():
    refs = [["a", "jj", "b"]]
    masks = [[False, True, False]]
    hyps = [["a", "b"]]
    assert jargon_wer(refs, masks, hyps) == pytest.approx(100.0, abs=1e-9)


def test_jargon_wer_ignores_insertions():
    refs = [["jj"]]
    masks = [[True]]
    hyps = [["extra", "jj", "more"]]
    assert jargon_wer(refs, masks, hyps) == 0.0


def test_jargon_wer_none_without_masked_words():
    assert jargon_wer([["a", "b"]], [[False, False]], [["a", "b"]]) is None
    assert jargon_wer([], [], []) is None


def test_jargon_wer_mask_length_checked():
    with pytest.raises(LengthMismatch):
        jargon_wer([["a", "b"]], [[True]], [["a", "b"]])
    with pytest.raises(LengthMismatch):
        jargon_wer([["a"]], [[True]], [])


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def _report():
    return EvalReport(
        corpus="demo",
        results=[
            MethodResult("coloring", 1.25, 0.5, 0.0, 10, {"alpha": 1.0}),
            MethodResult("general", 20.0, 9.0, None, 10, None),
        ],
    )


def test_report_text_layout():
    text = _report().as_text()
    assert "rates are percent, pooled over all utterances" in text
    assert "coloring" in text and "general" in text
    assert "n/a" in text  # missing jargon rate
    assert text.endswith("\n")


def test_report_json_round_trips():
    payload = json.loads(_report().as_json())
    assert payload["corpus"] == "demo"
    assert payload["results"][0]["method"] == "coloring"
    assert payload["results"][1]["jargon_wer"] is None
