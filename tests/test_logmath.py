import math
from functools import reduce

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from colordecode.logmath import NEG_INF, logaddexp10, logsumexp10

finite_log = st.floats(min_value=-200.0, max_value=0.0)


def test_known_sum():
    got = logaddexp10(math.log10(0.25), math.log10(0.5))
    assert got == pytest.approx(math.log10(0.75), abs=1e-12)


def test_neg_inf_identity():
    assert logaddexp10(NEG_INF, -2.5) == -2.5
    assert logaddexp10(-2.5, NEG_INF) == -2.5
    assert logaddexp10(NEG_INF, NEG_INF) == NEG_INF


def test_logsumexp_empty_is_neg_inf():
    assert logsumexp10([]) == NEG_INF
    assert logsumexp10([NEG_INF, NEG_INF]) == NEG_INF


# any log10 value, probability zero included, with gaps far beyond
# where the smaller term stops moving the sum
any_log = st.one_of(st.floats(min_value=-1e300, max_value=1e300), st.just(NEG_INF))


@given(any_log, any_log)
@example(-1.5, -1.5)
@example(NEG_INF, -2.5)
@example(-2.5, NEG_INF)
@example(NEG_INF, NEG_INF)
@example(0.0, -400.0)
@example(-1e-300, -1e300)
def test_commutative(a, b):
    """Symmetric bit for bit, not just to within rounding: the decoder
    merges a prefix's two masses of a frame in whichever order its beams
    were expanded, and relies on this to give the same bits for any
    order."""
    assert logaddexp10(a, b).hex() == logaddexp10(b, a).hex()


@given(finite_log, finite_log)
def test_matches_direct_formula(a, b):
    direct = math.log10(10.0**a + 10.0**b)
    assert abs(logaddexp10(a, b) - direct) < 1e-9


@given(finite_log, finite_log)
def test_bounded_by_max_plus_log2(a, b):
    got = logaddexp10(a, b)
    assert max(a, b) <= got <= max(a, b) + math.log10(2.0) + 1e-15


@given(st.lists(finite_log, max_size=8))
def test_logsumexp_matches_pairwise(values):
    pairwise = reduce(logaddexp10, values, NEG_INF)
    got = logsumexp10(values)
    if pairwise == NEG_INF:
        assert got == NEG_INF
    else:
        assert abs(got - pairwise) < 1e-9
