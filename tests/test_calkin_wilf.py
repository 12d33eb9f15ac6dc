from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from emx.calkin_wilf import fraction_at, index_of
from emx.core import naturals_domain
from oracles import calkin_wilf_bfs, calkin_wilf_recurrence


def test_first_five():
    assert [fraction_at(i) for i in range(5)] == [
        Fraction(1, 1),
        Fraction(1, 2),
        Fraction(2, 1),
        Fraction(1, 3),
        Fraction(3, 2),
    ]


def test_matches_bfs_oracle():
    assert [fraction_at(i) for i in range(512)] == calkin_wilf_bfs(512)


def test_matches_recurrence_oracle():
    assert [fraction_at(i) for i in range(512)] == calkin_wilf_recurrence(512)


def test_enumeration_is_injective_and_reduced():
    seen = [fraction_at(i) for i in range(1000)]
    assert len(set(seen)) == 1000
    assert all(q > 0 for q in seen)


@given(st.integers(min_value=0, max_value=100_000))
def test_index_roundtrip(i):
    assert index_of(fraction_at(i)) == i


@given(st.integers(min_value=1, max_value=500), st.integers(min_value=1, max_value=500))
def test_every_positive_rational_has_an_index(a, b):
    q = Fraction(a, b)
    assert fraction_at(index_of(q)) == q


def test_index_of_rejects_nonpositive():
    with pytest.raises(ValueError):
        index_of(Fraction(0))
    with pytest.raises(ValueError):
        index_of(Fraction(-3, 2))


def test_domain_ids_read_as_fractions():
    dom = naturals_domain()
    assert dom.size is None
    assert [fraction_at(i) for i in (0, 4)] == [Fraction(1), Fraction(3, 2)]
    assert index_of(fraction_at(17)) == 17
