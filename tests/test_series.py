"""EntropySeries container invariants."""

import pytest

from fsgentropy.series import EntropySeries


def test_rows_must_be_strictly_increasing_in_k():
    with pytest.raises(ValueError):
        EntropySeries(0.25, [(1, 0.5), (1, 0.6)])
    with pytest.raises(ValueError):
        EntropySeries(0.25, [(3, 0.5), (2, 0.6)])


def test_rows_must_be_finite():
    with pytest.raises(ValueError):
        EntropySeries(0.25, [(1, float("nan"))])
    with pytest.raises(ValueError):
        EntropySeries(0.25, [(1, float("inf"))])


def test_parallel_lists_must_align():
    with pytest.raises(ValueError):
        EntropySeries(0.25, [(1, 0.5), (2, 0.4)], stderrs=[0.0])
    with pytest.raises(ValueError):
        EntropySeries(0.25, [(1, 0.5)], flags=["", ""])


def test_accessors():
    s = EntropySeries(0.5, [(1, 1.0), (4, 0.25)])
    assert s.ks == [1, 4]
    assert s.values == [1.0, 0.25]
    assert s.value_at(4) == 0.25
    with pytest.raises(KeyError):
        s.value_at(2)
