"""Vector clock algebra."""

from repro.detect import VectorClock


def test_fresh_clock_is_zero():
    vc = VectorClock()
    assert vc.get(1) == 0


def test_increment_and_get():
    vc = VectorClock()
    vc.increment(2)
    vc.increment(2)
    assert vc.get(2) == 2
    assert vc.get(1) == 0


def test_join_is_pointwise_max():
    a = VectorClock({1: 3, 2: 1})
    b = VectorClock({2: 5, 3: 2})
    a.join(b)
    assert (a.get(1), a.get(2), a.get(3)) == (3, 5, 2)


def test_join_none_is_noop():
    a = VectorClock({1: 1})
    a.join(None)
    assert a.get(1) == 1


def test_partial_order():
    lo = VectorClock({1: 1})
    hi = VectorClock({1: 2, 2: 1})
    assert lo <= hi
    assert not (hi <= lo)


def test_concurrent_detection():
    a = VectorClock({1: 2})
    b = VectorClock({2: 2})
    assert a.concurrent_with(b)
    assert b.concurrent_with(a)
    c = a.copy()
    c.join(b)
    assert not a.concurrent_with(c)


def test_copy_is_independent():
    a = VectorClock({1: 1})
    b = a.copy()
    b.increment(1)
    assert a.get(1) == 1 and b.get(1) == 2


def test_equality_ignores_zero_components():
    assert VectorClock({1: 0, 2: 3}) == VectorClock({2: 3})
