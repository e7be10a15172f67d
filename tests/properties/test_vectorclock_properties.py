"""Property-based tests: vector clock lattice laws."""

from hypothesis import given, strategies as st

from repro.detect import VectorClock

clock_dicts = st.dictionaries(
    keys=st.integers(min_value=1, max_value=6),
    values=st.integers(min_value=0, max_value=20),
    max_size=6,
)


@given(a=clock_dicts, b=clock_dicts)
def test_join_commutative(a, b):
    left = VectorClock(a)
    left.join(VectorClock(b))
    right = VectorClock(b)
    right.join(VectorClock(a))
    assert left == right


@given(a=clock_dicts, b=clock_dicts, c=clock_dicts)
def test_join_associative(a, b, c):
    bc = VectorClock(b)
    bc.join(VectorClock(c))
    left = VectorClock(a)
    left.join(bc)

    ab = VectorClock(a)
    ab.join(VectorClock(b))
    right = ab
    right.join(VectorClock(c))
    assert left == right


@given(a=clock_dicts)
def test_join_idempotent(a):
    vc = VectorClock(a)
    vc.join(VectorClock(a))
    assert vc == VectorClock(a)


@given(a=clock_dicts, b=clock_dicts)
def test_join_is_upper_bound(a, b):
    joined = VectorClock(a)
    joined.join(VectorClock(b))
    assert VectorClock(a) <= joined
    assert VectorClock(b) <= joined


@given(a=clock_dicts, b=clock_dicts)
def test_order_antisymmetry(a, b):
    va, vb = VectorClock(a), VectorClock(b)
    if va <= vb and vb <= va:
        assert va == vb


@given(a=clock_dicts, gid=st.integers(min_value=1, max_value=6))
def test_increment_strictly_increases(a, gid):
    vc = VectorClock(a)
    before = vc.copy()
    vc.increment(gid)
    assert before <= vc
    assert not (vc <= before)


@given(a=clock_dicts, b=clock_dicts)
def test_concurrency_is_symmetric_and_irreflexive(a, b):
    va, vb = VectorClock(a), VectorClock(b)
    assert va.concurrent_with(vb) == vb.concurrent_with(va)
    assert not va.concurrent_with(va.copy())
