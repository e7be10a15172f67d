"""Property test: the dense vector clock vs a dict reference.

:class:`repro.detect.vectorclock.VectorClock` is dense-list backed.  Its
observable semantics are pinned to the historical sparse dict-backed
clock: zero components are indistinguishable from absent ones, joins are
pointwise max, ``<=`` is componentwise with implicit zero padding.  This
suite drives randomized operation histories — increments and joins over a
small set of clocks but a *large* gid space, so the dense arrays grow,
pad, and carry trailing zeros — through the shipped clock and an
independent dict-based reference reimplementing the original sparse
semantics from scratch, in lockstep.

After every operation both must agree on items, pairwise ordering,
equality, and concurrency.
"""

from hypothesis import given, settings, strategies as st

from repro.detect.vectorclock import VectorClock

N_CLOCKS = 3
MAX_GID = 300  # large and sparse: the dense arrays pad hundreds of zeros


class DictClock:
    """Independent reference: the historical sparse dict-backed clock."""

    def __init__(self):
        self.c = {}

    def get(self, gid):
        return self.c.get(gid, 0)

    def increment(self, gid):
        self.c[gid] = self.c.get(gid, 0) + 1

    def join(self, other):
        for gid, count in other.c.items():
            if count > self.c.get(gid, 0):
                self.c[gid] = count

    def le(self, other):
        return all(count <= other.c.get(gid, 0)
                   for gid, count in self.c.items() if count)

    def items(self):
        return sorted((g, n) for g, n in self.c.items() if n)


histories = st.lists(
    st.one_of(
        st.tuples(st.just("inc"), st.integers(0, N_CLOCKS - 1),
                  st.integers(0, MAX_GID)),
        st.tuples(st.just("join"), st.integers(0, N_CLOCKS - 1),
                  st.integers(0, N_CLOCKS - 1)),
    ),
    min_size=1, max_size=50,
)


def _check_agreement(shipped, reference):
    for i in range(N_CLOCKS):
        assert list(shipped[i].items()) == reference[i].items()
        for j in range(N_CLOCKS):
            expected_le = reference[i].le(reference[j])
            assert (shipped[i] <= shipped[j]) is expected_le, (i, j)
            expected_eq = reference[i].items() == reference[j].items()
            assert (shipped[i] == shipped[j]) is expected_eq, (i, j)
            if i != j:
                expected_conc = (not expected_le
                                 and not reference[j].le(reference[i]))
                assert (shipped[i].concurrent_with(shipped[j])
                        is expected_conc), (i, j)


@settings(max_examples=120, deadline=None)
@given(history=histories)
def test_random_histories_agree_across_implementations(history):
    shipped = [VectorClock() for _ in range(N_CLOCKS)]
    reference = [DictClock() for _ in range(N_CLOCKS)]

    for op in history:
        if op[0] == "inc":
            _, idx, gid = op
            shipped[idx].increment(gid)
            reference[idx].increment(gid)
        else:
            _, dst, src = op
            shipped[dst].join(shipped[src])
            reference[dst].join(reference[src])
        for idx in range(N_CLOCKS):
            for gid in (0, 1, MAX_GID // 2, MAX_GID):
                assert shipped[idx].get(gid) == reference[idx].get(gid)

    _check_agreement(shipped, reference)


@settings(max_examples=80, deadline=None)
@given(
    a=st.dictionaries(st.integers(0, MAX_GID), st.integers(0, 40),
                      max_size=12),
    b=st.dictionaries(st.integers(0, MAX_GID), st.integers(0, 40),
                      max_size=12),
)
def test_le_and_join_match_reference_on_arbitrary_pairs(a, b):
    """Direct pair checks, including trailing-zero and length-mismatch
    shapes the dense representation must pad through."""
    ref_a, ref_b = DictClock(), DictClock()
    ref_a.c = {g: n for g, n in a.items() if n}
    ref_b.c = {g: n for g, n in b.items() if n}
    vc_a, vc_b = VectorClock(a), VectorClock(b)

    assert (vc_a <= vc_b) is ref_a.le(ref_b)
    assert (vc_b <= vc_a) is ref_b.le(ref_a)

    joined = vc_a.copy()
    joined.join(vc_b)
    ref_a.join(ref_b)
    assert list(joined.items()) == ref_a.items()
