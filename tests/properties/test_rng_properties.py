"""Property-based tests: the compiled scheduling RNG is ``random.Random``.

Every scheduler pick and every ready-``select`` choice is one
``randrange(n)`` draw, and a seed sweep replays only if that stream is
``random.Random(seed)``'s on every host.  Where the ``_hotloop`` extension
builds, ``BatchedRandom`` is a C MT19937 that serves ``1 <= n < 2**32``,
the range picks and draws produce; elsewhere the scheduler draws from
``random.Random`` itself.  Generated seeds (negative and wider than 64
bits included) and draw sequences, weighted to small runnable sets, powers
of two (no rejection) and the top of the range, must give the draws
``random.Random(seed).randrange(n)`` gives, one for one, across several
Mersenne-Twister refills.  ``n <= 0`` and ``n >= 2**32`` raise
``ValueError`` and draw nothing.
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.runtime import _hotloop

pytestmark = pytest.mark.skipif(
    not _hotloop.HAS_COMPILED,
    reason="compiled hot loop unavailable on this host")

SETTINGS = dict(max_examples=60, deadline=None)

TOP = 2 ** 32

#: More than two refills of the 624-word Mersenne-Twister state.
DRAWS = 1500

RANGES = st.one_of(
    st.integers(1, 8),
    st.integers(0, 31).map(lambda k: 2 ** k),
    st.just(TOP - 1),
    st.integers(1, TOP - 1),
)

SEEDS = st.integers()

OUT_OF_RANGE = st.one_of(st.integers(max_value=0),
                         st.integers(min_value=TOP))


@settings(**SETTINGS)
@given(seed=SEEDS, ns=st.lists(RANGES, min_size=1, max_size=24))
@example(seed=0, ns=[3, 10, 1, 7, 2, 5, 2 ** 20, 100, 6, 2 ** 31 - 1])
@example(seed=1, ns=[1])
@example(seed=7, ns=[TOP - 1, 2])
@example(seed=123456789, ns=[2 ** 31, 2 ** 31 + 1])
@example(seed=-5, ns=[3, 5, 7])
@example(seed=2 ** 80 + 13, ns=[2, 4, 8, 3])
def test_compiled_draws_match_random_random(seed, ns):
    compiled = _hotloop.BatchedRandom(seed)
    reference = random.Random(seed)
    for i in range(DRAWS):
        n = ns[i % len(ns)]
        assert compiled.randrange(n) == reference.randrange(n), (seed, i, n)


@settings(**SETTINGS)
@given(seed=SEEDS, n=OUT_OF_RANGE)
@example(seed=1, n=0)
@example(seed=1, n=-1)
@example(seed=1, n=TOP)
@example(seed=1, n=2 ** 33 + 7)
@example(seed=1, n=2 ** 100)
def test_out_of_range_n_raises_and_draws_nothing(seed, n):
    compiled = _hotloop.BatchedRandom(seed)
    reference = random.Random(seed)
    with pytest.raises(ValueError):
        compiled.randrange(n)
    assert compiled.randrange(TOP - 1) == reference.randrange(TOP - 1)
