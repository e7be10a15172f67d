"""Scheduler fast path: the scheduling RNG, traceless runs, site cache.

The fast path's whole contract is "faster, not different": the scheduler's
``BatchedRandom`` (the compiled one, or ``random.Random`` itself without
the extension) must draw what ``random.Random`` would, and a
``keep_trace=False`` run must take exactly the schedule a traced run takes.
(Generated seeds and draw sequences are in
``tests/properties/test_rng_properties.py``.)
"""

import random

import pytest

from repro import run
from repro.runtime._hotloop import BatchedRandom
from repro.runtime.scheduler import _SITE_CACHE_MAX, _site_cache, short_site


def _pingpong(rt):
    ping = rt.make_chan()
    pong = rt.make_chan()

    def echo():
        for _ in range(20):
            ping.recv()
            pong.send(None)

    rt.go(echo)
    for _ in range(20):
        ping.send(None)
        pong.recv()
    return "done"


# A draw schedule mixing the shapes the scheduler produces (small runnable
# sets), powers of two (no rejection) and the top of the 32-bit range.
_DRAW_NS = [3, 10, 1, 7, 2, 5, 2**20, 2**32 - 1, 100, 2**31, 6, 2**31 - 1]


@pytest.mark.parametrize("seed", [0, 1, 7, 123456789])
def test_batched_randrange_matches_random_random(seed):
    reference = random.Random(seed)
    batched = BatchedRandom(seed)
    for i in range(600):
        n = _DRAW_NS[i % len(_DRAW_NS)]
        assert batched.randrange(n) == reference.randrange(n), (seed, i, n)


def test_batched_random_edge_cases():
    batched = BatchedRandom(0)
    reference = random.Random(0)
    for bad in (0, -1):
        with pytest.raises(ValueError):
            batched.randrange(bad)
    # A rejected draw consumes nothing, and a one-way pick still draws.
    assert batched.randrange(1) == reference.randrange(1) == 0
    assert batched.randrange(2**32 - 1) == reference.randrange(2**32 - 1)


def test_traceless_run_takes_the_same_schedule():
    traced = run(_pingpong, seed=3)
    fast = run(_pingpong, seed=3, keep_trace=False)
    assert traced.status == fast.status == "ok"
    assert traced.main_result == fast.main_result == "done"
    # Identical step count under the same seed means the RNG consumed the
    # same draws: skipping trace-event allocation did not move the schedule.
    assert traced.steps == fast.steps
    assert traced.trace is not None and len(list(traced.trace)) > 0
    assert fast.trace is None or not list(fast.trace)


def test_site_cache_is_bounded():
    for i in range(_SITE_CACHE_MAX + 512):
        short_site(f"/tmp/sweeps/prog_{i}.py", i)
    assert len(_site_cache) <= _SITE_CACHE_MAX
    # Formatting: last two path segments plus the line number.
    assert short_site("/a/b/c/file.py", 7) == "c/file.py:7"
    # Interning still works after eviction churn.
    first = short_site("/x/y/mod.py", 1)
    assert short_site("/x/y/mod.py", 1) is first
