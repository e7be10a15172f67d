"""The observer's finish-time folds equal a record-by-record reference.

``Observer._consume`` only lists closed block spans and buffered channel
ops; ``finish`` closes the spans still open (in gid order) and folds both
lists into the block and mutex profiles, the wait histograms, the
flamegraph and the occupancy histograms and series.  The reference here
walks the run's trace itself, one record and one ``observe``/``sample``
at a time, and adds every float in close order, so a fold that reorders
spans, drops a still-blocked one or mislabels a row shows up as an
unequal dump.  The kernels cover leaks (still-blocked spans), contended
locks, buffered channels and timer waits.
"""

from typing import Dict, List, Tuple

import pytest

from repro import run
from repro.bugs import registry
from repro.observe.metrics import Histogram, TimeSeries
from repro.observe.profiles import Profile, flamegraph
from repro.runtime.trace import EventKind

_LOCK_REASONS = ("mutex.lock:", "rwmutex.lock:", "rwmutex.rlock:")

#: Kernels whose observed runs hold still-blocked spans, lock waits,
#: buffered channels and timer waits between them.
KERNELS = [
    "blocking-chan-cockroach-missing-case",
    "blocking-chan-kubernetes-5316",
    "blocking-chanmix-kubernetes-wait-before-drain",
    "blocking-mutex-kubernetes-abba",
    "blocking-rwmutex-docker-reentrant-rlock",
    "blocking-wait-grpc-wait-under-lock",
    "nonblocking-trad-etcd-split-critical-section",
]


def _reference(result) -> Tuple[dict, dict, dict, str]:
    """Block and mutex profiles, the span- and occupancy-derived metrics
    and the flamegraph, rebuilt from the trace one record at a time."""
    open_spans: Dict[int, tuple] = {}
    spans: List[tuple] = []
    labels: Dict[int, str] = {}
    names: Dict[int, str] = {}
    levels: Dict[int, List[Tuple[int, int]]] = {}
    for record in result.trace.records():
        step, _time, gid, kind, obj, info = record
        if kind == EventKind.GO_BLOCK:
            open_spans[gid] = record
        elif kind == EventKind.GO_UNBLOCK:
            if obj in open_spans:
                spans.append((open_spans.pop(obj), step, _time, 0))
        elif kind in (EventKind.GO_END, EventKind.GO_PANIC):
            open_spans.pop(gid, None)
        elif kind == EventKind.GO_CREATE:
            names[obj] = str(info.get("name", f"g{obj}"))
        elif kind == EventKind.CHAN_MAKE:
            labels[obj] = f"{info.get('name', f'chan#{obj}')}#{obj}"
        elif kind == EventKind.CHAN_SEND and not info.get("sync", False):
            ops = levels.setdefault(obj, [])
            ops.append((step, (ops[-1][1] if ops else 0) + 1))
        elif (kind == EventKind.CHAN_RECV and not info.get("sync", False)
              and "seq" in info):
            ops = levels.setdefault(obj, [])
            ops.append((step, (ops[-1][1] if ops else 0) - 1))
    for gid in sorted(open_spans):
        spans.append((open_spans[gid], result.steps, result.end_time, 1))

    block = Profile("block", ("primitive", "site"))
    mutex = Profile("mutex", ("lock", "site"))
    metrics: Dict[str, object] = {}
    flame: Dict[Tuple[str, ...], int] = {}

    def histogram(name):
        return metrics.setdefault(name, Histogram(name))

    for span, end_step, end_time, still_blocked in spans:
        start_step, start_time, gid, _kind, _obj, info = span
        reason = info.get("reason", "?")
        site = info.get("site", "?")
        primitive, _, lock = reason.partition(":")
        steps = end_step - start_step
        seconds = end_time - start_time
        block.add((primitive, site), steps=steps, seconds=seconds,
                  still_blocked=still_blocked)
        if reason.startswith(_LOCK_REASONS):
            mutex.add((lock or "?", site), steps=steps, seconds=seconds,
                      still_blocked=still_blocked)
        histogram(f"block.wait_steps[{primitive}]").observe(steps)
        if seconds > 0:
            histogram(f"block.wait_seconds[{primitive}]").observe(seconds)
        stack = info.get("stack", ())
        frames = (stack[::-1] + (reason,) if stack
                  else (names.get(gid, f"g{gid}"), reason))
        flame[frames] = flame.get(frames, 0) + steps
    for cid, ops in levels.items():
        label = labels.get(cid, f"chan#{cid}")
        hist = histogram(f"chan.occupancy[{label}]")
        series = metrics.setdefault(f"chan.occupancy[{label}].series",
                                    TimeSeries("series", 4096))
        for step, level in ops:
            hist.observe(level)
            series.sample(step, level)
    dumps = {name: metric.to_dict() for name, metric in metrics.items()}
    title = "blocked-time flamegraph (weight = scheduler steps blocked)"
    return (block.to_dict(), mutex.to_dict(), dumps,
            flamegraph(sorted(flame.items()), width=40, title=title))


@pytest.mark.parametrize("kernel_id", KERNELS)
def test_finish_folds_equal_the_record_by_record_reference(kernel_id):
    kernel = registry.get(kernel_id)
    result = kernel.run_buggy(seed=0, observe=True)
    obs = result.observation
    block, mutex, dumps, flame = _reference(result)
    assert obs.block_profile.to_dict() == block
    assert obs.mutex_profile.to_dict() == mutex
    folded = {name: obs.metrics[name].to_dict() for name in obs.metrics.names()
              if name.startswith(("block.wait_", "chan.occupancy["))}
    assert folded == dumps
    assert obs.flamegraph() == flame


def _leaky_waiters(rt):
    """Three waiters sleep 0.1, 0.2 and 0.3 s, then block forever on one
    receive site; main ends at t=1, so their spans close at finish."""
    never = rt.make_chan(name="never")

    def waiter(delay):
        rt.sleep(delay)
        never.recv()

    for delay in (0.1, 0.2, 0.3):
        rt.go(waiter, delay, name="waiter")
    rt.sleep(1.0)


def test_still_blocked_spans_close_in_gid_order():
    """The three still-open spans share one row, and float addition is
    not associative: gid order gives ``(0.9 + 0.8) + 0.7``, which differs
    from the reverse order's sum in the last bit."""
    result = run(_leaky_waiters, seed=0, observe=True)
    obs = result.observation
    assert (0.9 + 0.8) + 0.7 != (0.7 + 0.8) + 0.9
    [row] = [entry for entry in obs.block_profile.top()
             if entry.key[0] == "chan.recv"]
    assert (row.count, row.still_blocked) == (3, 3)
    assert row.seconds == (0.9 + 0.8) + 0.7
    block, _mutex, dumps, _flame = _reference(result)
    assert obs.block_profile.to_dict() == block
    assert (obs.metrics["block.wait_seconds[chan.recv]"].to_dict()
            == dumps["block.wait_seconds[chan.recv]"])
