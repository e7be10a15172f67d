"""Observer dumps equal the committed goldens, byte for byte.

The four workloads of ``benchmarks/bench_observe_overhead.py`` at seeds 0
and 3.  The goldens under ``tests/golden/observer/`` pin every derived
view: step, switch and runnable-depth metrics, block sites and stacks,
occupancy series and the flamegraph.  Call sites name the benchmark file
and its line numbers, so the workloads are loaded from that file itself.
"""

import importlib.util
import os

import pytest

from repro import run

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
_GOLDEN = os.path.join(_ROOT, "tests", "golden", "observer")


def _bench_workloads():
    path = os.path.join(_ROOT, "benchmarks", "bench_observe_overhead.py")
    spec = importlib.util.spec_from_file_location("bench_observe_overhead",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [program for _name, program in module.WORKLOADS]


@pytest.mark.parametrize("seed", (0, 3))
@pytest.mark.parametrize("program", _bench_workloads(),
                         ids=lambda program: program.__name__)
def test_observer_dump_matches_golden(program, seed):
    dump = run(program, seed=seed, observe=True).observation.to_json()
    with open(os.path.join(_GOLDEN, f"{program.__name__}-seed{seed}.json")
              ) as f:
        assert dump == f.read()
