"""FaultPlan / Fault: validation, composition, serialization, fingerprints."""

import pickle

import pytest

from repro.inject import ACTIONS, Fault, FaultPlan
from repro.inject import plans


def test_every_action_is_constructible():
    for action in ACTIONS:
        fault = Fault(action, at_step=1)
        assert fault.action == action


def test_unknown_action_rejected():
    with pytest.raises(ValueError, match="unknown fault action"):
        Fault("fork-bomb", at_step=1)


def test_trigger_required():
    with pytest.raises(ValueError, match="needs a trigger"):
        Fault("kill")


@pytest.mark.parametrize("kwargs", [
    dict(probability=1.5),
    dict(probability=-0.1),
    dict(every=0),
    dict(times=0),
    dict(count=0),
])
def test_invalid_parameters_rejected(kwargs):
    base = dict(action="wakeup", at_step=1)
    base.update(kwargs)
    if "every" in kwargs:
        base.pop("at_step")
        with pytest.raises(ValueError):
            Fault(**base)
    else:
        with pytest.raises(ValueError):
            Fault(**base)


def test_fault_round_trips_through_dict():
    fault = Fault("chan_fill", target="jobs-*", at_step=10, value=99, count=3)
    assert Fault.from_dict(fault.to_dict()) == fault


def test_plan_addition_concatenates():
    combined = plans.wakeup_storm() + plans.delay_storm()
    assert combined.name == "wakeup-storm+delay-storm"
    assert len(combined) == 2
    assert combined.faults[0].action == "wakeup"
    assert combined.faults[1].action == "delay"


def test_combine_and_with_name():
    suite = FaultPlan.combine(
        [plans.wakeup_storm(), plans.clock_skew()], name="mix"
    )
    assert suite.name == "mix"
    assert len(suite) == 2
    assert FaultPlan.combine([]).name == "empty"


def test_plan_json_round_trip():
    plan = plans.perturb()
    clone = FaultPlan.from_json(plan.to_json())
    assert clone == plan
    assert clone.fingerprint() == plan.fingerprint()


def test_net_fault_plan_round_trips_through_json():
    plan = (plans.partition(target="n2", at_step=100, heal_after=300)
            + plans.flaky_links(drop=0.1)
            + plans.slow_links(extra=0.02))
    clone = FaultPlan.from_json(plan.to_json())
    assert clone == plan
    assert clone.fingerprint() == plan.fingerprint()
    assert [fault.action for fault in clone.faults] == [
        "net_partition", "net_heal",
        "net_drop", "net_dup", "net_reorder",
        "net_delay",
    ]
    assert clone.faults[0].target == "n2"


def test_fingerprint_is_content_sensitive():
    a = plans.wakeup_storm()
    b = plans.wakeup_storm(probability=0.25)
    c = plans.wakeup_storm().with_name("renamed")
    assert a.fingerprint() == plans.wakeup_storm().fingerprint()
    assert a.fingerprint() != b.fingerprint()
    assert a.fingerprint() != c.fingerprint()


#: Every registered plan's fingerprint, recorded before the fingerprint
#: was cached.  It seeds the injector RNG, so a moved value moves every
#: chance draw of every chaos run under that plan.
REGISTRY_FINGERPRINTS = {
    "cancel-storm": 4770173574769085618,
    "clock-skew": 7248408676100596176,
    "crash": 12818465556935812233,
    "crash-restart": 11591731788172160441,
    "crash-storm": 2134007102930309405,
    "delay-storm": 14248524427610836178,
    "flaky-links": 16648825269814254347,
    "partition": 5037789006737430924,
    "perturb": 3549891686063527914,
    "restart": 11376654615649445474,
    "slow-links": 16347606649906784244,
    "wakeup-storm": 3841431163791439782,
}


def test_registry_fingerprints_are_pinned():
    assert sorted(plans.REGISTRY) == sorted(REGISTRY_FINGERPRINTS)
    for name, expected in REGISTRY_FINGERPRINTS.items():
        plan = plans.get(name)
        assert plan.fingerprint() == expected, name
        assert plan.fingerprint() == expected, name  # cached value


def test_derived_plans_fingerprint_their_own_content():
    perturb = plans.perturb()
    assert perturb.fingerprint() == REGISTRY_FINGERPRINTS["perturb"]
    # A cached fingerprint on the source plan must not leak into plans
    # built from it.
    assert perturb.with_name("renamed").fingerprint() == 16132319588077462839
    combined = plans.wakeup_storm() + plans.crash_storm()
    assert combined.fingerprint() == 14142682005007141298
    clone = pickle.loads(pickle.dumps(perturb))
    assert clone == perturb
    assert clone.fingerprint() == REGISTRY_FINGERPRINTS["perturb"]
    fresh = pickle.loads(pickle.dumps(plans.perturb()))
    assert fresh.fingerprint() == REGISTRY_FINGERPRINTS["perturb"]


def test_registry_covers_named_plans():
    for name in sorted(plans.REGISTRY):
        plan = plans.get(name)
        assert plan.name == name
        assert len(plan) >= 1


def test_registry_unknown_name_lists_available():
    with pytest.raises(KeyError, match="wakeup-storm"):
        plans.get("no-such-plan")
