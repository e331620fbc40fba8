"""Unit tests for the deterministic fault-injection registry."""

from __future__ import annotations

import pickle

import pytest

from repro.resilience.faults import (
    FAULT_SITES,
    FaultPlan,
    FaultRule,
    InjectedFault,
    active_plan,
    arm,
    fault_point,
)


def test_disarmed_fault_point_is_a_noop():
    assert active_plan() is None
    for site in FAULT_SITES:
        fault_point(site)  # must never raise with no plan armed


def test_nth_call_trigger():
    plan = FaultPlan([FaultRule(site="serve.admit", nth=3)])
    with plan.armed():
        fault_point("serve.admit")
        fault_point("serve.admit")
        with pytest.raises(InjectedFault) as err:
            fault_point("serve.admit")
        fault_point("serve.admit")  # n= fires exactly once
    assert err.value.site == "serve.admit"
    assert err.value.call_index == 3
    assert plan.log == [("serve.admit", 3)]


def test_every_trigger_with_times_cap():
    plan = FaultPlan([FaultRule(site="sweep.submit", every=2, times=2)])
    fired = 0
    with plan.armed():
        for _ in range(10):
            try:
                fault_point("sweep.submit")
            except InjectedFault:
                fired += 1
    assert fired == 2
    assert plan.log == [("sweep.submit", 2), ("sweep.submit", 4)]
    assert plan.fired("sweep.submit") == 2
    assert plan.fired() == 2


def test_probability_trigger_is_seed_deterministic():
    spec = "serve.cache.put:p=0.5"
    plan_a = FaultPlan.parse(spec, seed=42)
    plan_b = FaultPlan.parse(spec, seed=42)
    for plan in (plan_a, plan_b):
        with plan.armed():
            for _ in range(50):
                try:
                    fault_point("serve.cache.put")
                except InjectedFault:
                    pass
    assert plan_a.log == plan_b.log
    assert plan_a.log  # p=0.5 over 50 calls fires at least once


def test_different_seeds_diverge():
    spec = "serve.cache.put:p=0.5"
    logs = []
    for seed in (1, 2):
        plan = FaultPlan.parse(spec, seed=seed)
        with plan.armed():
            for _ in range(50):
                try:
                    fault_point("serve.cache.put")
                except InjectedFault:
                    pass
        logs.append(plan.log)
    assert logs[0] != logs[1]


def test_reset_rewinds_counters_log_and_stream():
    plan = FaultPlan.parse("serve.admit:p=0.5:times=3", seed=9)
    with plan.armed():
        for _ in range(20):
            try:
                fault_point("serve.admit")
            except InjectedFault:
                pass
    first_log = list(plan.log)
    plan.reset()
    assert plan.log == [] and plan.calls == {}
    with plan.armed():
        for _ in range(20):
            try:
                fault_point("serve.admit")
            except InjectedFault:
                pass
    assert plan.log == first_log  # identical replay after reset


def test_parse_round_trip_and_validation():
    plan = FaultPlan.parse(
        "serve.cache.put:n=2,sweep.submit:p=0.25:times=3", seed=7
    )
    assert set(plan.rules) == {"serve.cache.put", "sweep.submit"}
    assert plan.rules["serve.cache.put"].nth == 2
    assert plan.rules["sweep.submit"].probability == 0.25
    assert plan.rules["sweep.submit"].times == 3
    assert plan.validate() == []
    assert FaultPlan.parse("bogus.site:n=1").validate() == [
        "rule for unknown fault site 'bogus.site'"
    ]


@pytest.mark.parametrize(
    "spec",
    [
        "serve.admit",  # no trigger
        "serve.admit:n",  # malformed clause
        "serve.admit:frequency=2",  # unknown trigger
        "serve.admit:n=0",  # n < 1
        "serve.admit:p=1.5",  # p out of range
        "serve.admit:times=1",  # times alone can never fire
        "serve.admit:n=1,serve.admit:n=2",  # duplicate site
    ],
)
def test_bad_specs_raise(spec):
    with pytest.raises(ValueError):
        FaultPlan.parse(spec)


def test_armed_context_restores_previous_plan():
    outer = FaultPlan.parse("serve.admit:n=1")
    inner = FaultPlan.parse("serve.dispatch:n=1")
    with outer.armed():
        assert active_plan() is outer
        with inner.armed():
            assert active_plan() is inner
        assert active_plan() is outer
    assert active_plan() is None


def test_armed_context_restores_on_exception():
    plan = FaultPlan.parse("serve.admit:n=1")
    with pytest.raises(RuntimeError):
        with plan.armed():
            raise RuntimeError("boom")
    assert active_plan() is None


def test_arm_returns_previous():
    plan = FaultPlan.parse("serve.admit:n=1")
    assert arm(plan) is None
    try:
        assert active_plan() is plan
    finally:
        assert arm(None) is plan
    assert active_plan() is None


def test_injected_fault_pickles():
    # Faults can cross a process-pool boundary inside worker tracebacks.
    fault = InjectedFault("sweep.submit", 4)
    clone = pickle.loads(pickle.dumps(fault))
    assert clone.site == "sweep.submit"
    assert clone.call_index == 4


def test_fault_sites_cover_the_production_layers():
    # The registry names every layer the PR threads faults through.
    prefixes = {site.split(".")[0] for site in FAULT_SITES}
    assert prefixes == {"serve", "sweep", "scheduler", "router"}
    # The elastic-fleet site is router-side: it fires in the router
    # process so router-armed plans can chaos-test it.
    assert "router.handoff" in FAULT_SITES
    # The router keeps no cache replicas, so it has no replica-write site.
    assert "shard.replica.put" not in FAULT_SITES
