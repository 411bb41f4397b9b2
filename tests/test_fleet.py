"""The fleet layer: selection policies, routing, and proxy fidelity.

Three claims are pinned here:

* the four device-selection policies order members as documented and
  cost O(devices) arithmetic on top of MER-index probes — never a
  resident scan;
* :class:`~repro.fleet.manager.FleetManager` routes requests/releases
  to the right member and keeps its O(1) load counters true;
* a 1-member fleet is a *perfect proxy* for its single manager: both
  schedulers produce bit-identical metrics through it, and the golden
  24-run campaign grid reproduces its committed snapshot rows when
  forced through the fleet layer (``run_scenario(..., force_fleet=True)``).
"""

import pytest

from repro.campaign.runner import run_scenario
from repro.campaign.spec import CampaignSpec, ScenarioSpec
from repro.core.manager import LogicSpaceManager
from repro.device.devices import device
from repro.device.fabric import Fabric
from repro.fleet import (
    DEVICE_POLICY_NAMES,
    FleetManager,
    RoundRobinPolicy,
    make_device_policy,
)
from repro.sched.scheduler import ApplicationFlowScheduler, OnlineTaskScheduler
from repro.sched.workload import fleet_surge_tasks, make_workload

from test_golden_campaign import (
    GOLDEN_GRID,
    GOLDEN_PATH,
    check_against_snapshot,
)


def manager_for(name: str = "XC2S15") -> LogicSpaceManager:
    return LogicSpaceManager(Fabric(device(name)))


def fleet_of(n: int, policy: str = "first-fit",
             name: str = "XC2S15") -> FleetManager:
    return FleetManager([manager_for(name) for _ in range(n)],
                        policy=policy)


# -- selection policies -----------------------------------------------------


def test_policy_registry_rejects_unknown_names():
    with pytest.raises(ValueError):
        make_device_policy("psychic")
    for name in DEVICE_POLICY_NAMES:
        assert make_device_policy(name).name == name
    # Configured instances pass through untouched.
    instance = RoundRobinPolicy()
    assert make_device_policy(instance) is instance


def test_first_fit_prefers_lowest_index_with_direct_fit():
    fleet = fleet_of(3)
    # Occupy member 0 entirely: it can only accept via rearrangement.
    bounds = fleet.members[0].fabric.bounds
    fleet.members[0].fabric.allocate_region(bounds, owner=99)
    order = fleet.policy.order(fleet, 3, 3)
    assert order == [1, 2, 0]


def test_round_robin_rotates_after_each_placement():
    fleet = fleet_of(3, policy="round-robin")
    placed = [fleet.request(2, 2, owner).device for owner in (1, 2, 3, 4)]
    assert placed == [0, 1, 2, 0]


def test_least_loaded_orders_by_allocated_fraction():
    fleet = fleet_of(3, policy="least-loaded")
    fleet.request(4, 4, 1)          # member 0 takes 16 sites
    assert fleet.request(2, 2, 2).device == 1
    assert fleet.request(2, 2, 3).device == 2
    # Members 1 and 2 hold 4 sites each; 1 wins the tie by index.
    assert fleet.policy.order(fleet, 2, 2) == [1, 2, 0]


def test_best_fit_picks_smallest_adequate_largest_free_rectangle():
    fleet = FleetManager(
        [manager_for("XC2S30"), manager_for("XC2S15")], policy="best-fit"
    )
    # XC2S15's largest free rectangle is smaller but still adequate for
    # a small request, so it is preferred; the big XC2S30 is preserved.
    assert fleet.policy.order(fleet, 2, 2) == [1, 0]
    # A request only the XC2S30 can host directly flips the order.
    rows15 = fleet.members[1].fabric.device.clb_rows
    assert fleet.policy.order(fleet, rows15 + 1, 2) == [0, 1]


def test_selection_probes_only_the_mer_index(monkeypatch):
    """Admission is O(policy): ordering a 4-member fleet touches the
    free-space index (fits/mers), never the occupancy of residents."""
    fleet = fleet_of(4, policy="best-fit")
    for owner in range(1, 9):
        fleet.request(2, 2, 100 + owner)
    calls = {"footprint": 0}
    for member in fleet.members:
        original = member.fabric.footprint

        def counting(owner, _orig=original):
            calls["footprint"] += 1
            return _orig(owner)

        monkeypatch.setattr(member.fabric, "footprint", counting)
    fleet.policy.order(fleet, 3, 3)
    assert calls["footprint"] == 0


# -- FleetManager routing ---------------------------------------------------


def test_release_routes_to_the_hosting_member():
    fleet = fleet_of(2, policy="round-robin")
    out_a = fleet.request(3, 3, 1)
    out_b = fleet.request(3, 3, 2)
    assert (out_a.device, out_b.device) == (0, 1)
    assert fleet.device_of(2) == 1
    fleet.release(2)
    assert fleet.members[1].fabric.free_site_count() == \
        fleet.members[1].fabric.device.clb_count
    with pytest.raises(KeyError):
        fleet.release(2)
    assert fleet.load(0) > 0.0 and fleet.load(1) == 0.0


def test_failed_request_reports_failure_without_owner_entry():
    fleet = fleet_of(2)
    rows = fleet.members[0].fabric.device.clb_rows
    outcome = fleet.request(rows + 1, 2, 7)
    assert not outcome.success
    with pytest.raises(KeyError):
        fleet.device_of(7)


def test_heterogeneous_fleet_places_oversized_on_the_big_member():
    fleet = FleetManager(
        [manager_for("XC2S15"), manager_for("XCV200")], policy="first-fit"
    )
    rows15 = fleet.members[0].fabric.device.clb_rows
    outcome = fleet.request(rows15 + 2, rows15 + 2, 1)
    assert outcome.success and outcome.device == 1
    assert fleet.device_names == ("XC2S15", "XCV200")


def test_fleet_telemetry_aggregates_site_weighted():
    fleet = fleet_of(2)
    fleet.request(4, 4, 1)
    util = fleet.utilization()
    member = fleet.members[0]
    expected = member.utilization() * member.fabric.device.clb_count / (
        2 * member.fabric.device.clb_count
    )
    assert util == pytest.approx(expected)
    assert 0.0 <= fleet.fragmentation() <= 1.0


def test_fleet_rejects_empty_member_list():
    with pytest.raises(ValueError):
        FleetManager([])


# -- proxy fidelity ---------------------------------------------------------


def test_single_member_fleet_is_bit_identical_for_tasks():
    dev = device("XC2S15")
    plain = OnlineTaskScheduler(manager_for()).run(
        make_workload("random", dev, 3)
    )
    for policy in DEVICE_POLICY_NAMES:
        fleet = OnlineTaskScheduler(fleet_of(1, policy=policy)).run(
            make_workload("random", dev, 3)
        )
        assert fleet == plain


def test_single_member_fleet_is_bit_identical_for_apps():
    dev = device("XC2S15")
    plain = ApplicationFlowScheduler(manager_for())
    plain.run(make_workload("codec-swap", dev, 1))
    fleet = ApplicationFlowScheduler(fleet_of(1))
    fleet.run(make_workload("codec-swap", dev, 1))
    assert fleet.metrics == plain.metrics


def test_golden_grid_reproduces_through_the_fleet_layer():
    """run_scenario(force_fleet=True) wraps every run in a 1-member
    fleet; the committed golden snapshot must reproduce bit-identically
    (the acceptance claim that the fleet layer is a perfect proxy)."""
    from repro.campaign.aggregate import CampaignResult

    specs = CampaignSpec(**GOLDEN_GRID).expand()
    results = [run_scenario(spec, force_fleet=True) for spec in specs]
    rows = CampaignResult(results).rows()
    for row in rows:
        row.pop("wall_seconds")
    check_against_snapshot(rows, GOLDEN_PATH)


def test_fleet_scales_the_surge_workload():
    """The fleet-surge stream overwhelms one device but not four, and
    every selection policy keeps the whole stream accounted for."""
    rejected = {}
    for size in (1, 4):
        tasks = fleet_surge_tasks(40, seed=0, size_range=(3, 7))
        metrics = OnlineTaskScheduler(
            fleet_of(size, policy="least-loaded")
        ).run(tasks)
        assert metrics.finished + metrics.rejected == 40
        rejected[size] = metrics.rejected
    assert rejected[1] > 2 * rejected[4]
    assert rejected[1] >= 20


@pytest.mark.parametrize("policy", DEVICE_POLICY_NAMES)
def test_every_policy_runs_the_surge_clean(policy):
    tasks = fleet_surge_tasks(30, seed=1, size_range=(3, 7))
    metrics = OnlineTaskScheduler(fleet_of(3, policy=policy)).run(tasks)
    assert metrics.finished + metrics.rejected == 30
    assert metrics.makespan > 0


# -- spec-level fleet axes --------------------------------------------------


def test_spec_fleet_validation():
    with pytest.raises(ValueError):
        ScenarioSpec("XC2S15", "none", "random", 0, device_policy="psychic")
    with pytest.raises(ValueError):
        ScenarioSpec("XC2S15", "none", "random", 0, fleet_size=0)
    with pytest.raises(KeyError):
        ScenarioSpec("XC2S15", "none", "random", 0,
                     fleet_devices=("NOPE",))
    # An explicit composition conflicts with an explicit size — the
    # same rule CampaignSpec enforces, never a silent overwrite.
    with pytest.raises(ValueError):
        ScenarioSpec("XC2S15", "none", "random", 0, fleet_size=4,
                     fleet_devices=("XC2S30",))


def test_spec_fleet_devices_pin_size_and_names():
    spec = ScenarioSpec("XC2S15", "none", "random", 0,
                        fleet_devices=["XC2S30", "XCV200"])
    assert spec.fleet_size == 3
    assert spec.fleet_device_names() == ("XC2S15", "XC2S30", "XCV200")
    assert spec.to_dict()["fleet_devices"] == "XC2S30+XCV200"
    plain = ScenarioSpec("XC2S15", "none", "random", 0, fleet_size=2)
    assert plain.fleet_device_names() == ("XC2S15", "XC2S15")


def test_spec_to_dict_omits_default_fleet_axes():
    row = ScenarioSpec("XC2S15", "none", "random", 0).to_dict()
    assert "fleet_size" not in row
    assert "device_policy" not in row
    assert "fleet_devices" not in row


def test_campaign_fleet_devices_conflicts_with_fleet_sizes():
    spec = CampaignSpec(fleet_devices=["XC2S15"], fleet_sizes=[1, 2])
    with pytest.raises(ValueError):
        spec.expand()


def test_heterogeneous_scenario_runs_end_to_end():
    spec = ScenarioSpec(
        "XC2S15", "concurrent", "fleet-surge", 0,
        fleet_devices=("XC2S30",), device_policy="least-loaded",
        workload_params=(("n", 20),),
    )
    result = run_scenario(spec)
    assert result.finished + result.rejected == 20
    assert run_scenario(spec) == result


# -- kernel telemetry across the fleet seam ---------------------------------


def test_kernel_samples_heterogeneous_fleet_site_weighted():
    """The kernel's telemetry must aggregate over *every* member's
    fabric, not echo member 0: load the big member only and check the
    sample is the hand-computed site-weighted mean."""
    from repro.sched.kernel import SchedulingKernel

    fleet = FleetManager([manager_for("XC2S15"), manager_for("XCV200")])
    assert fleet.request(10, 10, 1).device == 1  # too big for XC2S15
    kernel = SchedulingKernel(fleet)
    kernel.sample()
    assert len(kernel.member_samples) == 2
    sites = [m.fabric.device.clb_count for m in fleet.members]
    frag = [m.fragmentation() for m in fleet.members]
    util = [m.utilization() for m in fleet.members]
    expected_frag = (frag[0] * sites[0] + frag[1] * sites[1]) / sum(sites)
    expected_util = (util[0] * sites[0] + util[1] * sites[1]) / sum(sites)
    assert kernel.metrics.fragmentation_samples == [expected_frag]
    assert kernel.metrics.utilization_samples == [expected_util]
    # Member 0 is idle, so echoing it would report zero utilization.
    assert util[0] == 0.0 and expected_util > 0.0


def test_kernel_samples_single_member_fleet_verbatim():
    """A 1-member fleet's sample is the member's reading, bit for bit —
    no aggregation arithmetic may perturb the golden-pinned proxy."""
    from repro.sched.kernel import SchedulingKernel

    fleet = fleet_of(1)
    fleet.request(4, 4, 1)
    kernel = SchedulingKernel(fleet)
    kernel.sample()
    member = fleet.members[0]
    assert kernel.member_samples == [
        (member.fragmentation(), member.utilization())
    ]
    assert kernel.metrics.fragmentation_samples == [member.fragmentation()]
    assert kernel.metrics.utilization_samples == [member.utilization()]
