"""Per-layer metrics of the traced run.

Self and total times (host seconds), calls and counters are means per
traced cell; ratios divide those means, so they equal ratios of the
totals.  A metric of a layer a workload does not exercise reads 0 --
for instance every ``fleet.*`` metric on ``device-defrag``.  Each
comment names the end-to-end metric the per-layer metrics below it are
expected to move.
"""

from __future__ import annotations

from .tracing import LAYER_OF

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    # repro.sched: sim_events_per_s on all three workloads.
    ("sched.events.run.self_s", "s", "lower"),
    ("sched.kernel.drain.calls", "count", "lower"),
    ("sched.kernel.drain.self_s", "s", "lower"),
    ("sched.kernel.sample.self_s", "s", "lower"),
    ("sched.kernel.charge_placement.self_s", "s", "lower"),
    ("sched.kernel.maybe_defrag.self_s", "s", "lower"),
    ("sched.admission_probes", "count", "lower"),
    ("sched.memo_skips", "count", "higher"),
    ("sched.probe_success_ratio", "ratio", "higher"),
    ("sched.port_busy_sim_s", "sim_s", "lower"),
    # repro.fleet: sim_events_per_s on fleet-surge, submit_p99_us on
    # service-mixed.
    ("fleet.request.calls", "count", "lower"),
    ("fleet.request.self_s", "s", "lower"),
    ("fleet.prefetch_admission.total_s", "s", "lower"),
    ("fleet.members_probed_per_request", "ratio", "lower"),
    ("fleet.member_skips", "count", "higher"),
    # repro.core: plan_consolidation moves sim_events_per_s on
    # device-defrag only; the warm-up (plan_prefetch, shapes per probe)
    # moves fleet-surge and service-mixed and not device-defrag.
    ("core.manager.request.calls", "count", "lower"),
    ("core.manager.request.self_s", "s", "lower"),
    ("core.manager.prefetch_admission.calls", "count", "lower"),
    ("core.manager.prefetch_admission.self_s", "s", "lower"),
    ("core.manager.release.self_s", "s", "lower"),
    ("core.defrag.plan.calls", "count", "lower"),
    ("core.defrag.plan.self_s", "s", "lower"),
    ("core.defrag.plan_prefetch.calls", "count", "lower"),
    ("core.defrag.plan_prefetch.self_s", "s", "lower"),
    ("core.defrag.plan_consolidation.calls", "count", "lower"),
    ("core.defrag.plan_consolidation.self_s", "s", "lower"),
    ("core.defrag.screen_calls", "count", "lower"),
    ("core.defrag.screen_hit_ratio", "ratio", "higher"),
    ("core.defrag.evict_moves_calls", "count", "lower"),
    ("core.warm_shapes_per_probe", "ratio", "lower"),
    ("core.defrag.consolidation_yield", "ratio", "higher"),
    # repro.placement: sim_events_per_s on all three workloads.
    ("placement.fit.prefetch.self_s", "s", "lower"),
    ("placement.free.allocate.self_s", "s", "lower"),
    ("placement.free.release.self_s", "s", "lower"),
    ("placement.first_fit_scalar", "count", "lower"),
    ("placement.first_fit_vector", "count", "lower"),
    # repro.service, service-mixed only: door and submit move
    # submit_p50_us, catch-up moves submit_p99_us, the listing moves
    # the read latency, snapshots and the journal move the checkpoint
    # latency and peak_rss_mb.
    ("service.advance.total_s", "s", "lower"),
    ("service.submit.self_s", "s", "lower"),
    ("service.door.admit.self_s", "s", "lower"),
    ("service.door.refusals", "count", "lower"),
    ("service.status.calls", "count", "lower"),
    ("service.status.self_s", "s", "lower"),
    ("service.tasks.self_s", "s", "lower"),
    ("service.stats.self_s", "s", "lower"),
    ("service.cancel.self_s", "s", "lower"),
    ("service.checkpoint.snapshot.self_s", "s", "lower"),
    ("service.checkpoint.restore.self_s", "s", "lower"),
    ("service.checkpoint.bytes", "bytes", "lower"),
    ("service.journal_events", "count", "lower"),
    # Service latencies the end-to-end set cannot hold (they exist on
    # one workload only), measured on this invocation's untraced
    # cells; 0 elsewhere.
    ("service.read_p50_us", "us", "lower"),
    ("service.read_p99_us", "us", "lower"),
    ("service.checkpoint_p50_ms", "ms", "lower"),
    # Self-time shares of the traced cells' host time: they confirm
    # which layer carries each workload.
    ("share.sched", "ratio", "lower"),
    ("share.fleet", "ratio", "lower"),
    ("share.core", "ratio", "lower"),
    ("share.placement", "ratio", "lower"),
    ("share.service", "ratio", "lower"),
    ("share.unattributed", "ratio", "lower"),
    ("share.core.defrag.plan_consolidation", "ratio", "lower"),
    ("share.warmup", "ratio", "lower"),
    # Simulated outcome of cell 0 (exact per seed, traced or not).
    ("sim.failed_frac", "ratio", "lower"),
    ("sim.wait_mean_s", "sim_s", "lower"),
    ("sim.util_mean", "ratio", "higher"),
    # Tracing cost: untraced over traced sim_events_per_s.
    ("trace.events_per_s_untraced", "1/s", "higher"),
    ("trace.events_per_s_traced", "1/s", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

UNITS = {name: unit for name, unit, _ in PER_LAYER}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(self_s: dict, total_s: dict, calls: dict, items: dict,
                  layer: dict, traced_host_s: float, untraced_eps: float,
                  traced_eps: float, service_latency: dict) -> dict:
    """Every :data:`PER_LAYER` metric from one workload's traced run.

    ``self_s``/``total_s`` map span names to seconds per cell and
    ``calls``/``items`` to counts per cell; ``layer`` holds the cell
    counters of ``Replay.layer`` averaged the same way, with ``sim``
    taken from cell 0; ``traced_host_s`` is the mean traced cell's host
    time; ``service_latency`` holds the untraced read/checkpoint
    percentiles (empty off the service).
    """
    perf = layer["perf"]

    def self_(name: str) -> float:
        return self_s.get(name, 0.0)

    def count(name: str) -> float:
        return calls.get(name, 0)

    probes = perf["admission_probes"]
    screens = perf["screen_cache_hits"] + perf["screen_cache_misses"]
    shares = {}
    for name, seconds in self_s.items():
        key = "share." + LAYER_OF[name]
        shares[key] = shares.get(key, 0.0) + seconds / traced_host_s
    out = {
        "sched.events.run.self_s": self_("sched.events.run"),
        "sched.kernel.drain.calls": count("sched.kernel.drain"),
        "sched.kernel.drain.self_s": self_("sched.kernel.drain"),
        "sched.kernel.sample.self_s": self_("sched.kernel.sample"),
        "sched.kernel.charge_placement.self_s":
            self_("sched.kernel.charge_placement"),
        "sched.kernel.maybe_defrag.self_s":
            self_("sched.kernel.maybe_defrag"),
        "sched.admission_probes": probes,
        "sched.memo_skips": (perf["item_memo_skips"]
                             + perf["shape_memo_skips"]
                             + perf["dominance_skips"]),
        "sched.probe_success_ratio": _ratio(layer["placements"], probes),
        "sched.port_busy_sim_s": layer["port_busy_sim_s"],
        "fleet.request.calls": count("fleet.request"),
        "fleet.request.self_s": self_("fleet.request"),
        "fleet.prefetch_admission.total_s":
            total_s.get("fleet.prefetch_admission", 0.0),
        "fleet.members_probed_per_request": _ratio(
            count("core.manager.request"), count("fleet.request")),
        "fleet.member_skips": perf["fleet_member_skips"],
        "core.manager.request.calls": count("core.manager.request"),
        "core.manager.request.self_s": self_("core.manager.request"),
        "core.manager.prefetch_admission.calls":
            count("core.manager.prefetch_admission"),
        "core.manager.prefetch_admission.self_s":
            self_("core.manager.prefetch_admission"),
        "core.manager.release.self_s": self_("core.manager.release"),
        "core.defrag.plan.calls": count("core.defrag.plan"),
        "core.defrag.plan.self_s": self_("core.defrag.plan"),
        "core.defrag.plan_prefetch.calls":
            count("core.defrag.plan_prefetch"),
        "core.defrag.plan_prefetch.self_s":
            self_("core.defrag.plan_prefetch"),
        "core.defrag.plan_consolidation.calls":
            count("core.defrag.plan_consolidation"),
        "core.defrag.plan_consolidation.self_s":
            self_("core.defrag.plan_consolidation"),
        "core.defrag.screen_calls": perf["screen_calls"],
        "core.defrag.screen_hit_ratio": _ratio(
            perf["screen_cache_hits"], screens),
        "core.defrag.evict_moves_calls": perf["evict_moves_calls"],
        "core.warm_shapes_per_probe": _ratio(
            items.get("core.manager.prefetch_admission", 0),
            count("core.manager.request")),
        "core.defrag.consolidation_yield": _ratio(
            layer["proactive_defrags"],
            count("core.defrag.plan_consolidation")),
        "placement.fit.prefetch.self_s": self_("placement.fit.prefetch"),
        "placement.free.allocate.self_s": self_("placement.free.allocate"),
        "placement.free.release.self_s": self_("placement.free.release"),
        "placement.first_fit_scalar": perf["first_fit_scalar"],
        "placement.first_fit_vector": perf["first_fit_vector"],
        "service.advance.total_s": total_s.get("service.advance", 0.0),
        "service.submit.self_s": self_("service.submit"),
        "service.door.admit.self_s": self_("service.door.admit"),
        "service.door.refusals": layer.get("refusals", 0),
        "service.status.calls": count("service.status"),
        "service.status.self_s": self_("service.status"),
        "service.tasks.self_s": self_("service.tasks"),
        "service.stats.self_s": self_("service.stats"),
        "service.cancel.self_s": self_("service.cancel"),
        "service.checkpoint.snapshot.self_s":
            self_("service.checkpoint.snapshot"),
        "service.checkpoint.restore.self_s":
            self_("service.checkpoint.restore"),
        "service.checkpoint.bytes": layer.get("checkpoint_bytes", 0),
        "service.journal_events": layer.get("journal_events", 0),
        "service.read_p50_us": service_latency.get("read_p50_us", 0.0),
        "service.read_p99_us": service_latency.get("read_p99_us", 0.0),
        "service.checkpoint_p50_ms":
            service_latency.get("checkpoint_p50_ms", 0.0),
    }
    for key in ("share.sched", "share.fleet", "share.core",
                "share.placement", "share.service"):
        out[key] = shares.get(key, 0.0)
    out["share.unattributed"] = 1.0 - sum(shares.values())
    out["share.core.defrag.plan_consolidation"] = (
        self_("core.defrag.plan_consolidation") / traced_host_s)
    out["share.warmup"] = (
        self_("core.defrag.plan_prefetch")
        + self_("placement.fit.prefetch")) / traced_host_s
    for key, value in layer["sim"].items():
        out["sim." + key] = value
    out["trace.events_per_s_untraced"] = untraced_eps
    out["trace.events_per_s_traced"] = traced_eps
    out["trace.overhead_ratio"] = _ratio(untraced_eps, traced_eps)
    return out
