//! The metric catalogue: what the untraced line prints (end to end) and
//! what the traced line prints (per layer). `--check` holds `BENCHMARK.json`
//! to exactly these names, units and directions, so the manifest and the
//! binary cannot drift apart.

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

pub const LOWER: &str = "lower";
pub const HIGHER: &str = "higher";

/// Printed by every workload with `--trace 0`.
pub const END_TO_END: [MetricDef; 4] = [
    m("setup_s", "s", LOWER),
    m("agent_ticks_per_s", "agent-ticks/s", HIGHER),
    m("op_ms_p50", "ms", LOWER),
    m("peak_rss_mb", "MiB", LOWER),
];

/// Printed by every workload with `--trace 1`. A layer that does no work on
/// a workload reports 0 for its metrics there.
pub const PER_LAYER: &[MetricDef] = &[
    // spatial: both index kinds on the workload's real positions
    m("spatial.kdtree.build_ns_per_point", "ns", LOWER),
    m("spatial.grid.build_ns_per_point", "ns", LOWER),
    m("spatial.kdtree.update_ns_per_moved", "ns", LOWER),
    m("spatial.grid.update_ns_per_moved", "ns", LOWER),
    m("spatial.kdtree.update_declined", "count", LOWER),
    m("spatial.grid.update_declined", "count", LOWER),
    m("spatial.kdtree.range_ns_per_probe", "ns", LOWER),
    m("spatial.grid.range_ns_per_probe", "ns", LOWER),
    m("spatial.kdtree.range_ns_per_hit", "ns", LOWER),
    m("spatial.grid.range_ns_per_hit", "ns", LOWER),
    m("spatial.hits_per_probe", "count", LOWER),
    m("spatial.kdtree.knn_ns_per_probe", "ns", LOWER),
    m("spatial.grid.knn_ns_per_probe", "ns", LOWER),
    m("spatial.filter_rect_ns_per_elem", "ns", LOWER),
    m("spatial.dist2_ns_per_elem", "ns", LOWER),
    m("spatial.partition.owners_ns_per_agent", "ns", LOWER),
    // core: the split `Simulation::step` itself returns
    m("core.tick_ms_p50", "ms", LOWER),
    m("core.index_maintain_ms_per_tick", "ms", LOWER),
    m("core.query_ms_per_tick", "ms", LOWER),
    m("core.merge_ms_per_tick", "ms", LOWER),
    m("core.update_ms_per_tick", "ms", LOWER),
    m("core.tick_unattributed_ms", "ms", LOWER),
    m("core.query_share", "ratio", LOWER),
    m("core.neighbor_visits_per_agent_tick", "count", LOWER),
    m("core.query_ns_per_visit", "ns", LOWER),
    m("core.nonlocal_writes_per_tick", "count", LOWER),
    m("core.spawned_per_tick", "count", LOWER),
    m("core.killed_per_tick", "count", LOWER),
    m("core.op_ms_p90", "ms", LOWER),
    m("core.op_ms_p95", "ms", LOWER),
    // brasil / models
    m("brasil.compile_fish_ms_p50", "ms", LOWER),
    m("brasil.compile_car_ms_p50", "ms", LOWER),
    m("brasil.query_ns_per_visit", "ns", LOWER),
    m("brasil.visit_cost_over_native", "ratio", LOWER),
    // mapreduce: the cluster's own stats, the net ledger, direct calls
    m("mapreduce.epoch_ms_p50", "ms", LOWER),
    m("mapreduce.epoch_ms_p90", "ms", LOWER),
    m("mapreduce.busy_share", "ratio", HIGHER),
    m("mapreduce.wait_share", "ratio", LOWER),
    m("mapreduce.straggler_ratio", "ratio", LOWER),
    m("mapreduce.imbalance", "ratio", LOWER),
    m("mapreduce.repartitions", "count", LOWER),
    m("mapreduce.index_rebuilds", "count", LOWER),
    m("mapreduce.pool_rebuilds", "count", LOWER),
    m("mapreduce.vec_roundtrips", "count", LOWER),
    m("mapreduce.comm_rounds_per_tick", "count", LOWER),
    m("mapreduce.msgs_per_tick", "count", LOWER),
    m("mapreduce.net_bytes_per_tick", "bytes", LOWER),
    m("mapreduce.transfer_bytes_per_tick", "bytes", LOWER),
    m("mapreduce.replica_full_bytes_per_tick", "bytes", LOWER),
    m("mapreduce.replica_delta_bytes_per_tick", "bytes", LOWER),
    m("mapreduce.effects_bytes_per_tick", "bytes", LOWER),
    m("mapreduce.spawns_bytes_per_tick", "bytes", LOWER),
    m("mapreduce.control_bytes_per_epoch", "bytes", LOWER),
    m("mapreduce.codec_encode_ns_per_agent", "ns", LOWER),
    m("mapreduce.codec_decode_ns_per_agent", "ns", LOWER),
    m("mapreduce.codec_pool_encode_ns_per_agent", "ns", LOWER),
    m("mapreduce.checkpoint_bytes", "bytes", LOWER),
    m("mapreduce.checkpoint_write_ms_p50", "ms", LOWER),
    m("mapreduce.checkpoint_epoch_extra_ms", "ms", LOWER),
    m("mapreduce.manifest_append_ms_p50", "ms", LOWER),
    m("mapreduce.resume_s", "s", LOWER),
    // scenario
    m("scenario.build_ms_p50", "ms", LOWER),
    m("scenario.launch_ms_p50", "ms", LOWER),
    m("scenario.warmup_ms", "ms", LOWER),
    m("scenario.collect_ms", "ms", LOWER),
    // serve
    m("serve.miss_ms_p50", "ms", LOWER),
    m("serve.hit_ms_p50", "ms", LOWER),
    m("serve.post_ack_ms_p50", "ms", LOWER),
    m("serve.first_frame_ms_p50", "ms", LOWER),
    m("serve.request_ms_p95", "ms", LOWER),
    m("serve.stream_bytes_per_request", "bytes", LOWER),
    m("serve.cache_hit_ratio", "ratio", HIGHER),
    m("serve.rejected_503", "count", LOWER),
    m("serve.direct_run_ms_p50", "ms", LOWER),
    m("serve.miss_unattributed_ms", "ms", LOWER),
    // the harness itself
    m("host.nproc", "count", HIGHER),
    m("host.steal_pct", "%", LOWER),
    m("host.slowdown_p50", "ratio", LOWER),
    m("trace.overhead_pct", "%", LOWER),
    m("trace.spans", "count", LOWER),
];

/// Values measured so far, by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// `{"name": {"value": v, "unit": "u"}, …}` over `defs`, in catalogue
/// order; an unmeasured or non-finite metric prints 0.
pub fn to_json(defs: &[MetricDef], values: &Values) -> String {
    let fields: Vec<String> = defs
        .iter()
        .map(|d| {
            let v = values.get(d.name).copied().filter(|v| v.is_finite()).unwrap_or(0.0);
            format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", d.name, d.unit)
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        for (i, n) in all.iter().enumerate() {
            assert!(!all[..i].contains(n), "duplicate metric `{n}`");
        }
    }

    #[test]
    fn unmeasured_and_non_finite_values_print_zero() {
        let mut v = Values::new();
        v.insert("setup_s", f64::NAN);
        v.insert("op_ms_p50", 1.25);
        let json = to_json(&END_TO_END, &v);
        assert!(json.contains("\"setup_s\": {\"value\": 0, \"unit\": \"s\"}"), "{json}");
        assert!(json.contains("\"op_ms_p50\": {\"value\": 1.25, \"unit\": \"ms\"}"), "{json}");
    }
}
