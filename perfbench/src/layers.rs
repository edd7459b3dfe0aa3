//! Per-layer probes of the traced run: direct calls into the crates' public
//! functions on the workload's own data, and the splits the traced pass's
//! calls returned. Strictly from outside — no crate is edited or
//! instrumented.

use crate::metrics::Values;
use crate::serve::{self, ServeTrace};
use crate::sim::{self, ClusterOp, PassResult, SimTrace, TickSink};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::workloads::{ClusterSpec, Kind, Workload};
use crate::TempDir;
use brace::brasil::Script;
use brace::common::{DetRng, Rect, Vec2};
use brace::core::{Agent, AgentPool, TickMetrics};
use brace::mapreduce::{checkpoint::CheckpointStore, codec, manifest, ManifestWriter};
use brace::models::scripts;
use brace::scenario::{DurableRunner, Registry, Runner};
use brace::spatial::{kernels, GridPartitioning, KdTree, SpatialIndex, UniformGrid};
use std::hint::black_box;
use std::sync::{Arc, Mutex};

/// Probes per index pass: every ⌈n/2000⌉-th agent asks its own question.
const PROBES: usize = 2_000;
/// Neighbours asked of the k-NN probe (traffic's lane scan asks for a handful).
const KNN_K: usize = 8;
/// Column length of the lane-kernel probes.
const KERNEL_ELEMS: usize = 1_000_000;
const KERNEL_REPEATS: usize = 21;

/// Time `f` once under a span; returns its duration in ns.
fn timed<T>(t: &mut Tracer, name: &'static str, parent: Option<usize>, f: impl FnOnce() -> T) -> (T, f64) {
    let span = t.begin(name, parent, None);
    let out = f();
    let ns = t.end(span) as f64;
    (out, ns)
}

/// Median over `repeats` timed calls of `f`.
fn median_ns(t: &mut Tracer, name: &'static str, parent: Option<usize>, repeats: usize, mut f: impl FnMut()) -> f64 {
    median(&(0..repeats).map(|_| timed(t, name, parent, &mut f).1).collect::<Vec<_>>())
}

// ---- spatial ---------------------------------------------------------------

struct IndexNames {
    build: &'static str,
    update: &'static str,
    declined: &'static str,
    range_probe: &'static str,
    range_hit: &'static str,
    knn: &'static str,
    span_build: &'static str,
    span_update: &'static str,
    span_range: &'static str,
    span_knn: &'static str,
}

const KD: IndexNames = IndexNames {
    build: "spatial.kdtree.build_ns_per_point",
    update: "spatial.kdtree.update_ns_per_moved",
    declined: "spatial.kdtree.update_declined",
    range_probe: "spatial.kdtree.range_ns_per_probe",
    range_hit: "spatial.kdtree.range_ns_per_hit",
    knn: "spatial.kdtree.knn_ns_per_probe",
    span_build: "KdTree::build",
    span_update: "KdTree::update",
    span_range: "KdTree::range",
    span_knn: "KdTree::k_nearest_into",
};

const GRID: IndexNames = IndexNames {
    build: "spatial.grid.build_ns_per_point",
    update: "spatial.grid.update_ns_per_moved",
    declined: "spatial.grid.update_declined",
    range_probe: "spatial.grid.range_ns_per_probe",
    range_hit: "spatial.grid.range_ns_per_hit",
    knn: "spatial.grid.knn_ns_per_probe",
    span_build: "UniformGrid::build",
    span_update: "UniformGrid::update",
    span_range: "UniformGrid::range",
    span_knn: "UniformGrid::k_nearest_into",
};

fn points(world: &[Agent]) -> Vec<(Vec2, u32)> {
    world.iter().enumerate().map(|(row, a)| (a.pos, row as u32)).collect()
}

/// Agents present in both worlds whose position changed, addressed by
/// their row in `from` (both worlds are sorted by id).
fn moved_between(from: &[Agent], to: &[Agent]) -> Vec<(u32, Vec2)> {
    to.iter()
        .filter_map(|b| {
            let row = from.binary_search_by_key(&b.id, |a| a.id).ok()?;
            (from[row].pos != b.pos).then_some((row as u32, b.pos))
        })
        .collect()
}

/// Returns the exact hit count of the range pass.
fn probe_index<I: SpatialIndex>(
    names: &IndexNames,
    st: &SimTrace,
    rects: &[Rect],
    centers: &[Vec2],
    t: &mut Tracer,
    parent: usize,
    out: &mut Values,
) -> u64 {
    let parent = Some(parent);
    let last = points(&st.world_last);
    let build_ns = median_ns(t, names.span_build, parent, 5, || {
        black_box(I::build(black_box(&last)));
    });
    out.insert(names.build, build_ns / last.len().max(1) as f64);

    // update: the positions one op apart, applied to a fresh build each time
    let first = points(&st.world_first);
    let moved = moved_between(&st.world_first, &st.world_next);
    let mut accepted = true;
    let update_ns = median(
        &(0..3)
            .map(|_| {
                let mut index = I::build(&first);
                let (ok, ns) = timed(t, names.span_update, parent, || index.update(black_box(&moved)));
                accepted &= ok;
                ns
            })
            .collect::<Vec<_>>(),
    );
    out.insert(names.update, update_ns / moved.len().max(1) as f64);
    out.insert(names.declined, if accepted { 0.0 } else { 1.0 });

    // range + k-NN: each sampled agent's own probe, on the final world
    let index = I::build(&last);
    let mut buf = Vec::new();
    let mut hits = 0u64;
    let range_ns = median(
        &(0..3)
            .map(|_| {
                hits = 0;
                timed(t, names.span_range, parent, || {
                    for r in rects {
                        buf.clear();
                        index.range(black_box(r), &mut buf);
                        hits += buf.len() as u64;
                    }
                })
                .1
            })
            .collect::<Vec<_>>(),
    );
    out.insert(names.range_probe, range_ns / rects.len().max(1) as f64);
    out.insert(names.range_hit, range_ns / hits.max(1) as f64);
    // Every fourth probe: the grid's k-NN is slow enough on sparse worlds
    // to dominate the traced run otherwise.
    let knn_centers: Vec<Vec2> = centers.iter().step_by(4).copied().collect();
    let knn_ns = median_ns(t, names.span_knn, parent, 3, || {
        for &c in &knn_centers {
            index.k_nearest_into(black_box(c), KNN_K, None, &mut buf);
            black_box(&buf);
        }
    });
    out.insert(names.knn, knn_ns / knn_centers.len().max(1) as f64);
    hits
}

fn spatial(st: &SimTrace, t: &mut Tracer, out: &mut Values) {
    let Some(behavior) = &st.behavior else { return };
    if st.world_last.is_empty() {
        return;
    }
    let root = t.begin("probe.spatial", None, None);
    let vis = behavior.schema().visibility();
    let step = st.world_last.len().div_ceil(PROBES).max(1);
    let centers: Vec<Vec2> = st.world_last.iter().step_by(step).map(|a| a.pos).collect();
    let rects: Vec<Rect> = centers.iter().map(|&c| behavior.probe_rect(c, vis)).collect();

    let kd_hits = probe_index::<KdTree>(&KD, st, &rects, &centers, t, root, out);
    let grid_hits = probe_index::<UniformGrid>(&GRID, st, &rects, &centers, t, root, out);
    if kd_hits != grid_hits {
        eprintln!("perfbench: WARNING kd-tree and grid disagree on range hits ({kd_hits} vs {grid_hits})");
    }
    out.insert("spatial.hits_per_probe", kd_hits as f64 / rects.len().max(1) as f64);

    // partition: the distribute phase's ownership scan over the real columns
    let (xs, ys): (Vec<f64>, Vec<f64>) = st.world_last.iter().map(|a| (a.pos.x, a.pos.y)).unzip();
    let part = GridPartitioning::columns(st.space_x.0, st.space_x.1, 2);
    let mut owners = Vec::new();
    let ns = median_ns(t, "GridPartitioning::owners_into", Some(root), KERNEL_REPEATS, || {
        part.owners_into(black_box(&xs), black_box(&ys), &mut owners);
        black_box(&owners);
    });
    out.insert("spatial.partition.owners_ns_per_agent", ns / xs.len() as f64);
    t.end(root);
}

/// The lane kernels over synthetic 1 M-element columns: min of 21 repeats
/// (a kernel has a floor; anything above it is the machine).
fn lane_kernels(t: &mut Tracer, out: &mut Values) {
    let root = t.begin("probe.kernels", None, None);
    let mut rng = DetRng::seed_from_u64(0x1A9E);
    let xs: Vec<f64> = (0..KERNEL_ELEMS).map(|_| rng.range(0.0, 1000.0)).collect();
    let ys: Vec<f64> = (0..KERNEL_ELEMS).map(|_| rng.range(0.0, 1000.0)).collect();
    let payloads: Vec<u32> = (0..KERNEL_ELEMS as u32).collect();
    let rect = Rect::from_bounds(450.0, 550.0, 450.0, 550.0); // 1 % of the area
    let min = |v: Vec<f64>| v.into_iter().fold(f64::INFINITY, f64::min);

    let mut hits = Vec::new();
    let filter = min((0..KERNEL_REPEATS)
        .map(|_| {
            hits.clear();
            timed(t, "kernels::filter_rect", Some(root), || {
                kernels::filter_rect(black_box(&xs), black_box(&ys), &payloads, &rect, &mut hits)
            })
            .1
        })
        .collect());
    black_box(&hits);
    let mut d2 = Vec::new();
    let dist = min((0..KERNEL_REPEATS)
        .map(|_| {
            timed(t, "kernels::dist2", Some(root), || {
                kernels::dist2(black_box(&xs), black_box(&ys), 500.0, 500.0, &mut d2)
            })
            .1
        })
        .collect());
    black_box(&d2);
    out.insert("spatial.filter_rect_ns_per_elem", filter / KERNEL_ELEMS as f64);
    out.insert("spatial.dist2_ns_per_elem", dist / KERNEL_ELEMS as f64);
    eprintln!(
        "perfbench: lane kernels over {KERNEL_ELEMS} elements: filter_rect reads {} bytes ({} hits), dist2 reads {} and writes {} bytes",
        KERNEL_ELEMS * 20,
        hits.len(),
        KERNEL_ELEMS * 16,
        KERNEL_ELEMS * 8
    );
    t.end(root);
}

// ---- core ------------------------------------------------------------------

/// The executor's own split, summed over `ticks`; `step_ms` are the same
/// ticks timed from outside.
fn core(ticks: &[TickMetrics], step_ms: &[f64], out: &mut Values) {
    if ticks.is_empty() {
        return;
    }
    let n = ticks.len() as f64;
    let sum = |f: fn(&TickMetrics) -> u64| ticks.iter().map(f).sum::<u64>() as f64;
    let (maintain, query, update) = (sum(|t| t.index_build_ns), sum(|t| t.query_ns), sum(|t| t.update_ns));
    let visits = sum(|t| t.neighbor_visits);
    out.insert("core.tick_ms_p50", median(step_ms));
    out.insert("core.index_maintain_ms_per_tick", maintain / n / 1e6);
    out.insert("core.query_ms_per_tick", query / n / 1e6);
    out.insert("core.merge_ms_per_tick", sum(|t| t.merge_ns) / n / 1e6);
    out.insert("core.update_ms_per_tick", update / n / 1e6);
    out.insert("core.tick_unattributed_ms", step_ms.iter().sum::<f64>() / n - (maintain + query + update) / n / 1e6);
    out.insert("core.query_share", query / (maintain + query + update).max(1.0));
    out.insert("core.neighbor_visits_per_agent_tick", visits / sum(|t| t.n_agents as u64).max(1.0));
    out.insert("core.query_ns_per_visit", query / visits.max(1.0));
    out.insert("core.nonlocal_writes_per_tick", sum(|t| t.nonlocal_writes) / n);
    out.insert("core.spawned_per_tick", sum(|t| t.spawned as u64) / n);
    out.insert("core.killed_per_tick", sum(|t| t.killed as u64) / n);
}

/// A short single-node run of a registry scenario with the executor's split
/// kept: `(ticks, outside-timed ms per tick)` after `warmup` ticks.
fn single_node_ticks(
    scenario: &str,
    agents: usize,
    seed: u64,
    warmup: u64,
    ticks: u64,
    t: &mut Tracer,
) -> Result<(Vec<TickMetrics>, Vec<f64>), String> {
    let registry = Registry::builtin();
    let scenario = registry.get(scenario).ok_or("unknown scenario")?;
    let sink = Arc::new(Mutex::new(Vec::new()));
    let mut handle = Runner::new(scenario)
        .seed(seed)
        .population(agents)
        .observe(Box::new(TickSink(sink.clone())))
        .launch()
        .map_err(|e| e.to_string())?;
    handle.run(warmup).map_err(|e| e.to_string())?;
    sink.lock().expect("tick sink").clear();
    let mut step_ms = Vec::new();
    for _ in 0..ticks {
        let (r, ns) = timed(t, "SimHandle::run", None, || handle.run(1));
        r.map_err(|e| e.to_string())?;
        step_ms.push(ns / 1e6);
    }
    let ticks = std::mem::take(&mut *sink.lock().expect("tick sink"));
    Ok((ticks, step_ms))
}

// ---- mapreduce -------------------------------------------------------------

fn codec_probes(st: &SimTrace, t: &mut Tracer, out: &mut Values) {
    let (Some(behavior), false) = (&st.behavior, st.world_last.is_empty()) else { return };
    let root = t.begin("probe.codec", None, None);
    let world = &st.world_last;
    let n = world.len() as f64;
    let encode = median_ns(t, "codec::encode_agents", Some(root), 7, || {
        black_box(codec::encode_agents(black_box(world)));
    });
    let bytes = codec::encode_agents(world);
    let decode = median_ns(t, "codec::decode_agents", Some(root), 7, || {
        black_box(codec::decode_agents(bytes.clone()));
    });
    let pool = AgentPool::from_agents(behavior.schema(), world);
    let rows: Vec<u32> = (0..world.len() as u32).collect();
    let pool_encode = median_ns(t, "codec::encode_pool_rows", Some(root), 7, || {
        black_box(codec::encode_pool_rows(black_box(&pool), &rows));
    });
    out.insert("mapreduce.codec_encode_ns_per_agent", encode / n);
    out.insert("mapreduce.codec_decode_ns_per_agent", decode / n);
    out.insert("mapreduce.codec_pool_encode_ns_per_agent", pool_encode / n);
    t.end(root);
}

/// Everything the cluster itself reported over the measured epochs.
fn cluster_ledger(c: ClusterSpec, base: &ClusterOp, ops: &[ClusterOp], op_ms: &[f64], out: &mut Values) {
    let Some(last) = ops.last() else { return };
    let epochs = ops.len();
    let ticks = (epochs as u64 * c.epoch_len) as f64;
    let (s0, s1) = (&base.stats, &last.stats);

    let walls: Vec<f64> =
        s1.epoch_wall_ns[s1.epoch_wall_ns.len() - epochs..].iter().map(|&ns| ns as f64 / 1e6).collect();
    out.insert("mapreduce.epoch_ms_p50", median(&walls));
    out.insert("mapreduce.epoch_ms_p90", percentile(&walls, 90.0));

    // Busy time is read from outside: each worker thread's on-CPU time.
    let cpu = |op: &ClusterOp| op.worker_cpu_ns.clone();
    if cpu(base).len() == c.workers && ops.iter().all(|o| o.worker_cpu_ns.len() == c.workers) {
        let busy: f64 = cpu(last).iter().zip(cpu(base)).map(|(b, a)| (b - a) as f64).sum();
        let wall_ns: f64 = walls.iter().sum::<f64>() * 1e6 * c.workers as f64;
        out.insert("mapreduce.busy_share", busy / wall_ns.max(1.0));
        out.insert("mapreduce.wait_share", 1.0 - busy / wall_ns.max(1.0));
        let mut prev = cpu(base);
        let ratios: Vec<f64> = ops
            .iter()
            .map(|op| {
                let d: Vec<f64> = op.worker_cpu_ns.iter().zip(&prev).map(|(b, a)| (b - a) as f64).collect();
                prev = cpu(op);
                let mean = d.iter().sum::<f64>() / d.len() as f64;
                d.iter().copied().fold(0.0, f64::max) / mean.max(1.0)
            })
            .collect();
        out.insert("mapreduce.straggler_ratio", median(&ratios));
    }
    let imbalance: Vec<f64> = s1.agents_per_worker[s1.agents_per_worker.len() - epochs..]
        .iter()
        .map(|w| {
            let mean = w.iter().sum::<usize>() as f64 / w.len().max(1) as f64;
            w.iter().copied().max().unwrap_or(0) as f64 / mean.max(1.0)
        })
        .collect();
    out.insert("mapreduce.imbalance", median(&imbalance));

    let d = |f: fn(&brace::mapreduce::ClusterStats) -> u64| (f(s1) - f(s0)) as f64;
    out.insert("mapreduce.repartitions", d(|s| s.repartitions));
    out.insert("mapreduce.index_rebuilds", d(|s| s.index_rebuilds));
    out.insert("mapreduce.pool_rebuilds", d(|s| s.pool_rebuilds));
    out.insert("mapreduce.vec_roundtrips", d(|s| s.vec_roundtrips));
    out.insert("mapreduce.comm_rounds_per_tick", s1.comm_rounds_per_tick as f64);
    out.insert("mapreduce.msgs_per_tick", d(|s| s.net.total_messages()) / ticks);
    out.insert("mapreduce.net_bytes_per_tick", d(|s| s.net.total_bytes()) / ticks);
    out.insert("mapreduce.transfer_bytes_per_tick", d(|s| s.net.transfer.bytes) / ticks);
    out.insert("mapreduce.replica_full_bytes_per_tick", d(|s| s.net.replica_full.bytes) / ticks);
    out.insert("mapreduce.replica_delta_bytes_per_tick", d(|s| s.net.replica_delta.bytes) / ticks);
    out.insert("mapreduce.effects_bytes_per_tick", d(|s| s.net.effects.bytes) / ticks);
    out.insert("mapreduce.spawns_bytes_per_tick", d(|s| s.net.spawns.bytes) / ticks);
    out.insert("mapreduce.control_bytes_per_epoch", d(|s| s.net.control.bytes) / epochs as f64);

    // A checkpoint epoch is one whose stats show a new checkpoint.
    let mut prev = s0.checkpoints;
    let (mut with, mut plain) = (Vec::new(), Vec::new());
    for (op, &ms) in ops.iter().zip(op_ms) {
        (if op.stats.checkpoints > prev { &mut with } else { &mut plain }).push(ms);
        prev = op.stats.checkpoints;
    }
    if !with.is_empty() && !plain.is_empty() {
        out.insert("mapreduce.checkpoint_epoch_extra_ms", median(&with) - median(&plain));
    }
}

/// Checkpoint and manifest writes, replayed from what the traced pass left
/// in its run directory into a scratch one.
fn durable_io(run: &std::path::Path, t: &mut Tracer, out: &mut Values) -> Result<(), String> {
    let root = t.begin("probe.durable", None, None);
    let scratch = TempDir::new("durable-probe");
    let cp = CheckpointStore::load_latest_from(run).map_err(|e| e.to_string())?.ok_or("the run left no checkpoint")?;
    out.insert("mapreduce.checkpoint_bytes", cp.encode().len() as f64);
    let mut store = CheckpointStore::new(2).with_dir(scratch.path().join("checkpoints"));
    std::fs::create_dir_all(scratch.path().join("checkpoints")).map_err(|e| e.to_string())?;
    let mut writes = Vec::new();
    for _ in 0..5 {
        let cp = cp.clone();
        let span = t.begin("checkpoint.write", Some(root), None);
        let (_, encode_ns) = timed(t, "ClusterCheckpoint::encode", Some(span), || black_box(cp.encode()));
        let (r, push_ns) = timed(t, "CheckpointStore::push", Some(span), || store.push(cp));
        t.end(span);
        r.map_err(|e| e.to_string())?;
        writes.push((encode_ns + push_ns) / 1e6);
    }
    out.insert("mapreduce.checkpoint_write_ms_p50", median(&writes));

    let m = manifest::read_manifest(run).map_err(|e| e.to_string())?;
    let mut writer = ManifestWriter::create(&scratch.path().join("manifest"), &m.header).map_err(|e| e.to_string())?;
    let mut appends = Vec::new();
    for rec in m.records.iter().filter(|r| !matches!(r, manifest::ManifestRecord::Header(_))) {
        let (r, ns) = timed(t, "ManifestWriter::append", Some(root), || writer.append(rec));
        r.map_err(|e| e.to_string())?;
        appends.push(ns / 1e6);
    }
    if !appends.is_empty() {
        out.insert("mapreduce.manifest_append_ms_p50", median(&appends));
    }
    t.end(root);
    Ok(())
}

/// Cold resume: a durable run of 32 epochs abandoned after 30, then
/// `DurableRunner::resume` — restore the newest checkpoint, replay the
/// logged commands, finish the remainder, collect.
fn resume(w: &Workload, c: ClusterSpec, seed: u64, t: &mut Tracer, out: &mut Values) -> Result<(), String> {
    let Kind::Sim { scenario, agents, .. } = w.kind else { return Ok(()) };
    let root = TempDir::new("resume-probe");
    let registry = Registry::builtin();
    let span = t.begin("probe.resume", None, None);
    {
        let sc = registry.get(scenario).ok_or("unknown scenario")?;
        let mut setup = sc.build(Some(agents), seed).map_err(|e| e.to_string())?;
        setup.epoch_len = c.epoch_len;
        let backend = sim::backend(Some(c), scenario, agents, 32 * c.epoch_len, Some(root.path().join("abandoned")));
        let mut handle = Runner::new(sc).backend(backend).seed(seed).launch_with(setup).map_err(|e| e.to_string())?;
        handle.run(30 * c.epoch_len).map_err(|e| e.to_string())?;
        // Dropped without a `Complete` record: the crash.
    }
    let (report, ns) = timed(t, "DurableRunner::resume", Some(span), || {
        DurableRunner::new(&registry, root.path()).resume("abandoned", 0)
    });
    let report = report.map_err(|e| e.to_string())?;
    if report.resumed_from == 0 || report.ticks != 32 * c.epoch_len {
        return Err(format!("resume restarted from tick {} and ended at {}", report.resumed_from, report.ticks));
    }
    out.insert("mapreduce.resume_s", ns / 1e9);
    t.end(span);
    Ok(())
}

// ---- brasil ----------------------------------------------------------------

fn brasil(agents: usize, seed: u64, t: &mut Tracer, out: &mut Values) -> Result<(), String> {
    let root = t.begin("probe.brasil", None, None);
    for (metric, source) in
        [("brasil.compile_fish_ms_p50", scripts::FISH_SCHOOL), ("brasil.compile_car_ms_p50", scripts::CAR_FOLLOWING)]
    {
        let ns = median_ns(t, "Script::compile", Some(root), 11, || {
            black_box(Script::compile(black_box(source)).is_ok());
        });
        out.insert(metric, ns / 1e6);
    }
    let per_visit = |ticks: &[TickMetrics]| {
        ticks.iter().map(|t| t.query_ns).sum::<u64>() as f64
            / ticks.iter().map(|t| t.neighbor_visits).sum::<u64>().max(1) as f64
    };
    let scripted = per_visit(&single_node_ticks("brasil-fish", agents, seed, 2, 10, t)?.0);
    let native = per_visit(&single_node_ticks("fish", agents, seed, 2, 10, t)?.0);
    out.insert("brasil.query_ns_per_visit", scripted);
    out.insert("brasil.visit_cost_over_native", scripted / native.max(f64::MIN_POSITIVE));
    t.end(root);
    Ok(())
}

// ---- serve -----------------------------------------------------------------

/// The miss jobs again, through `Runner` in this process and piece by
/// piece, so the request's time can be attributed: every streamed checksum
/// must equal the direct one.
fn serve_layers(w: &Workload, st: &ServeTrace, t: &mut Tracer, out: &mut Values) -> Result<(), String> {
    let Kind::Serve { agents, ticks } = w.kind else { return Ok(()) };
    let of = |hit: bool, f: fn(&serve::Exchange) -> f64| -> Vec<f64> {
        st.jobs.iter().zip(&st.exchanges).filter(|(j, x)| j.hit == hit && x.total_ms > 0.0).map(|(_, x)| f(x)).collect()
    };
    let (miss, hit) = (of(false, |x| x.total_ms), of(true, |x| x.total_ms));
    if miss.is_empty() || hit.is_empty() {
        return Err("the traced pass completed no miss or no hit".into());
    }
    let all: Vec<f64> = st.exchanges.iter().map(|x| x.total_ms).collect();
    out.insert("serve.miss_ms_p50", median(&miss));
    out.insert("serve.hit_ms_p50", median(&hit));
    out.insert("serve.post_ack_ms_p50", median(&of(false, |x| x.post_ack_ms)));
    out.insert("serve.first_frame_ms_p50", median(&of(false, |x| x.first_frame_ms)));
    out.insert("serve.request_ms_p95", percentile(&all, 95.0));
    eprintln!("perfbench: serve.request_ms_p95 over {} requests of one traced pass", all.len());
    out.insert(
        "serve.stream_bytes_per_request",
        st.exchanges.iter().map(|x| x.stream_bytes).sum::<usize>() as f64 / st.exchanges.len() as f64,
    );
    out.insert("serve.cache_hit_ratio", st.cache_hits as f64 / (st.cache_hits + st.cache_misses).max(1) as f64);
    out.insert("serve.rejected_503", st.rejected_503 as f64);

    let registry = Registry::builtin();
    let root = t.begin("probe.serve_direct", None, None);
    let (mut build, mut launch, mut run, mut collect, mut total) = (vec![], vec![], vec![], vec![], vec![]);
    for (job, x) in st.jobs.iter().zip(&st.exchanges).filter(|(j, _)| !j.hit) {
        let scenario = registry.get(job.scenario).ok_or("unknown scenario")?;
        let span = t.begin("direct.run", Some(root), None);
        let (setup, b) = timed(t, "Scenario::build", Some(span), || scenario.build(Some(agents), job.seed));
        let setup = setup.map_err(|e| e.to_string())?;
        let (handle, l) =
            timed(t, "Runner::launch_with", Some(span), || Runner::new(scenario).seed(job.seed).launch_with(setup));
        let mut handle = handle.map_err(|e| e.to_string())?;
        let (r, r_ns) = timed(t, "SimHandle::run", Some(span), || handle.run(ticks));
        r.map_err(|e| e.to_string())?;
        let (sum, c) = timed(t, "SimHandle::checksum", Some(span), || handle.checksum());
        total.push(t.end(span) as f64 / 1e6);
        if sum.map_err(|e| e.to_string())? != x.checksum {
            return Err(format!("{} seed {}: streamed checksum differs from the direct run", job.scenario, job.seed));
        }
        build.push(b / 1e6);
        launch.push(l / 1e6);
        run.push(r_ns / 1e6);
        collect.push(c / 1e6);
    }
    t.end(root);
    let (b, l, r, c) = (median(&build), median(&launch), median(&run), median(&collect));
    out.insert("serve.direct_run_ms_p50", median(&total));
    out.insert("serve.miss_unattributed_ms", median(&miss) - b - l - r - c);
    out.insert("scenario.build_ms_p50", b);
    out.insert("scenario.launch_ms_p50", l);
    out.insert("scenario.collect_ms", c);
    Ok(())
}

// ---- entry points ----------------------------------------------------------

/// Per-layer numbers of a simulation workload, from the traced pass's kept
/// state plus the direct-call probes.
pub fn sim_layers(w: &Workload, seed: u64, pass: &PassResult, st: &SimTrace, t: &mut Tracer, out: &mut Values) {
    let Kind::Sim { scenario, agents, cluster, .. } = w.kind else { return };
    spatial(st, t, out);
    lane_kernels(t, out);
    codec_probes(st, t, out);
    let warn = |what: &str, r: Result<(), String>| {
        if let Err(e) = r {
            eprintln!("perfbench: WARNING {what} probe failed: {e}");
        }
    };
    match cluster {
        None => core(&st.ticks, &pass.op_ms, out),
        Some(c) => {
            // The cluster reports no per-phase split; the same scenario and
            // population on one node does.
            match single_node_ticks(scenario, agents, seed, w.warmup as u64, 2 * c.epoch_len, t) {
                Ok((ticks, step_ms)) => core(&ticks, &step_ms, out),
                Err(e) => warn("core", Err(e)),
            }
            if let Some(base) = &st.cluster_base {
                cluster_ledger(c, base, &st.cluster_ops, &pass.norm_op_ms(), out);
            }
            if let Some(dir) = &st.run_dir {
                warn("durable I/O", durable_io(&dir.path().join("run"), t, out));
            }
            warn("resume", resume(w, c, seed, t, out));
        }
    }
}

pub fn serve_mix_layers(
    w: &Workload,
    seed: u64,
    st: &ServeTrace,
    t: &mut Tracer,
    out: &mut Values,
) -> Result<(), String> {
    let Kind::Serve { agents, .. } = w.kind else { return Ok(()) };
    serve_layers(w, st, t, out)?;
    brasil(agents, seed, t, out)
}
