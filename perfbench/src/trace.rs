//! The traced run: the same request stream replayed in-process, with
//! every call into a layer's public functions timed from here. Nothing
//! inside the program is instrumented; each number is a span the
//! benchmark itself opens and closes around one public call.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use om_api::{
    BatchItemRequest, BatchRequest, CompareRequest, DrillRequest, ExploreRequest, GiRequest,
    IngestRequest, InternalLevelRequest, SliceRequest,
};
use om_cluster::ShardClient;
use om_compare::{Comparator, ComparisonSpec, DrillConfig};
use om_cube::persist::{decode_store, encode_store};
use om_cube::{ColumnIndex, CubeStore, StoreBuildOptions};
use om_engine::{BatchItem, Budget, CompareNames, ExecConfig, ExploreQuery};
use om_exec::{rank_parallel, Executor};
use om_server::http::parse_request_routed;
use om_server::ops::EngineOps;
use om_server::router::RouteOptions;
use om_server::v1::route_v1;

use crate::load::{ingest, median, read_load, Outcome, Stop};
use crate::oracle::{check, get, send, Answer};
use crate::topology::{Front, Node};
use crate::workload::{Kind, Plan, INGEST_BATCH_ROWS};
use crate::Metrics;

/// Samples each kind needs in the HTTP pass and in the replay; kinds
/// the timed slices drew fewer of are topped up from the stream.
const MIN_SAMPLES: usize = 5;
/// Ingest batches replayed in-process through `route_v1`.
const REPLAY_INGEST: usize = 16;
/// Attributes in the `/internal/level` probe's store.
const LEVEL_ATTRS: usize = 16;
/// Repetitions of each one-off probe (codec, merge, fetch, refresh).
const PROBE_REPS: usize = 3;
/// Seals the ingest probe times, 8 appended batches each.
const SEAL_REPS: usize = 5;

/// The layer → end-to-end metric → workload predictions this run's
/// per-layer numbers are meant to be read against.
pub const PREDICTIONS: &[(&str, &str)] = &[
    (
        "om-server (server.*)",
        "throughput_rps, latency_p50_ms, compare_p50_ms on narrow-mix; ~0 on wide-drill",
    ),
    ("om-api (api.*)", "same targets as om-server"),
    ("om-engine (engine.run_us.*)", "the matching <kind>_p50_ms on wide-drill"),
    (
        "om-compare, om-exec (compare.rank_us, exec.*)",
        "compare_p50_ms, batch_p50_ms on wide-drill",
    ),
    ("om-explore (explore.run_us)", "explore_p50_ms on wide-drill"),
    (
        "om-cube kernel (cube.narrow_us, cube.count_us, cube.masked_scan_us, cube.rows_scanned)",
        "drill_p50_ms, batch_p50_ms, explore_p50_ms on wide-drill; no move on cluster-ingest",
    ),
    (
        "om-cube set-up (cube.store_build_s, cube.index_build_s, cube.*_bytes)",
        "setup_s, peak_rss_mb on wide-drill",
    ),
    (
        "om-cube wire (cube.store_encode_ms, cube.store_decode_ms, cube.store_wire_bytes, cube.store_merge_ms)",
        "ingest_visible_ms, latency_p99_ms on cluster-ingest",
    ),
    ("om-ingest (ingest.*)", "ingest_rows_per_s, ingest_visible_ms on cluster-ingest"),
    (
        "om-cluster (cluster.*)",
        "latency_p99_ms, throughput_rps, drill_p50_ms on cluster-ingest; no change on single-node workloads",
    ),
];

/// A decoded `/v1` body.
enum Decoded {
    Compare(CompareRequest),
    Drill(DrillRequest),
    Batch(BatchRequest),
    Explore(ExploreRequest),
    /// `top` only trims the encoded answer; the engine call ignores it.
    Gi,
    Slice(SliceRequest),
    Ingest(IngestRequest),
}

fn decode(kind: Kind, body: &str) -> Result<Decoded, String> {
    Ok(match kind {
        Kind::Compare => Decoded::Compare(CompareRequest::parse(body)?),
        Kind::Drill => Decoded::Drill(DrillRequest::parse(body)?),
        Kind::Batch => Decoded::Batch(BatchRequest::parse(body)?),
        Kind::Explore => Decoded::Explore(ExploreRequest::parse(body)?),
        Kind::Gi => {
            GiRequest::parse(body)?;
            Decoded::Gi
        }
        Kind::Slice => Decoded::Slice(SliceRequest::parse(body)?),
        Kind::Ingest => Decoded::Ingest(IngestRequest::parse(body)?),
    })
}

/// The drill configuration `route_v1` builds from a body's `depth` and
/// `min_score`.
fn drill_config(ops: &dyn EngineOps, depth: Option<u64>, min_score: Option<f64>) -> DrillConfig {
    let defaults = DrillConfig::default();
    DrillConfig {
        compare: ops.compare_config(),
        max_depth: depth.map_or(defaults.max_depth, |d| {
            usize::try_from(d).unwrap_or(usize::MAX)
        }),
        min_normalized_score: min_score.unwrap_or(defaults.min_normalized_score),
    }
}

/// The backend call `route_v1` makes for a decoded body (the resident
/// engine's `run_*` on a node, the coordinator's on a cluster), without
/// the wire encoding around it. Returns the deepest drill level's
/// conditions, which the kernel probe replays.
fn engine_call(
    ops: &dyn EngineOps,
    decoded: &Decoded,
    budget: &Budget,
) -> Result<Vec<om_engine::Condition>, String> {
    let err = |e: om_server::ops::OpsError| format!("{e:?}");
    let resolve_path = |path: &[om_api::PathStep]| {
        path.iter()
            .map(|s| ops.condition_by_name(&s.attr, &s.value))
            .collect::<Result<Vec<_>, _>>()
    };
    match decoded {
        Decoded::Compare(r) => {
            ops.run_compare_by_name(&r.attr, &r.v1, &r.v2, &r.class, budget)
                .map_err(err)?;
        }
        Decoded::Drill(r) => {
            let config = drill_config(ops, r.depth, r.min_score);
            if r.path.is_empty() {
                let levels = ops
                    .run_drill_down_by_name(&r.attr, &r.v1, &r.v2, &r.class, &config, budget)
                    .map_err(err)?;
                return Ok(levels
                    .last()
                    .map(|l| l.conditions.clone())
                    .unwrap_or_default());
            }
            let item = BatchItem::Drill {
                spec: ops
                    .spec_by_name(&r.attr, &r.v1, &r.v2, &r.class)
                    .map_err(err)?,
                path: resolve_path(&r.path).map_err(err)?,
                budget_ms: None,
            };
            let outcomes = ops.run_batch(&[item], &config, budget).map_err(err)?;
            if let Some(om_engine::BatchOutcome::Drill(levels)) = outcomes.first() {
                return Ok(levels
                    .last()
                    .map(|l| l.conditions.clone())
                    .unwrap_or_default());
            }
        }
        Decoded::Batch(r) => {
            let items = r
                .items
                .iter()
                .map(|item| {
                    Ok(match item {
                        BatchItemRequest::Compare { req, budget_ms } => BatchItem::Compare {
                            spec: ops.spec_by_name(&req.attr, &req.v1, &req.v2, &req.class)?,
                            budget_ms: *budget_ms,
                        },
                        BatchItemRequest::Drill { req, budget_ms } => BatchItem::Drill {
                            spec: ops.spec_by_name(&req.attr, &req.v1, &req.v2, &req.class)?,
                            path: resolve_path(&req.path)?,
                            budget_ms: *budget_ms,
                        },
                    })
                })
                .collect::<Result<Vec<_>, _>>()
                .map_err(err)?;
            ops.run_batch(&items, &drill_config(ops, None, None), budget)
                .map_err(err)?;
        }
        Decoded::Explore(r) => {
            ops.run_explore(&explore_query(r), budget).map_err(err)?;
        }
        Decoded::Gi => {
            ops.run_general_impressions(budget).map_err(err)?;
        }
        Decoded::Slice(r) => {
            let attr = ops.attr_index(&r.attr).map_err(err)?;
            let store = ops.query_store(budget).map_err(err)?;
            match &r.by {
                None => drop(store.one_dim(attr).map_err(|e| e.to_string())?),
                Some(by) => {
                    let by = ops.attr_index(by).map_err(err)?;
                    drop(store.pair(attr, by).map_err(|e| e.to_string())?);
                }
            }
        }
        Decoded::Ingest(r) => {
            ops.ingest_rows(&r.rows).map_err(err)?;
        }
    }
    Ok(Vec::new())
}

fn explore_query(r: &ExploreRequest) -> ExploreQuery {
    ExploreQuery {
        slice: r
            .slice
            .iter()
            .map(|s| (s.attr.clone(), s.value.clone()))
            .collect(),
        k: r.k as usize,
        max_conditions: r.max_conditions.map(|m| m as usize),
        compare: r.compare.as_ref().map(|c| CompareNames {
            attr: c.attr.clone(),
            value_1: c.v1.clone(),
            value_2: c.v2.clone(),
            class: c.class.clone(),
        }),
    }
}

/// Per-metric sample lists, reduced to medians at the end.
#[derive(Default)]
struct Spans(BTreeMap<String, Vec<f64>>);

impl Spans {
    fn push(&mut self, name: impl Into<String>, value: f64) {
        self.0.entry(name.into()).or_default().push(value);
    }

    fn count(&self, name: &str) -> usize {
        self.0.get(name).map_or(0, Vec::len)
    }

    fn median(&self, name: &str) -> f64 {
        self.0.get(name).map_or(f64::NAN, |v| median(v))
    }
}

fn us(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// The probes that reach below the backend seam run against this node:
/// the single node itself, or shard 0 of a cluster.
fn probe_node(front: &Front) -> &Node {
    &front.nodes()[0]
}

/// Replay one request through every layer, recording a span per call.
///
/// `route_v1` and the bare backend call it makes run one after the
/// other, so whichever runs second may find the backend's caches (the
/// coordinator's level and merged-store caches) warm. Their order
/// alternates per kind, and `api.encode_us` (route − decode − backend
/// call) is the mean of its medians over the two orders, so a warm
/// cache's gain counts once on each side and cancels.
fn replay_one(
    front: &Front,
    req: &crate::workload::Req,
    spans: &mut Spans,
    exec2: &Executor,
    out: &mut Outcome,
) {
    let kind = req.kind.name();
    let t = Instant::now();
    let parsed = parse_request_routed(req.raw.as_slice(), usize::MAX, |_| true);
    let parse_us = us(t);
    out.attempted += 1;
    let Ok((parsed, _)) = parsed else {
        out.failed += 1;
        return;
    };
    let t = Instant::now();
    let decoded = decode(req.kind, &parsed.body);
    let decode_us = us(t);
    let Ok(decoded) = decoded else {
        out.failed += 1;
        return;
    };
    let budget = Budget::unlimited();
    let opts = RouteOptions::default();
    let route = || {
        let t = Instant::now();
        let response = front.with_ops(|ops| route_v1(&parsed, ops, &opts));
        (response, us(t))
    };
    let backend = || {
        let t = Instant::now();
        let conditions = front.with_ops(|ops| engine_call(ops, &decoded, &budget));
        (conditions, us(t))
    };
    let backend_first = spans.count(&format!("server.route_us.{kind}")) % 2 == 1;
    let ((response, route_us), (engine, engine_us)) = if backend_first {
        let engine = backend();
        (route(), engine)
    } else {
        let response = route();
        (response, backend())
    };
    let mut wire = Vec::with_capacity(response.body.len() + 128);
    let t = Instant::now();
    let written = response.write_to(&mut wire);
    let write_us = us(t);
    let answer = Answer {
        status: response.status,
        body: response.body,
    };
    if written.is_err() || engine.is_err() || check(req.kind, &answer, None).is_some() {
        out.failed += 1;
        return;
    }
    spans.push(format!("parse.{kind}"), parse_us);
    spans.push(format!("write.{kind}"), write_us);
    spans.push("server.http_parse_us", parse_us);
    spans.push("server.write_us", write_us);
    spans.push(format!("server.route_us.{kind}"), route_us);
    spans.push(format!("api.decode_us.{kind}"), decode_us);
    spans.push(format!("engine.run_us.{kind}"), engine_us);
    let order = if backend_first { "backend" } else { "route" };
    spans.push(
        format!("encode.{order}_first.{kind}"),
        route_us - decode_us - engine_us,
    );
    spans.push(
        format!("api.response_bytes.{kind}"),
        answer.body.len() as f64,
    );

    let node = probe_node(front);
    let om = &node.om;
    let snapshot = om.store();
    let config = om.config().compare.clone();
    let spec_of = |r: &CompareRequest| om.spec_by_name(&r.attr, &r.v1, &r.v2, &r.class).ok();
    match &decoded {
        Decoded::Compare(r) => {
            if let Some(spec) = spec_of(r) {
                let t = Instant::now();
                let ranked = Comparator::with_config(&snapshot, config.clone()).compare(&spec);
                spans.push("compare.rank_us", us(t));
                let t = Instant::now();
                let parallel = rank_parallel(exec2, &snapshot, &config, &spec, &budget);
                spans.push("exec.rank_parallel_us", us(t));
                if ranked.is_err() || parallel.is_err() {
                    out.failed += 1;
                }
            }
        }
        Decoded::Drill(r) => {
            let spec = om.spec_by_name(&r.attr, &r.v1, &r.v2, &r.class);
            if let (Ok(spec), Ok(kernel)) = (spec, om.kernel()) {
                let conditions = engine.unwrap_or_default();
                kernel_probe(kernel, &conditions, &spec, spans);
            }
        }
        Decoded::Batch(r) => {
            let serial = Executor::serial();
            let items: Option<Vec<BatchItem>> = r
                .items
                .iter()
                .map(|item| match item {
                    BatchItemRequest::Compare { req, .. } => Some(BatchItem::Compare {
                        spec: spec_of(req)?,
                        budget_ms: None,
                    }),
                    BatchItemRequest::Drill { req, .. } => Some(BatchItem::Drill {
                        spec: om
                            .spec_by_name(&req.attr, &req.v1, &req.v2, &req.class)
                            .ok()?,
                        path: req
                            .path
                            .iter()
                            .map(|s| om.condition_by_name(&s.attr, &s.value).ok())
                            .collect::<Option<Vec<_>>>()?,
                        budget_ms: None,
                    }),
                })
                .collect();
            if let (Some(items), Ok(kernel)) = (items, om.kernel()) {
                let t = Instant::now();
                let outcomes = om_exec::run_batch(
                    &serial,
                    &snapshot,
                    kernel,
                    &config,
                    &DrillConfig {
                        compare: config.clone(),
                        ..DrillConfig::default()
                    },
                    &items,
                    &budget,
                );
                spans.push("exec.batch_us", us(t));
                std::hint::black_box(outcomes);
            }
        }
        Decoded::Explore(r) => {
            let serial = Executor::serial();
            let t = Instant::now();
            let report =
                om_explore::explore(&serial, &snapshot, &config, &explore_query(r), &budget);
            spans.push("explore.run_us", us(t));
            if report.is_err() {
                out.failed += 1;
            }
        }
        Decoded::Gi | Decoded::Slice(_) | Decoded::Ingest(_) => {}
    }
}

/// One drill level's kernel work: narrow the population by the level's
/// conditions (a bitmap AND each), count it (a popcount), and fill the
/// level's store anchored on the compared attribute (the masked scan).
fn kernel_probe(
    kernel: &Arc<ColumnIndex>,
    conditions: &[om_engine::Condition],
    spec: &ComparisonSpec,
    spans: &mut Spans,
) {
    let mut selector = kernel.selector();
    for c in conditions {
        let t = Instant::now();
        match selector.narrow(c.attr, c.value) {
            Ok(narrowed) => selector = narrowed,
            Err(_) => return,
        }
        spans.push("cube.narrow_us", us(t));
    }
    let t = Instant::now();
    let rows = std::hint::black_box(selector.count());
    spans.push("cube.count_us", us(t));
    let t = Instant::now();
    let store = selector.build_store_anchored(None, spec.attr);
    spans.push("cube.masked_scan_us", us(t));
    spans.push("cube.rows_scanned", rows as f64);
    std::hint::black_box(store.ok());
}

/// Parse the `name value` lines of a `/metrics` body (labelled series
/// are skipped).
fn scrape(front: &Front) -> BTreeMap<String, f64> {
    let Ok(answer) = get(front.addr(), "/metrics") else {
        return BTreeMap::new();
    };
    answer
        .body
        .lines()
        .filter(|l| !l.starts_with('#') && !l.contains('{'))
        .filter_map(|l| {
            let (name, value) = l.split_once(' ')?;
            Some((name.to_owned(), value.trim().parse().ok()?))
        })
        .collect()
}

/// The traced run. `seconds` is split between the HTTP pass (for the
/// end-to-end side of `server.outside_us.*` and the `/metrics` deltas)
/// and the in-process replay; the one-off probes follow.
pub fn run(front: &Front, plan: &Plan, cluster: bool, seconds: f64, out: &mut Outcome) -> Metrics {
    let mut spans = Spans::default();

    // ---- HTTP pass -------------------------------------------------
    let before = scrape(front);
    // No sampled oracle here: its in-process calls would fan out too
    // and show in the `/metrics` deltas as client traffic.
    let readers = crate::CLIENTS - usize::from(cluster);
    let (mut pass, _) = read_load(front, plan, readers, cluster, seconds * 0.3, false);
    if !cluster {
        pass.merge(ingest(front, plan, Stop::Rounds(1), None, None));
    }
    // Every read the front served: the stream's and the post-seal ones.
    let reads_in_pass = pass.positions + pass.seal_reads as usize;
    let after = scrape(front);
    // Top up kinds the timed slice drew too few of.
    for kind in Kind::ALL {
        let have = pass.latencies.iter().filter(|(k, ..)| *k == kind).count();
        let pool = if kind == Kind::Ingest {
            &plan.ingest
        } else {
            &plan.reads
        };
        for req in pool
            .iter()
            .filter(|r| r.kind == kind)
            .take(MIN_SAMPLES.saturating_sub(have))
        {
            let t = Instant::now();
            let result = send(front.addr(), &req.raw);
            let latency = us(t);
            if matches!(&result, Ok(a) if check(kind, a, None).is_none()) {
                pass.latencies.push((kind, latency, crate::speed::slice()));
            } else {
                pass.attempted += 1;
                pass.failed += 1;
            }
        }
    }
    if cluster {
        // Publish what the ingest client staged, so the replay and the
        // probes start from a sealed store as on a single node.
        if let Err(e) = front.seal_round() {
            pass.attempted += 1;
            pass.failed += 1;
            pass.failures.push(e);
        }
    }
    let e2e: BTreeMap<Kind, Vec<f64>> = pass.by_kind(|_| 1.0);
    out.merge(pass);

    // ---- in-process replay -----------------------------------------
    let exec2 = Executor::new(&ExecConfig { workers: 2 });
    let deadline = Instant::now() + Duration::from_secs_f64(seconds * 0.45);
    for req in &plan.reads {
        if Instant::now() >= deadline {
            break;
        }
        replay_one(front, req, &mut spans, &exec2, out);
    }
    for kind in Kind::ALL {
        let key = format!("server.route_us.{}", kind.name());
        let pool = if kind == Kind::Ingest {
            &plan.ingest[..REPLAY_INGEST]
        } else {
            &plan.reads[..]
        };
        let want = if kind == Kind::Ingest {
            REPLAY_INGEST
        } else {
            MIN_SAMPLES
        };
        for req in pool.iter().filter(|r| r.kind == kind) {
            if spans.count(&key) >= want {
                break;
            }
            replay_one(front, req, &mut spans, &exec2, out);
        }
    }
    // Publish the replayed ingest batches, so the ingest probe's seals
    // cover only the batches it appends.
    if let Err(e) = front.seal_round() {
        out.attempted += 1;
        out.failed += 1;
        out.failures.push(e);
    }

    let mut metrics = Metrics::default();
    metrics.add(
        "server.http_parse_us",
        spans.median("server.http_parse_us"),
        "us",
    );
    metrics.add("server.write_us", spans.median("server.write_us"), "us");
    for kind in Kind::ALL {
        let k = kind.name();
        let route = spans.median(&format!("server.route_us.{k}"));
        metrics.add(format!("server.route_us.{k}"), route, "us");
        let e2e_us = e2e
            .get(&kind)
            .map_or(f64::NAN, |v| crate::load::quantile(v, 0.5) * 1e3);
        let inside =
            spans.median(&format!("parse.{k}")) + route + spans.median(&format!("write.{k}"));
        metrics.add(format!("server.outside_us.{k}"), e2e_us - inside, "us");
    }
    metrics.add(
        "server.shed_total",
        delta(&before, &after, "om_shed_total"),
        "count",
    );
    for kind in Kind::ALL {
        let k = kind.name();
        metrics.add(
            format!("api.decode_us.{k}"),
            spans.median(&format!("api.decode_us.{k}")),
            "us",
        );
        metrics.add(
            format!("api.encode_us.{k}"),
            (spans.median(&format!("encode.route_first.{k}"))
                + spans.median(&format!("encode.backend_first.{k}")))
                / 2.0,
            "us",
        );
        metrics.add(
            format!("api.response_bytes.{k}"),
            spans.median(&format!("api.response_bytes.{k}")),
            "bytes",
        );
        metrics.add(
            format!("engine.run_us.{k}"),
            spans.median(&format!("engine.run_us.{k}")),
            "us",
        );
    }
    for (name, unit) in [
        ("compare.rank_us", "us"),
        ("exec.rank_parallel_us", "us"),
        ("exec.batch_us", "us"),
        ("explore.run_us", "us"),
        ("cube.narrow_us", "us"),
        ("cube.count_us", "us"),
        ("cube.masked_scan_us", "us"),
        ("cube.rows_scanned", "count"),
    ] {
        metrics.add(name, spans.median(name), unit);
    }

    // ---- one-off probes ----------------------------------------------
    setup_probe(probe_node(front), &mut metrics);
    wire_probe(front, &mut metrics, out);
    internal_probe(front, plan, &mut metrics, out);
    ingest_probe(front, plan, &mut metrics, out);

    let fanouts = delta(&before, &after, "om_cluster_fanouts_total");
    metrics.add(
        "cluster.fanouts_per_req",
        fanouts / reads_in_pass.max(1) as f64,
        "count",
    );
    metrics.add(
        "cluster.store_refreshes",
        delta(&before, &after, "om_cluster_store_refreshes_total"),
        "count",
    );
    let hits = delta(&before, &after, "om_cluster_level_cache_hits_total");
    let misses = delta(&before, &after, "om_cluster_level_cache_misses_total");
    metrics.add(
        "cluster.level_cache_hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
        "ratio",
    );
    metrics.add(
        "cluster.retries_total",
        delta(&before, &after, "om_cluster_retries_total"),
        "count",
    );
    metrics.add(
        "cluster.hedges_total",
        delta(&before, &after, "om_cluster_hedges_total"),
        "count",
    );
    metrics
}

fn delta(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>, name: &str) -> f64 {
    after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
}

/// Store and index build times and sizes over the node's base rows.
fn setup_probe(node: &Node, metrics: &mut Metrics) {
    let ds = node.om.dataset();
    let t = Instant::now();
    let store = CubeStore::build(
        ds,
        &StoreBuildOptions {
            index: false,
            ..StoreBuildOptions::default()
        },
    );
    let store_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let index = ColumnIndex::build(ds);
    let index_s = t.elapsed().as_secs_f64();
    metrics.add("cube.store_build_s", store_s, "s");
    metrics.add("cube.index_build_s", index_s, "s");
    metrics.add(
        "cube.store_bytes",
        store.map_or(f64::NAN, |s| s.memory_bytes() as f64),
        "bytes",
    );
    metrics.add(
        "cube.index_bytes",
        index.map_or(f64::NAN, |i| i.memory_bytes() as f64),
        "bytes",
    );
}

/// The store codec and merge: what a coordinator pays per refresh. A
/// single node merges its store with itself, the same work at the same
/// shape as merging two shards.
fn wire_probe(front: &Front, metrics: &mut Metrics, out: &mut Outcome) {
    let mut encode = Vec::new();
    let mut decode = Vec::new();
    let mut merge = Vec::new();
    let mut wire_bytes = 0usize;
    for _ in 0..PROBE_REPS {
        let mut decoded = Vec::new();
        for node in front.nodes() {
            let snapshot = node.om.store();
            let t = Instant::now();
            let encoded = encode_store(snapshot.store());
            encode.push(ms(t));
            let Ok(encoded) = encoded else {
                out.attempted += 1;
                out.failed += 1;
                return;
            };
            wire_bytes = encoded.len();
            let t = Instant::now();
            let store = decode_store(Bytes::from(encoded.to_vec()));
            decode.push(ms(t));
            match store {
                Ok(store) => decoded.push(store),
                Err(_) => {
                    out.attempted += 1;
                    out.failed += 1;
                    return;
                }
            }
        }
        let (a, b) = match decoded.as_slice() {
            [a] => (a, a),
            [a, b, ..] => (a, b),
            [] => return,
        };
        let t = Instant::now();
        let merged = a.merge(b);
        merge.push(ms(t));
        std::hint::black_box(merged.ok());
    }
    metrics.add("cube.store_encode_ms", median(&encode), "ms");
    metrics.add("cube.store_decode_ms", median(&decode), "ms");
    metrics.add("cube.store_wire_bytes", wire_bytes as f64, "bytes");
    metrics.add("cube.store_merge_ms", median(&merge), "ms");
}

/// The shard-internal endpoints, fetched with the coordinator's own
/// client from the probe node (every engine-backed server serves them).
fn internal_probe(front: &Front, plan: &Plan, metrics: &mut Metrics, out: &mut Outcome) {
    let node = probe_node(front);
    let client = ShardClient::new(
        node.server.local_addr().to_string(),
        Duration::from_secs(60),
    );
    let generation = node.om.store_generation();
    let mut store_ms = Vec::new();
    let mut store_bytes = 0usize;
    let mut level_ms = Vec::new();
    let schema = node.om.dataset().schema();
    // At most LEVEL_ATTRS attributes: a level store fills every pair
    // cube, which over all 200 `wide-drill` attributes takes seconds.
    let attrs: Vec<u64> = schema
        .non_class_indices()
        .into_iter()
        .take(LEVEL_ATTRS)
        .map(|a| a as u64)
        .collect();
    // The first drill of the stream, conditioned on its compared value.
    let condition = plan
        .reads
        .iter()
        .find(|r| r.kind == Kind::Drill)
        .and_then(|r| DrillRequest::parse(&r.body).ok())
        .and_then(|d| node.om.condition_by_name(&d.attr, &d.v1).ok());
    let level = InternalLevelRequest {
        conditions: condition
            .map(|c| om_api::ConditionWire {
                attr: c.attr as u64,
                value: u64::from(c.value),
            })
            .into_iter()
            .collect(),
        attrs,
    }
    .encode();
    for _ in 0..PROBE_REPS {
        let t = Instant::now();
        let store = client.expect_ok("GET", &format!("/internal/store?expect={generation}"), None);
        store_ms.push(ms(t));
        let t = Instant::now();
        let level = client.expect_ok("POST", "/internal/level", Some(&level));
        level_ms.push(ms(t));
        out.attempted += 2;
        match (store, level) {
            (Ok(body), Ok(_)) => store_bytes = body.len(),
            (store, level) => {
                out.failed += 1;
                out.failures
                    .extend(store.err().into_iter().chain(level.err()));
            }
        }
    }
    metrics.add("cluster.internal_store_ms", median(&store_ms), "ms");
    metrics.add("cluster.internal_store_bytes", store_bytes as f64, "bytes");
    metrics.add("cluster.internal_level_ms", median(&level_ms), "ms");
}

/// WAL append and seal on the probe node's ingestor, then the cost of
/// the first read after a seal round over a steady read.
fn ingest_probe(front: &Front, plan: &Plan, metrics: &mut Metrics, out: &mut Outcome) {
    let handle = &probe_node(front).ingest;
    let mut append = Vec::new();
    let mut seal = Vec::new();
    let stats_before = handle.stats();
    for round in 0..SEAL_REPS {
        for rows in plan.ingest_rows.iter().skip(round * 8).take(8) {
            let t = Instant::now();
            let appended = handle.append_labeled(rows);
            append.push(us(t));
            out.attempted += 1;
            if !matches!(appended, Ok(n) if n == INGEST_BATCH_ROWS) {
                out.failed += 1;
            }
        }
        let t = Instant::now();
        let sealed = handle.seal_now();
        seal.push(ms(t));
        out.attempted += 1;
        if sealed.is_err() {
            out.failed += 1;
        }
    }
    let stats_after = handle.stats();
    metrics.add("ingest.append_us", median(&append), "us");
    metrics.add("ingest.seal_ms", median(&seal), "ms");
    let rows = stats_after
        .rows_total
        .saturating_sub(stats_before.rows_total);
    metrics.add(
        "ingest.wal_bytes_per_row",
        stats_after.wal_bytes.saturating_sub(stats_before.wal_bytes) as f64 / rows.max(1) as f64,
        "bytes",
    );

    let mut refresh = Vec::new();
    for rows in plan.ingest_rows.iter().skip(SEAL_REPS * 8).take(PROBE_REPS) {
        out.attempted += 1;
        if handle.append_labeled(rows).is_err() || front.seal_round().is_err() {
            out.failed += 1;
            continue;
        }
        let probe = &plan.visibility_probe;
        let t = Instant::now();
        let first = send(front.addr(), &probe.raw);
        let first_ms = ms(t);
        let t = Instant::now();
        let steady = send(front.addr(), &probe.raw);
        let steady_ms = ms(t);
        let ok =
            |a: &Result<Answer, String>| matches!(a, Ok(a) if check(probe.kind, a, None).is_none());
        if ok(&first) && ok(&steady) {
            refresh.push(first_ms - steady_ms);
        } else {
            out.failed += 1;
        }
    }
    metrics.add("cluster.refresh_ms", median(&refresh), "ms");
}
