//! perfbench: the end-to-end and per-layer benchmark of the `/v1` stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <narrow-mix|wide-drill|cluster-ingest> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` —
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The line before it records the run's inputs. See
//! `perfbench/README.md`.

mod load;
mod oracle;
mod speed;
mod topology;
mod trace;
mod workload;

use om_api::Json;
use om_data::Dataset;

use crate::load::{check_deferred, quantile, read_load, stale_share, Outcome};
use crate::topology::{Front, WorkDir, SHARDS};
use crate::workload::{plan, Kind, Workload, INGEST_BATCH_ROWS, SEAL_ROWS};

/// Closed-loop clients: one per core of the reference container.
pub const CLIENTS: usize = 2;
/// Set-ups per untraced run; `setup_s` is their median. The cheap
/// paper-scenario set-ups (tens of ms) repeat more often.
fn setups(workload: Workload) -> usize {
    match workload {
        Workload::WideDrill => 5,
        Workload::NarrowMix | Workload::ClusterIngest => 15,
    }
}
/// On a single node, the share of `--seconds` the timed readers get;
/// the ingest phase that follows them gets the rest, long enough for
/// about ten seal rounds on `wide-drill` at 30 s.
const READ_SHARE: f64 = 0.7;
/// Dataset seeds are fixed: `--seed` varies the request stream, not the
/// data, so runs with different seeds measure the same system.
const PAPER_DATA_SEED: u64 = 9;
const WIDE_DATA_SEED: u64 = 11;
const PAPER_RECORDS: usize = 50_000;
const WIDE_ATTRS: usize = 200;
const WIDE_RECORDS: usize = 20_000;

/// Named metrics in output order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// The metrics at the reference host speed: times multiplied by
    /// `factor` (see [`speed::factor`]), rates divided by it, the rest
    /// as measured.
    fn at_reference_speed(&self, factor: f64) -> Metrics {
        Metrics(
            self.0
                .iter()
                .map(|(name, value, unit)| {
                    let value = match *unit {
                        "s" | "ms" | "us" => value * factor,
                        "1/s" | "rows/s" => value / factor,
                        _ => *value,
                    };
                    (name.clone(), value, *unit)
                })
                .collect(),
        )
    }

    fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(name, value, unit)| {
                    (
                        name.clone(),
                        Json::Obj(vec![
                            ("value".to_owned(), Json::Num(*value)),
                            ("unit".to_owned(), Json::Str((*unit).to_owned())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// A run's metrics at the reference host speed, its metrics as
/// measured, and the run-record fields it adds.
type Measured = (Metrics, Metrics, Vec<(String, Json)>);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                });
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The workload's dataset, before discretization.
fn dataset(workload: Workload) -> Dataset {
    match workload {
        Workload::NarrowMix | Workload::ClusterIngest => {
            om_synth::paper_scenario(PAPER_RECORDS, PAPER_DATA_SEED).0
        }
        Workload::WideDrill => om_bench::scaleup_dataset(WIDE_ATTRS, WIDE_RECORDS, WIDE_DATA_SEED),
    }
}

/// The commit under test, read from the checkout's git metadata when it
/// has any.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown (not a git checkout)".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    read(&format!(".git/{reference}"))
        .map(|s| s.trim().to_owned())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_owned))
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

/// The process's peak resident set so far (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let workload = args.workload;
    let cluster = workload == Workload::ClusterIngest;
    let raw = dataset(workload);
    let mut plan = plan(workload, args.seed, &raw);

    // Set up repeatedly and keep the last; `setup_s` is the median.
    let rounds = if args.trace { 1 } else { setups(workload) };
    let mut setups = Vec::with_capacity(rounds);
    let mut live = None;
    for round in 0..rounds {
        speed::sample();
        let work = WorkDir::new(workload.name(), round)?;
        let (front, seconds) = Front::start(&raw, cluster, &work.0, &plan.visibility_probe)?;
        setups.push((seconds, speed::slice()));
        if round + 1 < rounds {
            front.stop();
        } else {
            live = Some((front, work));
        }
    }
    drop(raw);
    let (front, _work) = live.expect("at least one set-up");
    plan.add_ingest(args.seed, front.base());

    // Warm-up: a few stream requests, checked but not timed.
    let mut out = Outcome::default();
    for req in plan.reads.iter().take(16) {
        let answer = oracle::send(front.addr(), &req.raw);
        out.attempted += 1;
        if !matches!(&answer, Ok(a) if oracle::check(req.kind, a, None).is_none()) {
            out.failed += 1;
            out.failures
                .push(format!("warm-up {}: {:?}", req.kind.name(), answer.err()));
        }
    }

    let result = if args.trace {
        let metrics = trace::run(&front, &plan, cluster, args.seconds, &mut out);
        let predictions = trace::PREDICTIONS
            .iter()
            .map(|(layer, moves)| ((*layer).to_owned(), Json::Str((*moves).to_owned())))
            .collect();
        Ok((
            metrics.at_reference_speed(speed::factor()),
            metrics,
            vec![("predictions".to_owned(), Json::Obj(predictions))],
        ))
    } else {
        end_to_end(&front, &plan, cluster, args.seconds, &setups, &mut out)
    };
    front.stop();
    let (metrics, raw, extra) = result?;
    let factor = speed::factor();
    let probes = speed::probes();
    let series = |part: fn(&speed::Probe) -> f64| {
        Json::Arr(probes.iter().map(|p| Json::Num(part(p))).collect())
    };
    let host_speed = Json::Obj(vec![
        (
            "cpu_reference_ms".to_owned(),
            Json::Num(speed::CPU_REFERENCE_MS),
        ),
        (
            "net_reference_ms".to_owned(),
            Json::Num(speed::NET_REFERENCE_MS),
        ),
        ("factor".to_owned(), Json::Num(factor)),
        ("cpu_ms".to_owned(), series(|p| p.cpu_ms)),
        ("net_ms".to_owned(), series(|p| p.net_ms)),
    ]);

    let mix: Vec<(String, Json)> = workload
        .mix()
        .iter()
        .map(|&(k, share)| (k.name().to_owned(), Json::Num(share)))
        .collect();
    let (records, attrs) = match workload {
        Workload::WideDrill => (WIDE_RECORDS, WIDE_ATTRS),
        _ => (PAPER_RECORDS, 13),
    };
    let record = vec![
        ("workload".to_owned(), Json::Str(workload.name().to_owned())),
        ("seed".to_owned(), Json::Num(args.seed as f64)),
        ("commit".to_owned(), Json::Str(commit())),
        (
            "nproc".to_owned(),
            Json::Num(
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get) as f64,
            ),
        ),
        ("trace".to_owned(), Json::Bool(args.trace)),
        ("seconds".to_owned(), Json::Num(args.seconds)),
        ("clients".to_owned(), Json::Num(CLIENTS as f64)),
        ("dataset_records".to_owned(), Json::Num(records as f64)),
        ("dataset_attributes".to_owned(), Json::Num(attrs as f64)),
        (
            "topology".to_owned(),
            Json::Str(if cluster {
                format!("coordinator over {SHARDS} shards")
            } else {
                "single node".to_owned()
            }),
        ),
        (
            "flush_policy".to_owned(),
            Json::Str(format!(
                "WAL sync_writes=true; {INGEST_BATCH_ROWS}-row batches; every node sealed \
                 together every {SEAL_ROWS} rows"
            )),
        ),
        ("read_mix".to_owned(), Json::Obj(mix)),
        ("failed_share".to_owned(), Json::Num(out.failed_share())),
        (
            "answers_byte_checked".to_owned(),
            Json::Num(out.checked as f64),
        ),
        (
            "failures".to_owned(),
            Json::Arr(out.failures.iter().cloned().map(Json::Str).collect()),
        ),
    ];
    let record = record
        .into_iter()
        .chain(extra)
        .chain([
            ("host_speed".to_owned(), host_speed),
            ("raw_metrics".to_owned(), raw.to_json()),
        ])
        .collect();
    println!(
        "{}",
        Json::Obj(vec![("run".to_owned(), Json::Obj(record))]).encode()
    );

    if let Some((name, _, _)) = metrics.0.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("metric {name} was not measured"));
    }
    let result = Json::Obj(vec![
        ("correct".to_owned(), Json::Bool(out.failed == 0)),
        (
            "attempted".to_owned(),
            Json::Num(out.attempted.max(1) as f64),
        ),
        ("failed".to_owned(), Json::Num(out.failed as f64)),
        ("metrics".to_owned(), metrics.to_json()),
    ]);
    println!("{}", result.encode());
    Ok(())
}

/// The untraced run: timed closed-loop load and the ingest client
/// (beside the reader on a cluster; on a single node after the timed
/// readers and the deferred oracle, beside one untimed reader), the
/// freshness check, and the end-to-end metrics. Also returns the run-record fields it measured.
fn end_to_end(
    front: &Front,
    plan: &workload::Plan,
    cluster: bool,
    seconds: f64,
    setups: &[(f64, usize)],
    out: &mut Outcome,
) -> Result<Measured, String> {
    let first_slice = speed::slice();
    let (mut load, elapsed, load_end) = if cluster {
        let (load, elapsed) = read_load(front, plan, CLIENTS - 1, true, seconds, true);
        (load, elapsed, speed::slice())
    } else {
        let (mut load, elapsed) =
            read_load(front, plan, CLIENTS, false, seconds * READ_SHARE, true);
        let load_end = speed::slice();
        check_deferred(front, &plan.reads, &mut load);
        // Ingest beside one reader, as on the cluster. The reader keeps
        // the node as busy as there; its reads are checked but not
        // timed, and the read metrics come from the phase before.
        let (mut phase, _) = read_load(front, plan, 1, true, seconds * (1.0 - READ_SHARE), false);
        phase.latencies.retain(|(k, ..)| *k == Kind::Ingest);
        phase.positions = 0;
        load.merge(phase);
        (load, elapsed, load_end)
    };
    let load_slices = first_slice..load_end + 1;
    // Read before the freshness check's reference build, which is the
    // benchmark's memory, not the system's.
    let peak_rss = peak_rss_mb();
    let ingested = load.ingested_batches.clone();
    let stale = stale_share(front, plan, &ingested, &mut load);

    let reads_in_load = load
        .latencies
        .iter()
        .filter(|(k, ..)| *k != Kind::Ingest)
        .count();
    let ok_share =
        1.0 - (out.failed + load.failed) as f64 / (out.attempted + load.attempted).max(1) as f64;
    // Every time at the reference host speed, by the probes around it
    // (`factor(slice)`); with `factor` = 1, as measured.
    let metrics = |factor: &dyn Fn(usize) -> f64| {
        let by_kind = load.by_kind(factor);
        let mut reads: Vec<f64> = by_kind
            .iter()
            .filter(|(k, _)| **k != Kind::Ingest)
            .flat_map(|(_, v)| v.iter().copied())
            .collect();
        reads.sort_by(f64::total_cmp);
        let p50 = |k: Kind| by_kind.get(&k).map_or(f64::NAN, |v| quantile(v, 0.5));
        let load_factor = load_slices.clone().map(factor).sum::<f64>() / load_slices.len() as f64;
        let round_s: f64 = load
            .round_s
            .iter()
            .map(|&(s, slice)| s * factor(slice))
            .sum();
        let visible_ms: Vec<f64> = load
            .visible_ms
            .iter()
            .map(|&(ms, slice)| ms * factor(slice))
            .collect();

        let mut m = Metrics::default();
        let setup_s: Vec<f64> = setups.iter().map(|&(s, slice)| s * factor(slice)).collect();
        m.add("setup_s", load::median(&setup_s), "s");
        m.add(
            "throughput_rps",
            reads_in_load as f64 / elapsed / load_factor,
            "1/s",
        );
        m.add("latency_p50_ms", quantile(&reads, 0.5), "ms");
        m.add("latency_p99_ms", quantile(&reads, 0.99), "ms");
        for kind in Kind::ALL.into_iter().filter(|k| *k != Kind::Ingest) {
            m.add(format!("{}_p50_ms", kind.name()), p50(kind), "ms");
        }
        m.add(
            "ingest_rows_per_s",
            (load.round_s.len() * SEAL_ROWS) as f64 / round_s,
            "rows/s",
        );
        m.add("ingest_visible_ms", load::median(&visible_ms), "ms");
        m.add("ok_share", ok_share, "share");
        m.add("fresh_answer_share", 1.0 - stale, "share");
        m.add("peak_rss_mb", peak_rss, "MB");
        m
    };
    let factors = speed::factors();
    let reference = metrics(&|s| factors[s.min(factors.len() - 1)]);
    let raw = metrics(&|_| 1.0);
    let by_kind = load.by_kind(|_| 1.0);

    let samples = Json::Obj(
        by_kind
            .iter()
            .map(|(k, v)| (k.name().to_owned(), Json::Num(v.len() as f64)))
            .chain(std::iter::once((
                "full_seal_rounds".to_owned(),
                Json::Num(load.visible_ms.len() as f64),
            )))
            .collect(),
    );
    let repeats = Json::Obj(
        workload::repeats(&plan.reads, load.positions)
            .into_iter()
            .map(|(kind, r)| {
                (
                    kind.name().to_owned(),
                    Json::Obj(vec![
                        ("drawn".to_owned(), Json::Num(r.drawn as f64)),
                        ("distinct".to_owned(), Json::Num(r.distinct as f64)),
                        ("repeat_share".to_owned(), Json::Num(r.share())),
                    ]),
                )
            })
            .collect(),
    );
    out.merge(load);
    let record = vec![
        ("stale_answer_share".to_owned(), Json::Num(stale)),
        (
            "setups_s".to_owned(),
            Json::Arr(setups.iter().map(|&(s, _)| Json::Num(s)).collect()),
        ),
        ("samples".to_owned(), samples),
        ("key_repeats".to_owned(), repeats),
    ];
    Ok((reference, raw, record))
}
