//! Closed-loop load over loopback, the ingest client, and the checks
//! that run around them.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use om_api::IngestResponse;
use om_data::{Column, Dataset};
use om_engine::{EngineConfig, OpportunityMap};
use om_server::ops::EngineBackend;

use crate::oracle::{check, in_process, send, Answer};
use crate::speed::{self, Client, Gate};
use crate::topology::Front;
use crate::workload::{Kind, Plan, Req, INGEST_BATCH_ROWS, SEAL_ROWS};

/// What one or more clients saw.
#[derive(Default)]
pub struct Outcome {
    /// Client-measured latency of every successful request, in µs, with
    /// the host-speed slice it started in ([`speed::slice`]).
    pub latencies: Vec<(Kind, f64, usize)>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Answers byte-compared with an in-process answer.
    pub checked: u64,
    /// Sampled bodies awaiting a deferred check: per stream index, each
    /// distinct body with the number of answers that carried it. The
    /// clients cycle through the stream, so this stays as small as the
    /// stream however many reads a run makes, and the benchmark's own
    /// memory does not grow `peak_rss_mb` on a faster host.
    pub sampled: BTreeMap<usize, Vec<(String, u64)>>,
    /// Seconds reader threads spent in in-process oracle calls.
    pub oracle_s: f64,
    /// Seconds reader threads spent parked for host-speed probes.
    pub parked_s: f64,
    /// Stream positions the readers drew, wrapping included.
    pub positions: usize,
    /// Per full seal round ([`SEAL_ROWS`] rows): its wall time in s,
    /// from its first post to the end of its first read after the seal,
    /// with the slice the round ended in.
    pub round_s: Vec<(f64, usize)>,
    /// Per full seal round: start of the round to the end of the first
    /// read after it, in ms, with the slice the round ended in.
    pub visible_ms: Vec<(f64, usize)>,
    /// Reads sent after seal rounds, full or not.
    pub seal_reads: u64,
    /// Indices into [`Plan::ingest`] of the accepted batches, in order.
    pub ingested_batches: Vec<usize>,
}

impl Outcome {
    pub fn merge(&mut self, other: Outcome) {
        self.latencies.extend(other.latencies);
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            self.note(f);
        }
        self.checked += other.checked;
        for (idx, bodies) in other.sampled {
            for (body, n) in bodies {
                self.sample(idx, body, n);
            }
        }
        self.oracle_s += other.oracle_s;
        self.parked_s += other.parked_s;
        self.positions += other.positions;
        self.round_s.extend(other.round_s);
        self.visible_ms.extend(other.visible_ms);
        self.seal_reads += other.seal_reads;
        self.ingested_batches.extend(other.ingested_batches);
    }

    /// Keep `n` answers carrying `body` for stream index `idx`.
    fn sample(&mut self, idx: usize, body: String, n: u64) {
        let bodies = self.sampled.entry(idx).or_default();
        match bodies.iter_mut().find(|(b, _)| *b == body) {
            Some((_, count)) => *count += n,
            None => bodies.push((body, n)),
        }
    }

    fn note(&mut self, failure: String) {
        if self.failures.len() < 8 {
            self.failures.push(failure);
        }
    }

    /// Count one answered (or unanswered) request.
    fn record(&mut self, kind: Kind, result: Result<Answer, String>, expected: Option<&str>) {
        self.attempted += 1;
        let why = match &result {
            Ok(answer) => check(kind, answer, expected),
            Err(e) => Some(format!("{}: transport: {e}", kind.name())),
        };
        if let Some(why) = why {
            self.failed += 1;
            self.note(why);
        }
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Latencies in ms per kind, each multiplied by `scale` of its
    /// slice, sorted.
    pub fn by_kind(&self, scale: impl Fn(usize) -> f64) -> BTreeMap<Kind, Vec<f64>> {
        let mut out: BTreeMap<Kind, Vec<f64>> = BTreeMap::new();
        for &(kind, us, slice) in &self.latencies {
            out.entry(kind).or_default().push(us / 1e3 * scale(slice));
        }
        for v in out.values_mut() {
            v.sort_by(f64::total_cmp);
        }
        out
    }
}

/// How sampled reads are checked against the in-process answer.
#[derive(Clone, Copy)]
pub enum Oracle<'a> {
    /// Keep the body; check after the load, while the store has not
    /// moved (single node: no seal runs during the load).
    Deferred,
    /// Check right away, and only when no seal round began or ended
    /// around both answers (`epoch` is odd while a round runs).
    Inline(&'a AtomicU64),
    /// No sampled check: the traced run's HTTP pass, whose `/metrics`
    /// deltas must count client traffic only.
    Off,
}

/// Every `ORACLE_EVERY`-th stream position is byte-checked.
pub const ORACLE_EVERY: usize = 16;

/// One closed-loop reader: send the next stream request, wait for its
/// last byte, repeat until `deadline`, parking at `gate` while a
/// host-speed probe runs.
pub fn reader(
    front: &Front,
    reads: &[Req],
    next: &AtomicUsize,
    deadline: Instant,
    oracle: Oracle<'_>,
    gate: &Gate,
) -> Outcome {
    let addr = front.addr();
    let client = gate.client();
    let mut out = Outcome::default();
    while Instant::now() < deadline {
        out.parked_s += client.pass().as_secs_f64();
        let idx = next.fetch_add(1, Ordering::Relaxed) % reads.len();
        let req = &reads[idx];
        let sampled = idx.is_multiple_of(ORACLE_EVERY);
        let epoch_before = match oracle {
            Oracle::Inline(epoch) => epoch.load(Ordering::SeqCst),
            Oracle::Deferred | Oracle::Off => 0,
        };
        let slice = speed::slice();
        let started = Instant::now();
        let result = send(addr, &req.raw);
        let us = started.elapsed().as_secs_f64() * 1e6;
        let mut expected = None;
        if let (Ok(answer), true) = (&result, sampled) {
            match oracle {
                Oracle::Deferred if answer.status == 200 => {
                    out.sample(idx, answer.body.clone(), 1);
                }
                Oracle::Deferred | Oracle::Off => {}
                Oracle::Inline(epoch) if epoch_before % 2 == 0 => {
                    let t = Instant::now();
                    let want = front.with_ops(|ops| in_process(ops, req));
                    out.oracle_s += t.elapsed().as_secs_f64();
                    if epoch.load(Ordering::SeqCst) == epoch_before {
                        expected = Some(want.body);
                    }
                }
                Oracle::Inline(_) => {}
            }
        }
        let failed_before = out.failed;
        out.checked += u64::from(expected.is_some());
        out.record(req.kind, result, expected.as_deref());
        if out.failed == failed_before {
            out.latencies.push((req.kind, us, slice));
        }
    }
    out
}

/// Run `readers` closed-loop readers over the plan's reads for
/// `seconds`, with one ingest client beside them when `ingest_beside`.
/// Sampled answers are byte-checked when `sample`. The host-speed probe
/// runs meanwhile. Returns what the clients saw and the seconds of load,
/// less the readers' mean time in the inline oracle and parked for
/// probes.
pub fn read_load(
    front: &Front,
    plan: &Plan,
    readers: usize,
    ingest_beside: bool,
    seconds: f64,
    sample: bool,
) -> (Outcome, f64) {
    let next = AtomicUsize::new(0);
    let epoch = AtomicU64::new(0);
    let oracle = match (sample, ingest_beside) {
        (false, _) => Oracle::Off,
        (true, true) => Oracle::Inline(&epoch),
        (true, false) => Oracle::Deferred,
    };
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let gate = Gate::new(readers + usize::from(ingest_beside));
    let mut total = Outcome::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..readers)
            .map(|_| s.spawn(|| reader(front, &plan.reads, &next, deadline, oracle, &gate)))
            .collect();
        let ingester = ingest_beside.then(|| {
            s.spawn(|| ingest(front, plan, Stop::At(deadline), Some(&epoch), Some(&gate)))
        });
        gate.drive(deadline);
        for h in handles {
            total.merge(h.join().expect("reader thread panicked"));
        }
        if let Some(h) = ingester {
            total.merge(h.join().expect("ingest thread panicked"));
        }
    });
    total.positions = next.load(Ordering::Relaxed);
    let elapsed =
        started.elapsed().as_secs_f64() - (total.oracle_s + total.parked_s) / readers as f64;
    (total, elapsed)
}

/// Byte-check the deferred samples against the in-process answer.
pub fn check_deferred(front: &Front, reads: &[Req], out: &mut Outcome) {
    for (idx, bodies) in std::mem::take(&mut out.sampled) {
        let want = front.with_ops(|ops| in_process(ops, &reads[idx]));
        for (body, n) in bodies {
            out.checked += n;
            let got = Answer { status: 200, body };
            if let Some(why) = check(reads[idx].kind, &got, Some(&want.body)) {
                out.failed += n;
                out.note(why);
            }
        }
    }
}

/// When the ingest client stops.
pub enum Stop {
    /// After this many seal rounds.
    Rounds(usize),
    /// At this instant.
    At(Instant),
}

/// Fewer full seal rounds than this make the ingest medians shaky.
const MIN_FULL_ROUNDS: usize = 3;

/// The ingest client: post 64-row batches; every [`SEAL_ROWS`] rows,
/// seal every node and time the first read after the round. Rows still
/// staged when it stops are sealed by one last round, so everything
/// accepted is visible when it returns; that short round is not timed.
/// With a `gate`, the client parks there between posts while a
/// host-speed probe runs, and a round's time leaves that out.
pub fn ingest(
    front: &Front,
    plan: &Plan,
    stop: Stop,
    epoch: Option<&AtomicU64>,
    gate: Option<&Gate>,
) -> Outcome {
    let addr = front.addr();
    let client = gate.map(Gate::client);
    let mut out = Outcome::default();
    let mut unsealed = 0usize;
    let mut rounds = 0usize;
    let mut round_started = Instant::now();
    let mut round_parked = Duration::ZERO;
    for i in 0.. {
        round_parked += client.as_ref().map_or(Duration::ZERO, Client::pass);
        let done = match stop {
            Stop::Rounds(n) => rounds >= n,
            Stop::At(deadline) => Instant::now() >= deadline,
        };
        if done {
            break;
        }
        let b = i % plan.ingest.len();
        let req = &plan.ingest[b];
        let slice = speed::slice();
        let t = Instant::now();
        let result = send(addr, &req.raw);
        let us = t.elapsed().as_secs_f64() * 1e6;
        let accepted = match &result {
            Ok(a) if a.status == 200 => IngestResponse::parse(&a.body)
                .map(|r| r.accepted == INGEST_BATCH_ROWS as u64)
                .unwrap_or(false),
            _ => false,
        };
        let failed_before = out.failed;
        out.record(Kind::Ingest, result, None);
        if out.failed != failed_before {
            continue;
        }
        if !accepted {
            out.failed += 1;
            out.note("ingest: batch not fully accepted".to_owned());
            continue;
        }
        out.latencies.push((Kind::Ingest, us, slice));
        out.ingested_batches.push(b);
        unsealed += INGEST_BATCH_ROWS;
        if unsealed >= SEAL_ROWS {
            let Some(visible_ms) = seal_round(front, plan, epoch, &mut out) else {
                break;
            };
            let seconds = (round_started.elapsed() - round_parked).as_secs_f64();
            let slice = speed::slice();
            out.round_s.push((seconds, slice));
            out.visible_ms.push((visible_ms, slice));
            unsealed = 0;
            rounds += 1;
            round_started = Instant::now();
            round_parked = Duration::ZERO;
        }
    }
    if unsealed > 0 {
        seal_round(front, plan, epoch, &mut out);
    }
    if matches!(stop, Stop::At(_)) && rounds < MIN_FULL_ROUNDS {
        eprintln!(
            "perfbench: warning: only {rounds} full seal round(s) of {SEAL_ROWS} rows fit; \
             the ingest medians rest on them"
        );
    }
    out
}

/// Seal every node, then read once through the front. Returns the
/// round's visibility time in ms, `None` when it failed. `epoch` is odd
/// while the round runs.
fn seal_round(
    front: &Front,
    plan: &Plan,
    epoch: Option<&AtomicU64>,
    out: &mut Outcome,
) -> Option<f64> {
    let round = Instant::now();
    if let Some(e) = epoch {
        e.fetch_add(1, Ordering::SeqCst);
    }
    let sealed = front.seal_round();
    if let Some(e) = epoch {
        e.fetch_add(1, Ordering::SeqCst);
    }
    if let Err(e) = sealed {
        out.attempted += 1;
        out.failed += 1;
        out.note(e);
        return None;
    }
    let probe = &plan.visibility_probe;
    let answer = send(front.addr(), &probe.raw);
    let visible_ms = round.elapsed().as_secs_f64() * 1e3;
    out.seal_reads += 1;
    let ok = matches!(&answer, Ok(a) if check(probe.kind, a, None).is_none());
    out.record(probe.kind, answer, None);
    ok.then_some(visible_ms)
}

/// The post-ingest freshness check: replay the plan's fixed compare and
/// drill sample through the front and byte-compare every answer with a
/// fresh single-node build over the base rows plus every ingested row.
/// Returns the share of answers that differ.
pub fn stale_share(front: &Front, plan: &Plan, ingested: &[usize], out: &mut Outcome) -> f64 {
    let fresh = match fresh_build(front.base(), plan, ingested) {
        Ok(om) => om,
        Err(e) => {
            out.attempted += 1;
            out.failed += 1;
            out.note(e);
            return 1.0;
        }
    };
    let backend = EngineBackend {
        om: &fresh,
        ingest: None,
    };
    let mut stale = 0usize;
    for req in &plan.freshness {
        let want = in_process(&backend, req);
        if let Some(why) = check(req.kind, &want, None) {
            out.attempted += 1;
            out.failed += 1;
            out.note(format!("fresh build cannot answer: {why}"));
            continue;
        }
        let result = send(front.addr(), &req.raw);
        if matches!(&result, Ok(answer) if answer.body != want.body) {
            stale += 1;
        }
        // A stale answer is reported, not failed; a broken one fails.
        out.record(req.kind, result, None);
    }
    stale as f64 / plan.freshness.len() as f64
}

fn fresh_build(base: &Dataset, plan: &Plan, ingested: &[usize]) -> Result<OpportunityMap, String> {
    let schema = base.schema();
    let mut columns: Vec<Vec<u32>> = (0..schema.n_attributes())
        .map(|a| base.categorical(a).map(<[u32]>::to_vec))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("base column: {e}"))?;
    for &b in ingested {
        for row in &plan.ingest_rows[b] {
            for (a, label) in row.iter().enumerate() {
                let id = schema.attribute(a).domain().get(label).ok_or_else(|| {
                    format!("ingested label {label:?} outside attribute {a}'s domain")
                })?;
                columns[a].push(id);
            }
        }
    }
    let ds = Dataset::from_columns(
        schema.clone(),
        columns.into_iter().map(Column::Categorical).collect(),
    )
    .map_err(|e| format!("fresh dataset: {e}"))?;
    OpportunityMap::build(ds, EngineConfig::default()).map_err(|e| format!("fresh build: {e}"))
}

/// Nearest-rank quantile of a sorted slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}
