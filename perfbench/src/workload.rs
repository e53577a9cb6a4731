//! Workloads and their seeded request streams.
//!
//! Every request body is generated from the workload seed and encoded
//! into the exact bytes sent on the wire before any timing starts; the
//! program under test only ever sees those bytes.

use std::collections::{BTreeMap, HashSet};

use om_api::{
    BatchItemRequest, BatchRequest, CompareRequest, DrillRequest, ExploreCompareBlock,
    ExploreRequest, GiRequest, IngestRequest, PathStep, SliceRequest,
};
use om_data::Dataset;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The three workloads. See `perfbench/README.md` for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    NarrowMix,
    WideDrill,
    ClusterIngest,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "narrow-mix" => Some(Self::NarrowMix),
            "wide-drill" => Some(Self::WideDrill),
            "cluster-ingest" => Some(Self::ClusterIngest),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::NarrowMix => "narrow-mix",
            Self::WideDrill => "wide-drill",
            Self::ClusterIngest => "cluster-ingest",
        }
    }

    /// The read mix: share of the read stream per request kind. The
    /// shares are assumptions of this benchmark, not measured traffic.
    ///
    /// `wide-drill` keeps drills above half of all reads, with the
    /// cheaper kinds (compare, explore, gi, slice: 40%) below them and
    /// batches (8%) above: the overall median then falls inside the
    /// drill cost mode instead of between two modes, where it would
    /// swing with the exact draw. Each cheaper kind gets 10%, so that
    /// its own median rests on enough samples in a run.
    pub fn mix(self) -> &'static [(Kind, f64)] {
        match self {
            Self::NarrowMix | Self::ClusterIngest => &[
                (Kind::Compare, 0.60),
                (Kind::Drill, 0.10),
                (Kind::Batch, 0.08),
                (Kind::Explore, 0.08),
                (Kind::Gi, 0.07),
                (Kind::Slice, 0.07),
            ],
            Self::WideDrill => &[
                (Kind::Drill, 0.52),
                (Kind::Compare, 0.10),
                (Kind::Batch, 0.08),
                (Kind::Explore, 0.10),
                (Kind::Gi, 0.10),
                (Kind::Slice, 0.10),
            ],
        }
    }
}

/// A `/v1` request kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    Compare,
    Drill,
    Batch,
    Explore,
    Gi,
    Slice,
    Ingest,
}

impl Kind {
    pub const ALL: [Kind; 7] = [
        Kind::Compare,
        Kind::Drill,
        Kind::Batch,
        Kind::Explore,
        Kind::Gi,
        Kind::Slice,
        Kind::Ingest,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Compare => "compare",
            Kind::Drill => "drill",
            Kind::Batch => "batch",
            Kind::Explore => "explore",
            Kind::Gi => "gi",
            Kind::Slice => "slice",
            Kind::Ingest => "ingest",
        }
    }

    pub fn path(self) -> &'static str {
        match self {
            Kind::Compare => "/v1/compare",
            Kind::Drill => "/v1/drill",
            Kind::Batch => "/v1/compare/batch",
            Kind::Explore => "/v1/explore",
            Kind::Gi => "/v1/gi",
            Kind::Slice => "/v1/cube/slice",
            Kind::Ingest => "/v1/ingest",
        }
    }
}

/// One request, encoded once: the JSON body and the full HTTP/1.1
/// request bytes the client writes.
#[derive(Debug, Clone)]
pub struct Req {
    pub kind: Kind,
    pub body: String,
    pub raw: Vec<u8>,
}

impl Req {
    pub fn new(kind: Kind, body: String) -> Self {
        let raw = format!(
            "POST {} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            kind.path(),
            body.len()
        )
        .into_bytes();
        Self { kind, body, raw }
    }
}

/// Rows per `/v1/ingest` batch.
pub const INGEST_BATCH_ROWS: usize = 64;
/// Ingested rows between synchronized seal rounds (as `opmap cluster`).
pub const SEAL_ROWS: usize = 4096;
/// Read requests drawn per stream; clients cycle through it.
const STREAM_LEN: usize = 8192;
/// Stream positions over which each kind's share of the mix is exact;
/// every share is a whole number of hundredths.
const KIND_BLOCK: usize = 100;
/// Distinct (comparison, path) keys `wide-drill` draws from.
const WIDE_KEYS: usize = 4096;
/// Seed of the `wide-drill` key universe.
const WIDE_KEY_SEED: u64 = 0x3d_e11;
/// Zipf exponent over the `wide-drill` key ranks.
const WIDE_ZIPF_S: f64 = 1.0;
/// Share of `wide-drill` keys with a one-step path prefix.
const WIDE_PATH_SHARE: f64 = 0.3;
/// Distinct ingest batches (four seal rounds); clients cycle through them.
const INGEST_BATCHES: usize = 4 * SEAL_ROWS / INGEST_BATCH_ROWS;
/// Compare and drill requests each in the post-ingest freshness sample.
pub const FRESHNESS_SAMPLE: usize = 16;

/// Attribute and class labels the generators draw names from.
struct Names {
    /// `(name, value labels)` of the attributes requests may name.
    attrs: Vec<(String, Vec<String>)>,
    classes: Vec<String>,
}

impl Names {
    /// The first `limit` categorical non-class attributes of `ds`.
    fn from_dataset(ds: &Dataset, limit: usize) -> Self {
        let schema = ds.schema();
        let label_of = |a: usize| -> Vec<String> {
            let attr = schema.attribute(a);
            (0..attr.cardinality() as u32)
                .map(|v| {
                    attr.domain()
                        .label(v)
                        .expect("value id in domain")
                        .to_owned()
                })
                .collect()
        };
        let attrs = (0..schema.n_attributes())
            .filter(|&a| a != schema.class_index() && ds.categorical(a).is_ok())
            .take(limit)
            .map(|a| (schema.attribute(a).name().to_owned(), label_of(a)))
            .collect();
        Self {
            attrs,
            classes: label_of(schema.class_index()),
        }
    }
}

/// A named comparison.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Spec {
    attr: usize,
    v1: usize,
    v2: usize,
    class: usize,
}

/// A drill: a comparison plus a fixed path prefix of `(attr, value)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Key {
    spec: Spec,
    path: Vec<(usize, usize)>,
}

struct Gen<'a> {
    names: &'a Names,
    rng: StdRng,
    /// Classes specs may target.
    classes: Vec<usize>,
}

impl Gen<'_> {
    /// The kinds of the stream's positions: every block of
    /// [`KIND_BLOCK`] positions holds each kind exactly at its share of
    /// `mix`, in shuffled order. A run that reads only a prefix of the
    /// stream (a few hundred requests on `wide-drill`) then gets the mix
    /// as stated, whatever the seed.
    fn kinds(&mut self, mix: &[(Kind, f64)]) -> Vec<Kind> {
        let block: Vec<Kind> = mix
            .iter()
            .flat_map(|&(kind, share)| {
                std::iter::repeat_n(kind, (share * KIND_BLOCK as f64).round() as usize)
            })
            .collect();
        debug_assert_eq!(block.len(), KIND_BLOCK);
        (0..STREAM_LEN.div_ceil(KIND_BLOCK))
            .flat_map(|_| {
                let mut b = block.clone();
                b.shuffle(&mut self.rng);
                b
            })
            .take(STREAM_LEN)
            .collect()
    }

    fn spec(&mut self) -> Spec {
        let attr = self.rng.gen_range(0..self.names.attrs.len());
        let k = self.names.attrs[attr].1.len();
        let v1 = self.rng.gen_range(0..k);
        let v2 = (v1 + self.rng.gen_range(1..k)) % k;
        let class = self.classes[self.rng.gen_range(0..self.classes.len())];
        Spec {
            attr,
            v1,
            v2,
            class,
        }
    }

    /// A condition on any attribute other than `not`.
    fn step(&mut self, not: usize) -> (usize, usize) {
        let n = self.names.attrs.len();
        let attr = (not + self.rng.gen_range(1..n)) % n;
        (attr, self.rng.gen_range(0..self.names.attrs[attr].1.len()))
    }

    fn compare(&self, s: &Spec) -> CompareRequest {
        let (name, labels) = &self.names.attrs[s.attr];
        CompareRequest {
            attr: name.clone(),
            v1: labels[s.v1].clone(),
            v2: labels[s.v2].clone(),
            class: self.names.classes[s.class].clone(),
            allow_partial: None,
        }
    }

    fn path(&self, path: &[(usize, usize)]) -> Vec<PathStep> {
        path.iter()
            .map(|&(a, v)| PathStep {
                attr: self.names.attrs[a].0.clone(),
                value: self.names.attrs[a].1[v].clone(),
            })
            .collect()
    }

    /// A `/v1/drill` body; `depth` is only legal outside batches.
    fn drill(&self, key: &Key, depth: Option<u64>) -> DrillRequest {
        let c = self.compare(&key.spec);
        DrillRequest {
            attr: c.attr,
            v1: c.v1,
            v2: c.v2,
            class: c.class,
            depth,
            min_score: None,
            path: self.path(&key.path),
        }
    }

    fn batch_drill(&self, key: &Key) -> BatchItemRequest {
        BatchItemRequest::Drill {
            req: self.drill(key, None),
            budget_ms: None,
        }
    }

    /// An explore body: the whole population, a one-condition slice,
    /// or `explore_compare` over `spec`, evenly.
    fn explore(&mut self, spec: &Spec, k: u64) -> String {
        match self.rng.gen_range(0..3u32) {
            0 => self.explore_body(Vec::new(), None, k),
            1 => {
                let step = self.step(spec.attr);
                self.explore_body(self.path(&[step]), None, k)
            }
            _ => self.explore_compare(spec, k),
        }
    }

    fn explore_compare(&self, spec: &Spec, k: u64) -> String {
        let c = self.compare(spec);
        let block = ExploreCompareBlock {
            attr: c.attr,
            v1: c.v1,
            v2: c.v2,
            class: c.class,
        };
        self.explore_body(Vec::new(), Some(block), k)
    }

    fn explore_body(
        &self,
        slice: Vec<PathStep>,
        compare: Option<ExploreCompareBlock>,
        k: u64,
    ) -> String {
        ExploreRequest {
            slice,
            k,
            max_conditions: None,
            budget_ms: None,
            compare,
        }
        .encode()
    }

    fn slice(&mut self) -> String {
        let attr = self.rng.gen_range(0..self.names.attrs.len());
        let by = self
            .rng
            .gen_bool(0.5)
            .then(|| self.names.attrs[self.step(attr).0].0.clone());
        SliceRequest {
            attr: self.names.attrs[attr].0.clone(),
            by,
        }
        .encode()
    }
}

/// The seeded inputs of one workload run.
pub struct Plan {
    /// The read stream the clients cycle through.
    pub reads: Vec<Req>,
    /// `/v1/ingest` batches, [`INGEST_BATCH_ROWS`] rows each, in order.
    pub ingest: Vec<Req>,
    /// The rows of each entry of `ingest`, for the fresh rebuild.
    pub ingest_rows: Vec<Vec<Vec<String>>>,
    /// The read that follows every seal round (ingest visibility).
    pub visibility_probe: Req,
    /// Compares and drills replayed after the final seal round and
    /// byte-compared with a fresh build.
    pub freshness: Vec<Req>,
}

/// Build the read side of the plan for `workload`, naming attributes and
/// values of `ds`; [`Plan::add_ingest`] adds the ingest batches.
pub fn plan(workload: Workload, seed: u64, ds: &Dataset) -> Plan {
    let names = match workload {
        // The five low-cardinality attributes of the paper scenario.
        Workload::NarrowMix | Workload::ClusterIngest => Names::from_dataset(ds, 5),
        Workload::WideDrill => Names::from_dataset(ds, usize::MAX),
    };
    let classes = match workload {
        Workload::NarrowMix | Workload::ClusterIngest => (0..names.classes.len()).collect(),
        // Class 0 is the 95% majority of the scale-up data; comparisons
        // target the minority classes.
        Workload::WideDrill => (1..names.classes.len()).collect(),
    };
    let mut g = Gen {
        names: &names,
        rng: StdRng::seed_from_u64(seed),
        classes,
    };
    let reads = match workload {
        Workload::NarrowMix | Workload::ClusterIngest => narrow_reads(&mut g, workload.mix()),
        Workload::WideDrill => wide_reads(&mut g, workload.mix()),
    };

    let mut fresh = Gen {
        names: &names,
        rng: StdRng::seed_from_u64(seed ^ 0x5eed_f2e5),
        classes: g.classes.clone(),
    };
    let mut freshness = Vec::with_capacity(2 * FRESHNESS_SAMPLE);
    for _ in 0..FRESHNESS_SAMPLE {
        let spec = fresh.spec();
        freshness.push(Req::new(Kind::Compare, fresh.compare(&spec).encode()));
        let key = Key {
            spec,
            path: Vec::new(),
        };
        freshness.push(Req::new(Kind::Drill, fresh.drill(&key, Some(2)).encode()));
    }
    let probe_spec = fresh.spec();
    let visibility_probe = Req::new(Kind::Compare, fresh.compare(&probe_spec).encode());

    Plan {
        reads,
        ingest: Vec::new(),
        ingest_rows: Vec::new(),
        visibility_probe,
        freshness,
    }
}

impl Plan {
    /// Fill the `/v1/ingest` batches: rows sampled by `seed` from the
    /// engine's discretized base dataset `base`, rendered as the labels
    /// a client would send.
    pub fn add_ingest(&mut self, seed: u64, base: &Dataset) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1a9e_57ed);
        let schema = base.schema();
        let columns: Vec<&[u32]> = (0..schema.n_attributes())
            .map(|a| {
                base.categorical(a)
                    .expect("engine datasets are fully discretized")
            })
            .collect();
        self.ingest_rows = (0..INGEST_BATCHES)
            .map(|_| {
                (0..INGEST_BATCH_ROWS)
                    .map(|_| {
                        let r = rng.gen_range(0..base.n_rows());
                        columns
                            .iter()
                            .enumerate()
                            .map(|(a, col)| {
                                let domain = schema.attribute(a).domain();
                                domain.label(col[r]).expect("value id in domain").to_owned()
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();
        self.ingest = self
            .ingest_rows
            .iter()
            .map(|rows| Req::new(Kind::Ingest, IngestRequest { rows: rows.clone() }.encode()))
            .collect();
    }
}

fn gi_body() -> String {
    GiRequest {
        top: Some(10),
        allow_partial: None,
    }
    .encode()
}

fn narrow_reads(g: &mut Gen<'_>, mix: &[(Kind, f64)]) -> Vec<Req> {
    g.kinds(mix)
        .into_iter()
        .map(|kind| {
            let spec = g.spec();
            let root = Key {
                spec: spec.clone(),
                path: Vec::new(),
            };
            let body = match kind {
                Kind::Compare => g.compare(&spec).encode(),
                Kind::Drill => g.drill(&root, Some(2)).encode(),
                // One shape: both directions of the comparison and its
                // root drill. Batches of 2 to 4 of these items put the
                // p50 on the slope between the compare-only and the
                // drill-carrying batches, where it swung with the draw.
                Kind::Batch => {
                    let mut swapped = spec.clone();
                    std::mem::swap(&mut swapped.v1, &mut swapped.v2);
                    let items = vec![
                        BatchItemRequest::Compare {
                            req: g.compare(&spec),
                            budget_ms: None,
                        },
                        BatchItemRequest::Compare {
                            req: g.compare(&swapped),
                            budget_ms: None,
                        },
                        g.batch_drill(&root),
                    ];
                    BatchRequest { items }.encode()
                }
                Kind::Explore => {
                    let k = if g.rng.gen_bool(0.5) { 4 } else { 8 };
                    g.explore(&spec, k)
                }
                Kind::Gi => gi_body(),
                Kind::Slice => g.slice(),
                Kind::Ingest => unreachable!("ingest is not a read kind"),
            };
            Req::new(kind, body)
        })
        .collect()
}

/// `wide-drill`: drills, compares, batches and explores name keys drawn
/// Zipf-skewed from [`WIDE_KEYS`] distinct (comparison, path) keys, so
/// some keys repeat and a long tail does not. The universe size, the
/// exponent and the path share are assumptions, not fitted to any trace;
/// the run record reports the repeat share a run actually drew.
fn wide_reads(g: &mut Gen<'_>, mix: &[(Kind, f64)]) -> Vec<Req> {
    // The key universe and its popularity ranks are part of the
    // workload, like the dataset: fixed, so every seed's stream
    // draws from the same hot keys.
    let mut universe = Gen {
        names: g.names,
        rng: StdRng::seed_from_u64(WIDE_KEY_SEED),
        classes: g.classes.clone(),
    };
    let mut seen = HashSet::with_capacity(WIDE_KEYS);
    let mut keys = Vec::with_capacity(WIDE_KEYS);
    while keys.len() < WIDE_KEYS {
        let spec = universe.spec();
        let path = if universe.rng.gen_bool(WIDE_PATH_SHARE) {
            vec![universe.step(spec.attr)]
        } else {
            Vec::new()
        };
        let key = Key { spec, path };
        if seen.insert(key.clone()) {
            keys.push(key);
        }
    }
    let mut cumulative = Vec::with_capacity(WIDE_KEYS);
    let mut total = 0.0;
    for rank in 1..=WIDE_KEYS {
        total += 1.0 / (rank as f64).powf(WIDE_ZIPF_S);
        cumulative.push(total);
    }
    let draw = |rng: &mut StdRng| -> usize {
        let u = rng.gen::<f64>() * total;
        cumulative.partition_point(|&c| c <= u).min(WIDE_KEYS - 1)
    };

    g.kinds(mix)
        .into_iter()
        .map(|kind| {
            let key = keys[draw(&mut g.rng)].clone();
            let body = match kind {
                Kind::Compare => g.compare(&key.spec).encode(),
                Kind::Drill => g.drill(&key, Some(2)).encode(),
                Kind::Batch => {
                    // Drills sharing the key's prefix, one with a
                    // further step: the batch executor's shared-prefix
                    // case.
                    let mut longer = key.clone();
                    longer.path.push(g.step(key.spec.attr));
                    if longer.path.len() == 2 && longer.path[0].0 == longer.path[1].0 {
                        longer.path.pop();
                    }
                    let root = Key {
                        spec: key.spec.clone(),
                        path: Vec::new(),
                    };
                    let items = vec![
                        g.batch_drill(&root),
                        g.batch_drill(&key),
                        g.batch_drill(&longer),
                    ];
                    BatchRequest { items }.encode()
                }
                // Always explore_compare: its two-sided shared scan is
                // the kernel path `wide-drill` exists to load.
                Kind::Explore => g.explore_compare(&key.spec, 8),
                Kind::Gi => gi_body(),
                Kind::Slice => g.slice(),
                Kind::Ingest => unreachable!("ingest is not a read kind"),
            };
            Req::new(kind, body)
        })
        .collect()
}

/// How often one kind's bodies repeat over the stream positions a run
/// drew.
#[derive(Default)]
pub struct Repeats {
    pub drawn: usize,
    pub distinct: usize,
}

impl Repeats {
    /// Share of drawn requests whose body an earlier one already had.
    pub fn share(&self) -> f64 {
        (self.drawn - self.distinct) as f64 / self.drawn.max(1) as f64
    }
}

/// Per read kind, the bodies the first `positions` stream positions
/// carried (wrapping round the stream as the clients do). A drill body
/// is its key (comparison, path, depth); a compare body its comparison.
pub fn repeats(reads: &[Req], positions: usize) -> BTreeMap<Kind, Repeats> {
    let mut seen: BTreeMap<Kind, HashSet<&str>> = BTreeMap::new();
    let mut out: BTreeMap<Kind, Repeats> = BTreeMap::new();
    for req in reads.iter().cycle().take(positions) {
        out.entry(req.kind).or_default().drawn += 1;
        seen.entry(req.kind).or_default().insert(&req.body);
    }
    for (kind, bodies) in seen {
        out.entry(kind).or_default().distinct = bodies.len();
    }
    out
}
