//! Shared plumbing: command-line arguments, generated inputs, statistics,
//! the result line and run metadata.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use brepartition::prelude::*;

/// Neighbours per query in every workload.
pub const K: usize = 10;
/// Page size of every index's disk image.
pub const PAGE_SIZE: usize = 8 * 1024;
/// Leaf capacity of every BB-tree.
pub const LEAF_CAPACITY: usize = 32;
/// Relative magnitude of the noise that turns data points into queries.
pub const QUERY_JITTER: f64 = 0.02;
/// The divergence every workload searches under.
pub const KIND: DivergenceKind = DivergenceKind::ItakuraSaito;
/// Worker (or dispatch) threads that put load on the index.
pub const LOAD_THREADS: usize = 2;

/// Parsed command line: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse() -> std::result::Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(format!("--seconds must be positive, got {value}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                    })
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
        })
    }
}

/// The index spec every workload starts from: BP under Itakura–Saito,
/// `m = d/7`, leaf capacity 32, 8 KiB pages.
pub fn base_spec(dim: usize) -> IndexSpec {
    IndexSpec::brepartition(KIND)
        .with_partitions((dim / 7).max(1))
        .with_leaf_capacity(LEAF_CAPACITY)
        .with_page_size(PAGE_SIZE)
}

/// Seed of every workload's corpus. The corpus is fixed so that `--seed`
/// varies the traffic (queries, inserts, arrivals) and not the data set:
/// the cluster layout alone moves query cost by up to 40 % between corpus
/// seeds, which would swamp the changes the benchmark is meant to show.
pub const CORPUS_SEED: u64 = 2024;

/// The `HierarchicalSpec` corpus of `n` points in `dim` dimensions.
pub fn corpus(n: usize, dim: usize) -> DenseDataset {
    HierarchicalSpec {
        n,
        dim,
        clusters: (n / 100).clamp(8, 32),
        blocks: (dim / 4).max(2),
        seed: CORPUS_SEED,
        ..Default::default()
    }
    .generate()
}

/// `count` queries drawn from `seed`, each a corpus point perturbed by 2 %.
pub fn queries(data: &DenseDataset, count: usize, seed: u64) -> Vec<Vec<f64>> {
    QueryWorkload::perturbed_from(data, KIND, count, QUERY_JITTER, seed ^ 0x9E37_79B9)
        .iter()
        .map(|q| q.to_vec())
        .collect()
}

/// Rows for inserts: new points near corpus points, drawn from `seed`
/// independently of the queries.
pub fn insert_rows(data: &DenseDataset, count: usize, seed: u64) -> Vec<Vec<f64>> {
    queries(data, count.max(1), seed ^ 0xA5A5_5A5A)
}

/// Brute-force neighbour ids of each query, best first.
pub fn brute_force(data: &DenseDataset, queries: &[Vec<f64>]) -> Vec<Vec<u32>> {
    let flat: Vec<f64> = queries.iter().flatten().copied().collect();
    let qs = DenseDataset::from_flat(data.dim(), flat).expect("queries share the data dimension");
    ground_truth_knn(KIND, data, &qs, K, LOAD_THREADS)
        .results
        .into_iter()
        .map(|list| list.into_iter().map(|(id, _)| id.0).collect())
        .collect()
}

/// Correctness tally: every checked answer adds one attempt; an error or
/// an answer that differs from brute force adds one failure.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub checked: u64,
    pub recall_sum: f64,
}

impl Tally {
    /// Compare one answer with its brute-force ids, id for id.
    pub fn check(&mut self, answer: &[u32], truth: &[u32]) {
        self.checked += 1;
        let hits = answer.iter().filter(|id| truth.contains(id)).count();
        self.recall_sum += if truth.is_empty() { 1.0 } else { hits as f64 / truth.len() as f64 };
        if answer != truth {
            self.failed += 1;
        }
    }

    pub fn recall(&self) -> f64 {
        if self.checked == 0 {
            0.0
        } else {
            self.recall_sum / self.checked as f64
        }
    }

    pub fn success_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            1.0 - self.failed as f64 / self.attempted as f64
        }
    }
}

/// Ids of a façade answer.
pub fn ids(neighbors: &[(PointId, f64)]) -> Vec<u32> {
    neighbors.iter().map(|(id, _)| id.0).collect()
}

/// Time one call.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let started = Instant::now();
    let r = f();
    (r, started.elapsed())
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Nearest-rank percentile of `values` (0 when empty).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let mut total = 0;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                total += dir_bytes(&path);
            } else if let Ok(meta) = entry.metadata() {
                total += meta.len();
            }
        }
    }
    total
}

/// A scratch directory inside the working directory, removed on drop.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    pub fn new(workload: &str, seed: u64) -> WorkDir {
        let path =
            PathBuf::from(".bench_work").join(format!("{workload}-{seed}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create the benchmark's work directory");
        WorkDir { path }
    }

    pub fn join(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Named metric values in output order.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<String, (f64, &'static str)>,
}

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.values.insert(name.to_string(), (value, unit));
    }

    /// The same metrics at the reference machine's speed (see
    /// [`Reference`]): times multiply by `speed`, rates divide by it.
    pub fn at_reference_speed(&self, speed: f64) -> Metrics {
        let values = self
            .values
            .iter()
            .map(|(name, &(value, unit))| {
                let scaled = match unit {
                    "s" | "ms" => value * speed,
                    "1/s" => value / speed,
                    _ => value,
                };
                (name.clone(), (scaled, unit))
            })
            .collect();
        Metrics { values }
    }

    /// `name=value unit` pairs, for the run metadata.
    pub fn describe(&self) -> String {
        let pairs: Vec<String> = self
            .values
            .iter()
            .map(|(name, (value, unit))| format!("{name}={} {unit}", json_number(*value)))
            .collect();
        pairs.join(", ")
    }

    pub fn all_finite(&self) -> bool {
        self.values.values().all(|v| v.0.is_finite())
    }

    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .values
            .iter()
            .map(|(name, (value, unit))| {
                format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(*value))
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A JSON number; a non-finite value, which no metric should produce,
/// prints as 0 and marks the result incorrect (see `Metrics::all_finite`).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

pub fn json_string(s: &str) -> String {
    let escaped: String = s
        .chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}

/// What a workload hands back to `main`.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Workload parameters recorded in the run metadata.
    pub params: Vec<(&'static str, String)>,
}

/// The machine and toolchain facts a result depends on.
pub fn metadata(args: &Args, params: &[(&'static str, String)]) -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown", str::trim)
        .to_string();
    let flags_line = cpuinfo.lines().find(|l| l.starts_with("flags")).unwrap_or("");
    let flags: Vec<&str> = ["avx2", "fma", "avx512f"]
        .into_iter()
        .filter(|f| flags_line.split_whitespace().any(|w| w == *f))
        .collect();
    let command_line = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut fields = vec![
        ("workload".to_string(), json_string(&args.workload)),
        ("seed".to_string(), args.seed.to_string()),
        ("seconds".to_string(), json_number(args.seconds)),
        ("trace".to_string(), u8::from(args.trace).to_string()),
        ("nproc".to_string(), nproc.to_string()),
        ("cpu".to_string(), json_string(&model)),
        ("cpu_flags".to_string(), json_string(&flags.join(","))),
        ("rustc".to_string(), json_string(&command_line("rustc", &["--version"]))),
        ("commit".to_string(), json_string(&command_line("git", &["rev-parse", "HEAD"]))),
    ];
    fields.extend(params.iter().map(|(k, v)| (k.to_string(), json_string(v))));
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{\"meta\": {{{}}}}}", body.join(", "))
}

/// Fastest time of one reference unit on the reference machine (the
/// 2-core Xeon of `README.md`), in seconds.
pub const REFERENCE_UNIT_S: f64 = 2.8e-3;
/// Rows of the reference matrix, and rows one unit scores per thread.
const REFERENCE_ROWS: usize = 20_000;
const REFERENCE_UNIT_ROWS: usize = 2_500;
const REFERENCE_DIM: usize = 100;

/// The machine's speed, measured with a fixed piece of work of the
/// benchmark's own: Itakura–Saito terms of rows gathered in a fixed random
/// order from a 16 MB matrix, which shares no code with the program.
///
/// The other tenants of a shared machine move its speed by 30 % and more
/// over minutes, for every program alike. Reference units run between the
/// measured calls, on one thread beside single queries and on two beside
/// batch calls, so that they meet the same load at the same moments. Like
/// the measured calls, each unit keeps its fastest pass.
pub struct Reference {
    rows: Vec<f64>,
    order: Vec<u32>,
    query: Vec<f64>,
    /// Fastest time of each slot of a pass, over the passes.
    best: Vec<f64>,
    /// The next slot of the current pass.
    next: usize,
}

impl Reference {
    pub fn new() -> Reference {
        let mut state: u64 = 0x005E_ED0F_BE7C;
        let mut uniform = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let rows = (0..REFERENCE_ROWS * REFERENCE_DIM).map(|_| 0.5 + uniform()).collect();
        let query = (0..REFERENCE_DIM).map(|_| 0.5 + uniform()).collect();
        let mut order: Vec<u32> = (0..REFERENCE_ROWS as u32).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, (uniform() * (i + 1) as f64) as usize);
        }
        Reference { rows, order, query, best: Vec::new(), next: 0 }
    }

    /// Begin a pass: its units fill the slots from the first again.
    pub fn start_pass(&mut self) {
        self.next = 0;
    }

    /// Run the next unit of the pass on `threads` threads (1 or 2) at
    /// once and keep the slot's fastest time.
    pub fn tick(&mut self, threads: usize) {
        let slot = self.next;
        self.next += 1;
        if self.best.len() <= slot {
            self.best.push(f64::INFINITY);
        }
        let start = slot * REFERENCE_UNIT_ROWS;
        let this = &*self;
        let started = Instant::now();
        if threads > 1 {
            std::thread::scope(|scope| {
                let other =
                    scope.spawn(|| std::hint::black_box(this.unit(start + REFERENCE_ROWS / 2)));
                std::hint::black_box(this.unit(start));
                other.join().expect("reference thread panicked");
            });
        } else {
            std::hint::black_box(this.unit(start));
        }
        let t = started.elapsed().as_secs_f64();
        self.best[slot] = self.best[slot].min(t);
    }

    fn unit(&self, start: usize) -> f64 {
        let mut sum = 0.0;
        for k in 0..REFERENCE_UNIT_ROWS {
            let i = self.order[(start + k) % REFERENCE_ROWS] as usize;
            let row = &self.rows[i * REFERENCE_DIM..(i + 1) * REFERENCE_DIM];
            for (x, q) in row.iter().zip(&self.query) {
                let r = x / q;
                sum += r - r.ln() - 1.0;
            }
        }
        sum
    }

    /// This machine's speed now over the reference machine's: above 1
    /// when faster. Times at the reference speed are the measured ones
    /// multiplied by it, rates divided.
    pub fn speed(&self) -> f64 {
        if self.best.is_empty() {
            return 1.0;
        }
        self.best.len() as f64 * REFERENCE_UNIT_S / self.best.iter().sum::<f64>()
    }
}
