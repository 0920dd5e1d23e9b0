//! The open-loop workload `serve-churn`: Poisson arrivals of queries,
//! inserts and deletes against one index that folds its delta back in on
//! a background worker.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use brepartition::prelude::*;
use brepartition_core::BrePartitionIndex;
use loadgen::oracle::{truth_at_version, BaseNeighbors};
use loadgen::{
    delete_count, insert_count, operation_stream, run_open_loop_concurrent, ConcurrentServeTarget,
    OpKind, OpMix, Operation, RunOutcome, RunnerConfig, Schedule,
};

use crate::batch::{self, Target, TRACED};
use crate::common::*;
use crate::trace::SpanLog;

const N: usize = 10_000;
const DIM: usize = 32;
/// Queries in the pool arrivals draw from.
const POOL: usize = 2048;
/// Compaction triggers: fold once the delta or the tombstones reach this
/// share of the index.
const DEBT_RATIO: f64 = 0.02;
/// Query, insert and delete weights of the arrival stream.
const MIX: (u32, u32, u32) = (85, 10, 5);
/// The ladder of offered loads, in operations per second.
const RATES: [f64; 4] = [100.0, 200.0, 400.0, 3200.0];
/// The rate `query_p50_ms` and `query_p95_ms` are read at.
const NOMINAL: f64 = 200.0;
/// Query p99 a ladder rate must meet to count as sustained.
const P99_LIMIT_MS: f64 = 200.0;
/// Share of its own arrival schedule a ladder rate must complete in time.
const MIN_ACHIEVED: f64 = 0.97;
/// Inserts that open each serving run, unrecorded: 85 % of the delta
/// that triggers a fold, so the first fold starts about 300 operations
/// into the recorded stream.
const PREFILL: usize = (DEBT_RATIO * N as f64 * 0.85) as usize;
/// Recorded operations per serving run, each run on a freshly built
/// index. The fold episode (the worker folds twice back to back) ends
/// within them at every rate up to 400 ops/s, and the next fold needs
/// another 1 500 or more operations: every run holds exactly one episode.
/// A window measured in seconds would hold one or two by chance, and its
/// p99 with it. Faster rates record `RUN_SECONDS` of arrivals instead, so
/// that their run still spans a whole fold episode.
const RUN_OPS: usize = 1000;
const RUN_SECONDS: f64 = 2.0;

/// Recorded operations of one run at `rate`.
fn run_ops(rate: f64) -> usize {
    RUN_OPS.max((rate * RUN_SECONDS) as usize)
}
/// Every this many stream positions, a query's answer is checked. A
/// checked query holds the load generator's mutation ledger while it
/// runs, so writes behind it wait: sampling stays sparse to keep that
/// wait out of the write latency.
const SAMPLE_EVERY: usize = 32;
/// Reference units of each kind (two threads, one thread) just before and
/// just after every serving run; see `Reference`.
const REFERENCE_UNITS: usize = 8;
fn measure_speed(reference: &mut Reference) {
    for _ in 0..REFERENCE_UNITS {
        reference.tick(LOAD_THREADS);
        reference.tick(1);
    }
}

/// Fewest replays of the nominal rate's arrival stream, each on a fresh
/// index; every operation keeps its fastest replay (see `Rung::fastest`).
/// A run makes as many replays as `--seconds` holds, rounded up.
const MIN_REPLAYS: usize = 2;

fn spec() -> IndexSpec {
    base_spec(DIM).with_background_compaction(true).with_compaction_ratios(DEBT_RATIO, DEBT_RATIO)
}

/// The façade behind the load generator. Failures and panics are counted,
/// never propagated, so one bad operation does not end the run.
struct ChurnTarget {
    index: Index,
    errors: AtomicU64,
    /// Per-query service time in ms, recorded only in a traced run.
    service_ms: Option<Mutex<Vec<f64>>>,
}

impl ChurnTarget {
    fn guarded<R>(&self, f: impl FnOnce() -> Result<R>) -> Option<R> {
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(r)) => Some(r),
            _ => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }
}

impl ConcurrentServeTarget for ChurnTarget {
    fn query(&self, query: &[f64], k: usize) -> Vec<u64> {
        let started = Instant::now();
        let answer = self.guarded(|| self.index.query(&QueryRequest::new(query, k)));
        if let Some(service) = &self.service_ms {
            let ms = started.elapsed().as_secs_f64() * 1e3;
            service.lock().expect("service log lock poisoned").push(ms);
        }
        answer
            .map_or_else(Vec::new, |o| o.neighbors.iter().map(|(id, _)| u64::from(id.0)).collect())
    }

    fn insert(&self, row: &[f64]) -> u64 {
        self.guarded(|| self.index.insert(row)).map_or(u64::MAX, |id| u64::from(id.0))
    }

    fn delete(&self, id: u64) -> bool {
        self.guarded(|| self.index.delete(PointId(id as u32))).unwrap_or(false)
    }
}

/// One ladder rate's result.
struct Rung {
    rate: f64,
    query_ms: Vec<f64>,
    write_ms: Vec<f64>,
    achieved_ops: f64,
    offered_ops: f64,
    /// Completed queries per second.
    query_rate: f64,
    /// The served index and its counters; dropped (which waits for any
    /// running fold) once the rate's figures are taken.
    target: Option<ChurnTarget>,
    wall_s: f64,
    compactions: u64,
    compaction_s: f64,
}

impl Rung {
    fn query_p99(&self) -> f64 {
        percentile(&self.query_ms, 99.0)
    }

    /// Combine two replays of the same arrivals: each recorded operation
    /// keeps the smaller of its two latencies, which drops the stalls a
    /// shared machine puts into one replay and not the other, and keeps
    /// the queueing the arrivals themselves cause, which both replays
    /// share.
    fn fastest(mut self, replay: Rung) -> Rung {
        let keep_min = |mine: &mut Vec<f64>, theirs: Vec<f64>| {
            assert_eq!(mine.len(), theirs.len(), "replays record the same operations");
            mine.iter_mut().zip(theirs).for_each(|(a, b)| *a = a.min(b));
        };
        keep_min(&mut self.query_ms, replay.query_ms);
        keep_min(&mut self.write_ms, replay.write_ms);
        self.achieved_ops = self.achieved_ops.min(replay.achieved_ops);
        self.query_rate = self.query_rate.min(replay.query_rate);
        self.wall_s += replay.wall_s;
        self.compactions += replay.compactions;
        self.compaction_s += replay.compaction_s;
        self
    }

    /// The rate's query p99 meets the limit and the run kept pace with its
    /// own arrival schedule (the Poisson draw's offered rate, so that the
    /// draw's own spread is not mistaken for a backlog).
    fn sustained(&self) -> bool {
        self.query_p99() <= P99_LIMIT_MS && self.achieved_ops >= MIN_ACHIEVED * self.offered_ops
    }
}

struct Inputs {
    data: DenseDataset,
    pool: Vec<Vec<f64>>,
    inserts: Vec<Vec<f64>>,
}

/// Serve one run of Poisson arrivals at `rate` against `index` and check
/// every sampled answer against the oracle at the version it ran under.
fn serve(
    inputs: &Inputs,
    index: Index,
    rate: f64,
    seed: u64,
    record_service: bool,
    tally: &mut Tally,
) -> Rung {
    let mix = OpMix::new(MIX.0, MIX.1, MIX.2);
    let mut ops: Vec<Operation> =
        (0..PREFILL).map(|row_index| Operation::Insert { row_index }).collect();
    ops.extend(operation_stream(seed, mix, run_ops(rate), inputs.pool.len()).into_iter().map(
        |op| match op {
            Operation::Insert { row_index } => Operation::Insert { row_index: row_index + PREFILL },
            other => other,
        },
    ));
    assert!(insert_count(&ops) <= inputs.inserts.len(), "insert pool too small");
    let schedule = Schedule::poisson(seed ^ 0x5EED, rate, ops.len());
    let config = RunnerConfig {
        k: K,
        dispatch_threads: LOAD_THREADS,
        warmup_ops: PREFILL,
        sample_every: SAMPLE_EVERY,
        initial_live: (0..N as u64).collect(),
    };
    let target = ChurnTarget {
        index,
        errors: AtomicU64::new(0),
        service_ms: record_service.then(|| Mutex::new(Vec::new())),
    };
    let (folds0, nanos0) = (target.index.compactions(), target.index.compaction_nanos());
    let (target, run): (ChurnTarget, RunOutcome) =
        run_open_loop_concurrent(target, &inputs.pool, &inputs.inserts, &schedule, &ops, &config);

    tally.attempted += ops.len() as u64;
    tally.failed += target.errors.load(Ordering::Relaxed);
    check_samples(inputs, &run, delete_count(&ops), tally);

    let ms = |kind: OpKind| -> Vec<f64> {
        run.records.iter().filter(|r| r.kind == kind).map(|r| r.latency_ns as f64 / 1e6).collect()
    };
    let mut write_ms = ms(OpKind::Insert);
    write_ms.extend(ms(OpKind::Delete));
    let query_ms = ms(OpKind::Query);
    let wall_s = run.wall_ns as f64 / 1e9;
    let query_rate = query_ms.len() as f64 / wall_s;
    Rung {
        rate,
        query_ms,
        write_ms,
        achieved_ops: run.achieved_qps(),
        offered_ops: offered(&run),
        query_rate,
        wall_s,
        compactions: target.index.compactions() - folds0,
        compaction_s: (target.index.compaction_nanos() - nanos0) as f64 / 1e9,
        target: Some(target),
    }
}

/// Arrivals per second the schedule offered over the recorded operations.
fn offered(run: &RunOutcome) -> f64 {
    match (run.records.first(), run.records.last()) {
        (Some(first), Some(last)) if last.intended_ns > first.intended_ns => {
            (run.records.len() - 1) as f64 / ((last.intended_ns - first.intended_ns) as f64 / 1e9)
        }
        _ => 0.0,
    }
}

/// Compare every sampled answer, id for id, with the exact answer at the
/// version the query ran under.
fn check_samples(inputs: &Inputs, run: &RunOutcome, deletes: usize, tally: &mut Tally) {
    let depth = K + deletes;
    let mut base: HashMap<usize, BaseNeighbors> = HashMap::new();
    let dist = |q: &[f64], x: &[f64]| KIND.divergence(x, q);
    for sample in &run.samples {
        let query = &inputs.pool[sample.query_index];
        let base = base.entry(sample.query_index).or_insert_with(|| {
            let mut scored: Vec<(u64, f64)> = (0..inputs.data.len())
                .map(|i| (i as u64, KIND.divergence(inputs.data.row(i), query)))
                .collect();
            scored.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
            scored.truncate(depth);
            BaseNeighbors { neighbors: scored }
        });
        let truth = truth_at_version(sample, base, query, &inputs.inserts, &run.log, &dist, K);
        let as_u32 = |v: &[u64]| v.iter().map(|&id| id as u32).collect::<Vec<u32>>();
        tally.check(&as_u32(&sample.answer), &as_u32(&truth));
    }
}

fn build(inputs: &Inputs) -> (Index, f64) {
    let (index, t) = timed(|| Index::build(&spec(), &inputs.data).expect("index build"));
    (index, t.as_secs_f64())
}

pub fn run(args: &Args) -> RunResult {
    let data = corpus(N, DIM);
    let inputs = Inputs {
        pool: queries(&data, POOL, args.seed),
        inserts: insert_rows(&data, PREFILL + run_ops(RATES[RATES.len() - 1]) / 5, args.seed),
        data,
    };
    let work = WorkDir::new(&args.workload, args.seed);
    let replay_seconds = (PREFILL + RUN_OPS) as f64 / NOMINAL;
    let nominal_replays = ((args.seconds / replay_seconds).ceil() as usize).max(MIN_REPLAYS);
    let mut params = vec![
        ("n", N.to_string()),
        ("d", DIM.to_string()),
        ("k", K.to_string()),
        ("m", (DIM / 7).to_string()),
        ("shards", "1".to_string()),
        ("mix", format!("{}/{}/{}", MIX.0, MIX.1, MIX.2)),
        ("rates", format!("{RATES:?}")),
        ("nominal_rate", NOMINAL.to_string()),
        ("p99_limit_ms", P99_LIMIT_MS.to_string()),
        ("debt_ratio", DEBT_RATIO.to_string()),
        ("run_ops", RUN_OPS.to_string()),
        ("dispatchers", LOAD_THREADS.to_string()),
    ];
    if args.trace {
        return traced(args, &inputs, &work, params);
    }

    // Every serving run starts from a fresh build of the corpus; each
    // build is one set-up.
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    let mut reference = Reference::new();

    // One ladder rate: one arrival stream, served `nominal_replays` times
    // at the nominal rate and once elsewhere, each time on a fresh index,
    // and combined by `Rung::fastest`. The first nominal index is saved,
    // delta log and all, for the restart measurement: one open after each
    // later serving run, so that the opens spread over the run.
    let restart = work.join("saved");
    let mut opens = Vec::new();
    let mut serve_rate = |i: usize, tally: &mut Tally| -> Rung {
        let replays = if RATES[i] == NOMINAL { nominal_replays } else { 1 };
        let seed = args.seed.wrapping_mul(131).wrapping_add(i as u64);
        let mut fastest: Option<Rung> = None;
        for replay in 0..replays {
            // The machine's speed, measured on both sides of each serving
            // run.
            reference.start_pass();
            measure_speed(&mut reference);
            let (index, setup) = build(&inputs);
            setups.push(setup);
            let mut rung = serve(&inputs, index, RATES[i], seed, false, tally);
            if RATES[i] == NOMINAL && replay == 0 {
                let index = &rung.target.as_ref().expect("the served index").index;
                index.save(&restart).expect("index save");
            }
            // Dropping the index waits for a fold still in flight, so
            // the next build does not share the processor with it.
            drop(rung.target.take());
            measure_speed(&mut reference);
            if restart.exists() {
                opens.push(timed(|| Index::open(&restart).expect("index open")).1.as_secs_f64());
            }
            fastest = Some(match fastest {
                None => rung,
                Some(f) => f.fastest(rung),
            });
        }
        fastest.expect("at least one replay")
    };

    // The ladder. The rate above the nominal one runs first: it is a
    // ladder rate, and it warms the process (heap growth, first folds),
    // which otherwise doubles the p99 of the first runs. Then the nominal
    // rate; then upwards while rates are sustained, or downwards from the
    // nominal rate if it is not.
    let nominal_at = RATES.iter().position(|&r| r == NOMINAL).expect("nominal rate on the ladder");
    let above = serve_rate(nominal_at + 1, &mut tally);
    let nominal = serve_rate(nominal_at, &mut tally);
    let mut next = if !nominal.sustained() {
        nominal_at.checked_sub(1)
    } else if above.sustained() {
        (nominal_at + 2 < RATES.len()).then_some(nominal_at + 2)
    } else {
        None
    };
    let mut rungs = vec![above];
    while let Some(i) = next {
        let rung = serve_rate(i, &mut tally);
        next = match (rung.sustained(), i > nominal_at) {
            (true, true) => (i + 1 < RATES.len()).then_some(i + 1),
            (false, false) => i.checked_sub(1),
            _ => None,
        };
        rungs.push(rung);
    }
    // The highest rate sustained with every rate below it sustained too.
    let mut ladder: Vec<&Rung> = std::iter::once(&nominal).chain(&rungs).collect();
    ladder.sort_by(|a, b| a.rate.total_cmp(&b.rate));
    let sustained =
        ladder.iter().take_while(|r| r.sustained()).last().map_or(0.0, |r| r.achieved_ops);

    opens.extend(
        (0..5).map(|_| timed(|| Index::open(&restart).expect("index open")).1.as_secs_f64()),
    );
    let space_amp = dir_bytes(&restart) as f64 / (N * DIM * 8) as f64;

    // Times at the reference machine's speed. The two rates are the
    // arrival schedule's, met in time, and stay as measured.
    let speed = reference.speed();
    let mut raw = Metrics::default();
    raw.set("setup_s", median(&setups), "s");
    raw.set("open_s", median(&opens), "s");
    raw.set("query_p50_ms", percentile(&nominal.query_ms, 50.0), "ms");
    raw.set("query_p95_ms", percentile(&nominal.query_ms, 95.0), "ms");
    let mut m = raw.at_reference_speed(speed);
    m.set("qps", nominal.query_rate, "1/s");
    m.set("sustained_qps", sustained, "1/s");
    m.set("recall", tally.recall(), "ratio");
    m.set("success_rate", tally.success_rate(), "ratio");
    m.set("peak_rss_mb", peak_rss_mb(), "MB");
    m.set("space_amp", space_amp, "ratio");
    let ladder: Vec<String> = ladder
        .iter()
        .map(|r| {
            format!(
                "{} ops/s: achieved {:.1}, query p99 {:.2} ms over {} queries, {} folds",
                r.rate,
                r.achieved_ops,
                r.query_p99(),
                r.query_ms.len(),
                r.compactions
            )
        })
        .collect();
    params.push(("speed", speed.to_string()));
    params.push(("raw", raw.describe()));
    params.push(("nominal_replays", nominal_replays.to_string()));
    params.push(("ladder", ladder.join("; ")));
    RunResult {
        correct: tally.failed == 0 && tally.checked > 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: m,
        params,
    }
}

fn traced(
    args: &Args,
    inputs: &Inputs,
    work: &WorkDir,
    params: Vec<(&'static str, String)>,
) -> RunResult {
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let mut log = SpanLog::new();

    // The layers of the base index, before any write: the same replay as
    // the batch workloads, on the same config.
    let (index, _) = build(inputs);
    let replica = BrePartitionIndex::build(KIND, &inputs.data, &spec().brepartition_config())
        .expect("replay index build");
    let truth = brute_force(&inputs.data, &inputs.pool[..TRACED]);
    let target = Target::Single(index.clone());
    let within = batch::trace_layers(
        &target,
        std::slice::from_ref(&replica),
        &inputs.pool,
        &truth,
        &mut tally,
        &mut log,
        &mut m,
    );
    drop(target);

    // One run at the nominal rate, with per-query service times recorded.
    let seed = args.seed.wrapping_mul(131);
    let rung = serve(inputs, index, NOMINAL, seed, true, &mut tally);
    let target = rung.target.as_ref().expect("the served index");
    let service = target
        .service_ms
        .as_ref()
        .map(|s| s.lock().expect("service log lock poisoned").clone())
        .unwrap_or_default();
    m.set("serve.service_p99_ms", percentile(&service, 99.0), "ms");
    m.set("serve.write_p99_ms", percentile(&rung.write_ms, 99.0), "ms");
    m.set("serve.wait_mean_ms", mean(&rung.query_ms) - mean(&service), "ms");
    m.set("serve.achieved_ratio", rung.achieved_ops / rung.offered_ops, "ratio");
    m.set("compaction.count", rung.compactions as f64, "count");
    m.set("compaction.busy_s", rung.compaction_s, "s");
    m.set("compaction.busy_frac", rung.compaction_s / rung.wall_s, "ratio");
    let index = &target.index;
    batch::overlay_metrics(&[index], &inputs.pool[..TRACED], &mut m);
    batch::persist_metrics(&Target::Single(index.clone()), &work.join("saved"), &mut tally, &mut m);
    log.write(args);
    RunResult {
        correct: tally.failed == 0 && tally.checked > 0 && within,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: m,
        params,
    }
}
