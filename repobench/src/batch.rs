//! The closed-loop workloads: `hd-exact` (one in-memory index) and
//! `sharded-disk` (four capacity shards reopened from disk).

use std::time::Instant;

use brepartition::prelude::*;
use brepartition_core::BrePartitionIndex;

use crate::common::*;
use crate::trace::{self, Phases, SpanLog};

/// Queries in the pool a run cycles through.
const POOL: usize = 2048;
/// Queries per closed-loop batch call.
const BATCH: usize = 32;
/// Queries replayed step by step in a traced run.
pub const TRACED: usize = 48;
/// Fewest passes over the measured work, however long they take.
const MIN_PASSES: usize = 3;
/// Set-ups per untraced run; `setup_s` and `open_s` are their medians.
const SETUPS: usize = 3;
/// Largest share of the untraced single-query mean the trace may leave
/// unexplained before the run is marked incorrect.
const RESIDUAL_TOLERANCE: f64 = 0.10;

pub struct Shape {
    pub n: usize,
    pub dim: usize,
    pub shards: usize,
    pub pool_pages: usize,
    /// Batch calls of `BATCH` queries in one pass over the measured work.
    pub batches: usize,
    /// Single queries in one pass, spread evenly after the batch calls.
    pub singles: usize,
}

/// One pass takes about 4.5 s (`hd-exact`) and 7 s (`sharded-disk`) on
/// the reference machine. The single queries are many, because their
/// percentiles are taken over distinct queries: with 96 of them, the
/// seed alone moved `hd-exact`'s p50 by about 8 %, and the p95 needs ten
/// queries beyond it.
pub const HD_EXACT: Shape =
    Shape { n: 20_000, dim: 100, shards: 1, pool_pages: 0, batches: 8, singles: 224 };
pub const SHARDED_DISK: Shape =
    Shape { n: 100_000, dim: 32, shards: 4, pool_pages: 64, batches: 4, singles: 200 };

/// The index under test: the plain façade or the sharded tier.
pub enum Target {
    Single(Index),
    Sharded(ShardedIndex),
}

impl Target {
    pub fn query(&self, q: &[f64]) -> Result<QueryOutcome> {
        let request = QueryRequest::new(q, K);
        match self {
            Target::Single(i) => i.query(&request),
            Target::Sharded(s) => s.query(&request),
        }
    }

    pub fn run(&self, request: &Request<'_>) -> Result<BatchResult> {
        match self {
            Target::Single(i) => {
                i.run_with(request, EngineConfig::default().with_threads(LOAD_THREADS))
            }
            Target::Sharded(s) => s.run_with_budget(request, LOAD_THREADS),
        }
    }

    pub fn shard_indexes(&self) -> Vec<&Index> {
        match self {
            Target::Single(i) => vec![i],
            Target::Sharded(s) => (0..s.shards()).map(|i| s.shard(i)).collect(),
        }
    }
}

fn spec(shape: &Shape) -> IndexSpec {
    base_spec(shape.dim).with_buffer_pool_pages(shape.pool_pages)
}

/// One set-up: dataset to an index ready to serve. The sharded tier is
/// built, saved and reopened from disk, so its pages are file-backed.
/// Returns the index, the set-up time and the times of two reopens of the
/// saved directory (for the sharded tier, the first is the set-up's own).
fn set_up(shape: &Shape, data: &DenseDataset, dir: &std::path::Path) -> (Target, f64, [f64; 2]) {
    let started = Instant::now();
    let (target, setup, open) = if shape.shards == 1 {
        let index = Index::build(&spec(shape), data).expect("index build");
        let setup = started.elapsed().as_secs_f64();
        index.save(dir).expect("index save");
        let (reopened, open) = timed(|| Index::open(dir).expect("index open"));
        drop(reopened);
        (Target::Single(index), setup, open)
    } else {
        let built = ShardedIndex::build(&ShardSpec::capacity(spec(shape), shape.shards), data)
            .expect("sharded build");
        built.save(dir).expect("sharded save");
        drop(built);
        let (opened, open) = timed(|| ShardedIndex::open(dir).expect("sharded open"));
        (Target::Sharded(opened), started.elapsed().as_secs_f64(), open)
    };
    // A second reopen, for a steadier `open_s`: one open is short enough
    // for a passing stall to move it.
    let again = match target {
        Target::Single(_) => timed(|| drop(Index::open(dir).expect("index open"))).1,
        Target::Sharded(_) => timed(|| drop(ShardedIndex::open(dir).expect("sharded open"))).1,
    };
    (target, setup, [open.as_secs_f64(), again.as_secs_f64()])
}

pub fn run(args: &Args, shape: &Shape) -> RunResult {
    let data = corpus(shape.n, shape.dim);
    let pool = queries(&data, POOL, args.seed);
    // Every measured query is checked: batch queries are the first
    // `batches · BATCH` of the pool, single queries the first `singles`.
    let measured = (shape.batches * BATCH).max(shape.singles).max(TRACED + 4);
    let truth = brute_force(&data, &pool[..measured]);
    let work = WorkDir::new(&args.workload, args.seed);
    let mut params = vec![
        ("n", shape.n.to_string()),
        ("d", shape.dim.to_string()),
        ("k", K.to_string()),
        ("m", (shape.dim / 7).to_string()),
        ("shards", shape.shards.to_string()),
        ("pool_pages", shape.pool_pages.to_string()),
        ("page_size", PAGE_SIZE.to_string()),
        ("workers", LOAD_THREADS.to_string()),
    ];
    if args.trace {
        params.push(("traced_queries", TRACED.to_string()));
        return traced(args, shape, &data, &pool, &truth, &work, params);
    }

    // The index under test is the first set-up. The other set-ups, timed
    // for `setup_s` and `open_s` only, alternate with the first measuring
    // passes, so that the passes spread over the whole run.
    let mut setups = Vec::new();
    let mut opens = Vec::new();
    let saved = work.join("setup0");
    let (target, setup, open) = set_up(shape, &data, &saved);
    setups.push(setup);
    opens.extend(open);
    let space_amp = dir_bytes(&saved) as f64 / (shape.n * shape.dim * 8) as f64;

    let mut tally = Tally::default();
    let check = |tally: &mut Tally, qi: usize, answer: Result<Vec<u32>>| {
        tally.attempted += 1;
        match answer {
            Ok(ids) => tally.check(&ids, &truth[qi]),
            Err(_) => tally.failed += 1,
        }
    };

    // Warm-up: one batch, unchecked and untimed.
    let warm: Vec<QueryRequest<'_>> =
        pool[..BATCH].iter().map(|q| QueryRequest::new(q, K)).collect();
    let _ = target.run(&Request::batch(warm));

    // Passes over a fixed set of work: `shape.batches` closed-loop batch
    // calls on the worker pool, each followed by its share of
    // `shape.singles` single queries from one client. Each batch call and
    // each single query keeps the fastest time of all its passes. The
    // passes spread every unit's repeats over the whole run, seconds
    // apart, so that the fastest pass is one the shared machine did not
    // slow down. Reference units between the calls measure the machine's
    // speed the same way (see `Reference`), and the reported times are
    // scaled to the reference machine's speed with it.
    let per_batch = shape.singles / shape.batches;
    let mut batch_best = vec![f64::INFINITY; shape.batches];
    let mut single_best = vec![f64::INFINITY; shape.batches * per_batch];
    let mut reference = Reference::new();
    let mut pass = |tally: &mut Tally| -> f64 {
        let started = Instant::now();
        reference.start_pass();
        for (j, best) in batch_best.iter_mut().enumerate() {
            let idx = j * BATCH..(j + 1) * BATCH;
            let request = Request::batch(pool[idx.clone()].iter().map(|q| QueryRequest::new(q, K)));
            let (result, wall) = timed(|| target.run(&request));
            *best = best.min(wall.as_secs_f64());
            reference.tick(LOAD_THREADS);
            match result {
                Ok(batch) => {
                    for (qi, outcome) in idx.zip(&batch.outcomes) {
                        check(tally, qi, Ok(ids(&outcome.neighbors)));
                    }
                    let missing = BATCH.saturating_sub(batch.outcomes.len());
                    tally.attempted += missing as u64;
                    tally.failed += missing as u64;
                }
                Err(_) => {
                    tally.attempted += BATCH as u64;
                    tally.failed += BATCH as u64;
                }
            }
            for qi in j * per_batch..(j + 1) * per_batch {
                let (answer, lat) = timed(|| target.query(&pool[qi]));
                single_best[qi] = single_best[qi].min(lat.as_secs_f64() * 1e3);
                if qi % 7 == 0 {
                    reference.tick(1);
                }
                check(tally, qi, answer.map(|o| ids(&o.neighbors)));
            }
        }
        started.elapsed().as_secs_f64()
    };
    let mut measured = 0.0;
    let mut passes = 0;
    for i in 1..SETUPS {
        measured += pass(&mut tally);
        passes += 1;
        let dir = work.join(&format!("setup{i}"));
        let (other, setup, open) = set_up(shape, &data, &dir);
        setups.push(setup);
        opens.extend(open);
        drop(other);
        let _ = std::fs::remove_dir_all(&dir);
    }
    // Then passes until they have run for `--seconds`, to the nearest
    // whole pass, and at least `MIN_PASSES` of them.
    loop {
        let last = pass(&mut tally);
        measured += last;
        passes += 1;
        if passes >= MIN_PASSES && measured + last / 2.0 > args.seconds {
            break;
        }
    }
    let qps = (shape.batches * BATCH) as f64 / batch_best.iter().sum::<f64>();
    let speed = reference.speed();

    let mut raw = Metrics::default();
    raw.set("setup_s", median(&setups), "s");
    raw.set("open_s", median(&opens), "s");
    raw.set("qps", qps, "1/s");
    raw.set("sustained_qps", qps, "1/s");
    raw.set("query_p50_ms", percentile(&single_best, 50.0), "ms");
    raw.set("query_p95_ms", percentile(&single_best, 95.0), "ms");
    let mut m = raw.at_reference_speed(speed);
    m.set("recall", tally.recall(), "ratio");
    m.set("success_rate", tally.success_rate(), "ratio");
    m.set("peak_rss_mb", peak_rss_mb(), "MB");
    m.set("space_amp", space_amp, "ratio");
    params.push(("speed", speed.to_string()));
    params.push(("raw", raw.describe()));
    params.push(("passes", passes.to_string()));
    params.push(("batch_queries", (shape.batches * BATCH).to_string()));
    params.push(("single_queries", single_best.len().to_string()));
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
    shape: &Shape,
    data: &DenseDataset,
    pool: &[Vec<f64>],
    truth: &[Vec<u32>],
    work: &WorkDir,
    params: Vec<(&'static str, String)>,
) -> RunResult {
    let dir = work.join("index");
    let (target, _, _) = set_up(shape, data, &dir);
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let mut log = SpanLog::new();

    // The indexes the replay runs on: built from the same config for the
    // in-memory workload, opened from the saved shard directories for the
    // file-backed one.
    let replicas: Vec<BrePartitionIndex> = match &target {
        Target::Single(_) => {
            vec![BrePartitionIndex::build(KIND, data, &spec(shape).brepartition_config())
                .expect("replay index build")]
        }
        Target::Sharded(_) => {
            let mut shard_dirs: Vec<_> = std::fs::read_dir(&dir)
                .expect("saved shard directory")
                .flatten()
                .map(|e| e.path())
                .filter(|p| p.is_dir())
                .collect();
            shard_dirs.sort();
            shard_dirs
                .iter()
                .map(|d| BrePartitionIndex::open(d).expect("shard open for replay"))
                .collect()
        }
    };
    let within = trace_layers(&target, &replicas, pool, truth, &mut tally, &mut log, &mut m);

    let indexes = target.shard_indexes();
    overlay_metrics(&indexes, &pool[..TRACED], &mut m);
    m.set("compaction.count", 0.0, "count");
    m.set("compaction.busy_s", 0.0, "s");
    m.set("compaction.busy_frac", 0.0, "ratio");
    m.set("serve.service_p99_ms", 0.0, "ms");
    m.set("serve.write_p99_ms", 0.0, "ms");
    m.set("serve.wait_mean_ms", 0.0, "ms");
    m.set("serve.achieved_ratio", 0.0, "ratio");
    persist_metrics(&target, &work.join("resave"), &mut tally, &mut m);
    log.write(args);
    RunResult {
        correct: tally.failed == 0 && tally.checked > 0 && within,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: m,
        params,
    }
}

/// Time a save of `target` into `dir`.
pub fn persist_metrics(target: &Target, dir: &std::path::Path, tally: &mut Tally, m: &mut Metrics) {
    let (saved, save) = timed(|| match target {
        Target::Single(i) => i.save(dir),
        Target::Sharded(s) => s.save(dir),
    });
    tally.attempted += 1;
    tally.failed += u64::from(saved.is_err());
    m.set("persist.save_s", save.as_secs_f64(), "s");
    m.set("persist.bytes", dir_bytes(dir) as f64, "bytes");
}

/// The delta overlay's size and the time to scan it for each query.
pub fn overlay_metrics(indexes: &[&Index], queries: &[Vec<f64>], m: &mut Metrics) {
    let (mut delta_rows, mut tombstones) = (0usize, 0usize);
    for s in indexes {
        let delta = s.delta();
        delta_rows += delta.delta_rows();
        tombstones += delta.tombstone_count();
    }
    let scan_us: Vec<f64> =
        queries.iter().map(|q| timed(|| overlay_scan(indexes, q)).1.as_secs_f64() * 1e6).collect();
    m.set("overlay.delta_rows", delta_rows as f64, "count");
    m.set("overlay.tombstones", tombstones as f64, "count");
    m.set("overlay.scan_us", mean(&scan_us), "us");
}

/// Run the first `TRACED` pool queries through the façade (untimed by the
/// program, timed here) and through the step-by-step replay on
/// `replicas` (one per shard), check that both give the brute-force ids,
/// and set the per-layer metrics of bound, filter, refine, kernel,
/// select, shards, workers and the trace itself. Returns whether the
/// phases account for the untraced single-query time within
/// [`RESIDUAL_TOLERANCE`].
pub fn trace_layers(
    target: &Target,
    replicas: &[BrePartitionIndex],
    pool: &[Vec<f64>],
    truth: &[Vec<u32>],
    tally: &mut Tally,
    log: &mut SpanLog,
    m: &mut Metrics,
) -> bool {
    let n: usize = replicas.iter().map(|r| r.len()).sum();
    // Shard-local to global ids: capacity sharding places global id `g`
    // on shard `route(g)`, in id order.
    let locals: Vec<Vec<u32>> = match target {
        Target::Single(_) => vec![(0..n as u32).collect()],
        Target::Sharded(s) => {
            let mut locals = vec![Vec::new(); s.shards()];
            for g in 0..n as u32 {
                locals[s.spec().route(PointId(g))].push(g);
            }
            locals
        }
    };
    let indexes = target.shard_indexes();
    let mut totals = Phases::default();
    let mut facade_us = Vec::new();
    let mut shard_sum_us = Vec::new();
    let mut shard_max_us = Vec::new();
    let mut gather_us = Vec::new();
    // Warm caches and lazy state on a few queries first.
    for q in &pool[TRACED..TRACED + 4] {
        let _ = target.query(q);
        for r in replicas {
            let _ = trace::replay(r, q, usize::MAX, &mut SpanLog::new());
        }
    }
    for (qi, q) in pool[..TRACED].iter().enumerate() {
        let (answer, lat) = timed(|| target.query(q));
        let lat_us = lat.as_secs_f64() * 1e6;
        tally.attempted += 1;
        let facade_ids = match answer {
            Ok(o) => ids(&o.neighbors),
            Err(_) => {
                tally.failed += 1;
                continue;
            }
        };
        facade_us.push(lat_us);
        tally.check(&facade_ids, &truth[qi]);
        if let Target::Sharded(_) = target {
            let services: Vec<f64> = indexes
                .iter()
                .map(|s| timed(|| s.query(&QueryRequest::new(q, K))).1.as_secs_f64() * 1e6)
                .collect();
            let sum: f64 = services.iter().sum();
            shard_sum_us.push(sum);
            shard_max_us.push(services.iter().copied().fold(0.0, f64::max));
            gather_us.push(lat_us - sum);
        }
        let mut merged: Vec<(f64, u32)> = Vec::new();
        for (s, r) in replicas.iter().enumerate() {
            let (neighbors, p) = trace::replay(r, q, qi, log);
            totals.add(&p);
            merged.extend(neighbors.iter().map(|&(id, d)| (d, locals[s][id.index()])));
        }
        merged.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        merged.truncate(K);
        let replay_ids: Vec<u32> = merged.iter().map(|&(_, id)| id).collect();
        if replay_ids != facade_ids {
            tally.failed += 1;
        }
    }

    // Worker efficiency: single-query service over the batch's capacity.
    let request = Request::batch(pool[..TRACED].iter().map(|q| QueryRequest::new(q, K)));
    let (batch, wall) = timed(|| target.run(&request));
    tally.attempted += TRACED as u64;
    if batch.is_err() {
        tally.failed += TRACED as u64;
    }
    let efficiency =
        facade_us.iter().sum::<f64>() / (wall.as_secs_f64() * 1e6 * LOAD_THREADS as f64);

    let nq = facade_us.len().max(1) as f64;
    let per = |v: f64| v / nq;
    let untraced = mean(&facade_us);
    let phases = per(totals.sum_us());
    let residual = untraced - phases;
    let candidates = per(totals.candidates as f64);
    m.set("bound.us", per(totals.bound_us), "us");
    m.set("bound.tuples", per(totals.tuples as f64), "count");
    m.set("filter.us", per(totals.filter_us), "us");
    m.set("filter.nodes", per(totals.nodes as f64), "count");
    m.set("filter.leaves", per(totals.leaves as f64), "count");
    m.set("filter.sub_candidates", per(totals.sub_candidates as f64), "count");
    m.set("filter.candidates", candidates, "count");
    m.set("filter.selectivity", candidates / n as f64, "ratio");
    m.set("filter.precision", (K * replicas.len()) as f64 / candidates.max(1.0), "ratio");
    m.set("refine.io_us", per(totals.io_us), "us");
    m.set("refine.pages", per(totals.pages as f64), "count");
    m.set("refine.pool_hits", per(totals.pool_hits as f64), "count");
    let logical = (totals.pages + totals.pool_hits).max(1) as f64;
    m.set("refine.hit_rate", totals.pool_hits as f64 / logical, "ratio");
    m.set("refine.bytes", per((totals.pages as usize * PAGE_SIZE) as f64), "bytes");
    m.set("kernel.us", per(totals.kernel_us), "us");
    m.set("kernel.evals", per(totals.evals as f64), "count");
    m.set("kernel.ns_per_eval", totals.kernel_us * 1e3 / totals.evals.max(1) as f64, "ns");
    m.set("select.us", per(totals.select_us), "us");
    m.set("trace.untraced_us", untraced, "us");
    m.set("trace.residual_us", residual, "us");
    m.set("trace.overhead_frac", (per(totals.wall_us) - untraced) / untraced, "ratio");
    m.set("engine.efficiency", efficiency, "ratio");
    m.set("shard.service_us_sum", mean(&shard_sum_us), "us");
    m.set("shard.service_us_max", mean(&shard_max_us), "us");
    m.set("shard.gather_us", mean(&gather_us), "us");
    let sharded = matches!(target, Target::Sharded(_));
    m.set("shard.candidates_sum", if sharded { candidates } else { 0.0 }, "count");
    eprintln!(
        "trace self-check: untraced {untraced:.1} us, phases {phases:.1} us, residual \
         {residual:.1} us ({:.1} % of untraced, tolerance {:.0} %)",
        100.0 * residual / untraced,
        100.0 * RESIDUAL_TOLERANCE
    );
    residual.abs() <= RESIDUAL_TOLERANCE * untraced
}

/// Score every live delta row of every shard against `q` — the exact scan
/// the overlay merges into each answer.
fn overlay_scan(indexes: &[&Index], q: &[f64]) -> usize {
    let mut kernel = bregman::kernel::KernelScratch::default();
    KIND.prepare_query_into(&mut kernel.prepared, q);
    let mut scored = 0;
    for index in indexes {
        let delta = index.delta();
        for (_, phi, row) in delta.live_delta_rows() {
            std::hint::black_box(kernel.prepared.distance(phi, row));
            scored += 1;
        }
    }
    scored
}
