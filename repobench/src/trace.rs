//! The traced replay of Algorithm 6.
//!
//! Each step of a BrePartition query is re-run through the index's public
//! calls with the benchmark's clock around it, so the program itself stays
//! free of spans. The replay must return the façade's ids; whatever time
//! the façade spends outside these steps is reported as the residual.

use std::time::Instant;

use bbtree::SearchStats;
use bregman::kernel::KernelScratch;
use bregman::PointId;
use brepartition_core::{BrePartitionIndex, QueryBounds, TransformedQuery};

use crate::common::{Args, K};

/// One span: a named step of one traced query, in microseconds from the
/// start of the traced phase.
struct Span {
    query: usize,
    name: &'static str,
    start_us: f64,
    end_us: f64,
}

/// Spans of every traced query, kept in memory and written out at the end.
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog { origin: Instant::now(), spans: Vec::new() }
    }

    /// Record a step that ran from `start` for `us` microseconds.
    pub fn record(&mut self, query: usize, name: &'static str, start: Instant, us: f64) {
        let start_us = start.duration_since(self.origin).as_secs_f64() * 1e6;
        self.spans.push(Span { query, name, start_us, end_us: start_us + us });
    }

    /// Write the spans to `.bench_traces/<workload>-seed<n>.json` in the
    /// working directory.
    pub fn write(&self, args: &Args) {
        let dir = std::path::Path::new(".bench_traces");
        let path = dir.join(format!("{}-seed{}.json", args.workload, args.seed));
        if let Err(e) =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, self.to_json()))
        {
            eprintln!("could not write {}: {e}", path.display());
        }
    }

    fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"query\": {}, \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}}}",
                    s.query, s.name, s.start_us, s.end_us
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

/// Per-step times and work counts of one replayed query.
#[derive(Default, Clone, Copy)]
pub struct Phases {
    pub bound_us: f64,
    pub filter_us: f64,
    pub io_us: f64,
    pub kernel_us: f64,
    pub select_us: f64,
    /// Wall time of the whole replay, timer calls included.
    pub wall_us: f64,
    pub tuples: u64,
    pub nodes: u64,
    pub leaves: u64,
    pub sub_candidates: u64,
    pub candidates: u64,
    pub pages: u64,
    pub pool_hits: u64,
    pub evals: u64,
}

impl Phases {
    pub fn sum_us(&self) -> f64 {
        self.bound_us + self.filter_us + self.io_us + self.kernel_us + self.select_us
    }

    pub fn add(&mut self, o: &Phases) {
        self.bound_us += o.bound_us;
        self.filter_us += o.filter_us;
        self.io_us += o.io_us;
        self.kernel_us += o.kernel_us;
        self.select_us += o.select_us;
        self.wall_us += o.wall_us;
        self.tuples += o.tuples;
        self.nodes += o.nodes;
        self.leaves += o.leaves;
        self.sub_candidates += o.sub_candidates;
        self.candidates += o.candidates;
        self.pages += o.pages;
        self.pool_hits += o.pool_hits;
        self.evals += o.evals;
    }
}

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Replay exact kNN (`k = K`) for `query` on `index` with a fresh,
/// configuration-sized buffer pool, as the façade's `query` does. Returns
/// the neighbours (best first) and the step times; spans go to `log`.
pub fn replay(
    index: &BrePartitionIndex,
    query: &[f64],
    query_no: usize,
    log: &mut SpanLog,
) -> (Vec<(PointId, f64)>, Phases) {
    let mut p = Phases::default();
    let started = Instant::now();
    let mut pool = index.new_buffer_pool();
    let mut kernel = KernelScratch::default();
    let kind = index.kind();

    // Bound: the query's transforms and Algorithm 4's per-subspace radii.
    let t = Instant::now();
    let tq = TransformedQuery::build(kind, query, index.partitioning());
    let bounds = QueryBounds::determine(index.transformed(), &tq, K)
        .expect("a non-empty index yields bounds for k > 0");
    p.bound_us = us_since(t);
    log.record(query_no, "bound", t, p.bound_us);
    p.tuples = (index.len() * index.partitions()) as u64;

    // Filter: per-subspace BB-tree range search, then the candidate union.
    let t = Instant::now();
    let n = index.len();
    let mut in_union = vec![false; n];
    let mut union: Vec<u32> = Vec::new();
    let mut search = SearchStats::new();
    let mut sub_query = Vec::new();
    for (s, &radius) in bounds.per_subspace.iter().enumerate() {
        index.partitioning().project_point_into(s, query, &mut sub_query);
        let found = index.forest().subspace_candidates(s, &sub_query, radius, &mut search);
        p.sub_candidates += found.len() as u64;
        for pid in found {
            if !in_union[pid.index()] {
                in_union[pid.index()] = true;
                union.push(pid.0);
            }
        }
    }
    p.filter_us = us_since(t);
    log.record(query_no, "filter", t, p.filter_us);
    p.nodes = search.nodes_visited;
    p.leaves = search.leaves_visited;
    p.candidates = union.len() as u64;

    // Refine: page-grouped reads; the kernel (query preparation plus each
    // block's distances) and the candidate bookkeeping are timed inside,
    // so the read-and-decode time is what remains.
    let t_prepare = Instant::now();
    let KernelScratch { prepared, lanes, distances, phis, .. } = &mut kernel;
    kind.prepare_query_into(prepared, query);
    let prepare_us = us_since(t_prepare);
    let phi = index.phi();
    let mut neighbors: Vec<(PointId, f64)> = Vec::with_capacity(union.len());
    let mut kernel_us = prepare_us;
    let mut keep_us = 0.0;
    let before = pool.stats();
    let t_read = Instant::now();
    pool.read_points_block(index.forest().store(), &union, lanes, &mut |members, block| {
        let t_keep = Instant::now();
        phis.clear();
        phis.extend(members.iter().map(|&pid| phi[pid as usize]));
        let t_kernel = Instant::now();
        prepared.distance_block(phis, block, distances);
        let k_us = us_since(t_kernel);
        neighbors.extend(members.iter().zip(distances.iter()).map(|(&pid, &d)| (PointId(pid), d)));
        kernel_us += k_us;
        keep_us += us_since(t_keep) - k_us;
    })
    .expect("candidate pages read back");
    let read_us = us_since(t_read);
    let io = pool.stats().since(&before);
    p.kernel_us = kernel_us;
    p.io_us = read_us - (kernel_us - prepare_us) - keep_us;
    p.pages = io.pages_read;
    p.pool_hits = io.cache_hits;
    p.evals = union.len() as u64;
    log.record(query_no, "refine.kernel", t_prepare, p.kernel_us);
    log.record(query_no, "refine.io", t_read, p.io_us);

    // Select: the top-k of the refined candidates.
    let t = Instant::now();
    if neighbors.len() > K {
        neighbors.select_nth_unstable_by(K - 1, |a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        neighbors.truncate(K);
    }
    neighbors.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
    p.select_us = us_since(t) + keep_us;
    log.record(query_no, "select", t, p.select_us);
    p.wall_us = us_since(started);
    (neighbors, p)
}
