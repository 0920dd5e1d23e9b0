//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path repobench/Cargo.toml -- \
//!     --workload <hd-exact|sharded-disk|serve-churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics untraced (`--trace 0`), the per-layer metrics traced
//! (`--trace 1`). The line before it records the run's metadata. See
//! `repobench/README.md` for the workloads and the metric map.

mod batch;
mod churn;
mod common;
mod trace;

use common::{metadata, Args};

fn main() {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("repobench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "hd-exact" => batch::run(&args, &batch::HD_EXACT),
        "sharded-disk" => batch::run(&args, &batch::SHARDED_DISK),
        "serve-churn" => churn::run(&args),
        other => {
            eprintln!("repobench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    println!("{}", metadata(&args, &outcome.params));
    let finite = outcome.metrics.all_finite();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct && finite,
        outcome.attempted.max(1),
        outcome.failed,
        outcome.metrics.to_json()
    );
}
