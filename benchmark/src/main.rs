//! `mwtj-e2e`: the repository's end-to-end, layer-attributed benchmark.
//!
//! ```text
//! mwtj-e2e --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! mwtj-e2e --aa <first.txt> <second.txt>
//! ```
//!
//! One workload per process (`all` re-executes this binary once per
//! workload). Every metric is printed as `workload metric value unit`;
//! the last line of standard output is one JSON object holding the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`, which adds the traced pass after the window). The
//! exit code is non-zero if any op failed or any reference check did
//! not hold. See `benchmark/README.md`.

mod harness;
mod layers;
mod metrics;
mod reference;
mod stats;
mod trace;
mod workloads;

use harness::{
    Tally, MAX_SETUPS, MIN_CLASS_SAMPLES, MIN_QUERY_SAMPLES, MIN_SETUPS, SETUP_BUDGET_SECS,
};
use metrics::Metrics;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: mwtj-e2e --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1] [--quick]\n\
         \x20      mwtj-e2e --aa <first.txt> <second.txt>",
        workloads::NAMES.join("|")
    );
    ExitCode::from(2)
}

fn parse_args(argv: &[String]) -> Option<Args> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        quick: false,
    };
    let mut seconds_given = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = it.next()?.clone(),
            "--seed" => args.seed = it.next()?.parse().ok()?,
            "--seconds" => {
                args.seconds = it.next()?.parse().ok().filter(|s| *s > 0.0)?;
                seconds_given = true;
            }
            "--trace" => {
                args.trace = match it.next()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            "--quick" => args.quick = true,
            _ => return None,
        }
    }
    if args.quick && !seconds_given {
        args.seconds = 2.0;
    }
    (!args.workload.is_empty()).then_some(args)
}

/// Pin this thread — and with it every thread the process starts
/// later — to the first CPU it is allowed on. The sandboxes this runs
/// in lend their second vCPU in phases of seconds, so anything the
/// engine ran on two threads read up to 2× slower in one run than in
/// the next; on one CPU, run-to-run spread falls from ~17 % to ~3 %.
/// The price: `available_parallelism` is 1 under the pin, so parallel
/// speed-ups do not register here.
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // The kernel's cpu_set_t: 1024 bits.
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of exactly `size`
    // bytes, and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return;
    }
    let Some(word) = mask.iter().position(|w| *w != 0) else {
        return;
    };
    let bit = mask[word].trailing_zeros();
    mask = [0u64; 16];
    mask[word] = 1 << bit;
    // SAFETY: as above, and the call only reads `mask`.
    if unsafe { sched_setaffinity(0, size, mask.as_ptr()) } != 0 {
        eprintln!("mwtj-e2e: could not pin to one CPU; timings will be noisier");
    }
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() {}

fn main() -> ExitCode {
    pin_to_one_cpu();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--aa") {
        return match (argv.get(1), argv.get(2), argv.len()) {
            (Some(a), Some(b), 3) => metrics::compare_files(a, b),
            _ => usage(),
        };
    }
    let Some(args) = parse_args(&argv) else {
        return usage();
    };
    if args.workload == "all" {
        return run_all(&argv);
    }
    match run_one(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("mwtj-e2e: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A fresh process per workload: allocator state, caches and peak RSS
/// of one never leak into the next.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("mwtj-e2e: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for name in workloads::NAMES {
        let child: Vec<String> = argv
            .iter()
            .map(|a| {
                if a == "all" {
                    name.to_string()
                } else {
                    a.clone()
                }
            })
            .collect();
        match std::process::Command::new(&exe).args(&child).status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("mwtj-e2e: workload {name} failed ({status})");
                ok = false;
            }
            Err(e) => {
                eprintln!("mwtj-e2e: cannot run workload {name}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run one workload; `Ok(correct)`.
fn run_one(args: &Args) -> Result<bool, String> {
    let div = if args.quick { 20 } else { 1 };
    let w = workloads::build(&args.workload, args.seed, div)
        .ok_or_else(|| format!("unknown workload `{}`", args.workload))?;
    let mut tally = Tally::default();

    // Set-up, several times over; the harness's row-major copies live
    // only until the last one is loaded.
    let relations: Vec<_> = w.tables.iter().map(harness::to_relation).collect();
    let (mut live, first) = harness::set_up(&w, &relations)?;
    let mut setup_secs = vec![first];
    while setup_secs.len() < MIN_SETUPS
        || (!args.quick
            && setup_secs.len() < MAX_SETUPS
            && setup_secs.iter().map(|s| s.total).sum::<f64>() < SETUP_BUDGET_SECS)
    {
        live.stop();
        let (next, secs) = harness::set_up(&w, &relations)?;
        setup_secs.push(secs);
        live = next;
    }
    if args.quick {
        harness::oracle_cross_check(&w, &relations, &mut tally);
    }
    drop(relations);
    let loaded_rss_mb = stats::self_status_mib("VmRSS");

    let facts = harness::gate(&w, &mut live, &mut tally);
    let before = live.engine.stats_snapshot();
    let samples = harness::window(&w, &mut live, args.seconds, &mut tally);
    let after = live.engine.stats_snapshot();
    let probed = if w.load_in_window() {
        Vec::new()
    } else {
        harness::probe_load(&w, &mut live, &mut tally)
    };
    let stats = harness::summarise(&w.classes, &samples, &probed, args.seconds);

    let mut m = Metrics::new(w.name);
    let totals: Vec<f64> = setup_secs.iter().map(|s| s.total).collect();
    m.end_to_end("setup_s", stats::median(&totals));
    m.end_to_end("query_p50_ms", stats.query_p50_ms);
    m.end_to_end("query_p90_ms", stats.query_p90_ms);
    m.end_to_end("first_frame_p50_ms", stats.first_frame_p50_ms);
    m.end_to_end("throughput_qps", stats.throughput_qps);
    m.end_to_end("load_p50_ms", stats.load_p50_ms);
    m.end_to_end("sim_makespan_s", facts.sim_makespan_s);
    // Read before the traced pass, whose own buffers are not the
    // server's.
    let peak_rss_mb = stats::self_status_mib("VmHWM");

    if args.trace {
        let delta = harness::engine_delta(&before, &after);
        let last = *setup_secs.last().expect("at least one set-up");
        m.layer("storage.loaded_rss_mb", loaded_rss_mb);
        m.layer("storage.peak_rss_mb", peak_rss_mb);
        m.layer("harness.setups", setup_secs.len() as f64);
        layers::traced_pass(
            &w,
            &mut live,
            &stats,
            &facts,
            &delta,
            last,
            loaded_rss_mb,
            &mut m,
            &mut tally,
        )?;
    }
    live.stop();

    // Too few samples make the percentiles noise, not measurements
    // (--quick checks correctness and metric names only), and an
    // end-to-end metric that reads 0 was not measured at all.
    let mut enough = true;
    for name in m.unmeasured() {
        eprintln!("mwtj-e2e: end-to-end metric {name} reads 0");
        enough = false;
    }
    if !args.quick {
        if stats.query_samples < MIN_QUERY_SAMPLES {
            eprintln!(
                "mwtj-e2e: only {} query samples (need {MIN_QUERY_SAMPLES})",
                stats.query_samples
            );
            enough = false;
        }
        for (class, n, _) in &stats.classes {
            if *n < MIN_CLASS_SAMPLES {
                eprintln!(
                    "mwtj-e2e: class {class} has only {n} samples (need {MIN_CLASS_SAMPLES})"
                );
                enough = false;
            }
        }
    }
    for why in &tally.reasons {
        eprintln!("mwtj-e2e: FAILED {why}");
    }
    let correct = tally.failed == 0 && enough;
    let failed_fraction = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!("{} failed_fraction {failed_fraction} ratio", w.name);
    if !args.trace {
        println!("{} storage.loaded_rss_mb {loaded_rss_mb} MiB", w.name);
        println!("{} storage.peak_rss_mb {peak_rss_mb} MiB", w.name);
    }
    for (class, n, p50) in &stats.classes {
        println!("{} samples.{class} {n} count", w.name);
        if !args.trace {
            println!("{} class.{class}.p50_ms {p50} ms", w.name);
        }
    }
    m.print(args.trace, correct, &tally);
    Ok(correct)
}
