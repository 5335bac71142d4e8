//! The xic benchmark: drives the real daemon (`xic_cli::serve_on` on a
//! port-0 listener) and the real CLI (`xic_cli::run`) with seeded inputs,
//! checks every answer, and prints its metrics.
//!
//! ```text
//! xic-perfbench --workload edit-stream|ingest-recover|validate-offline
//!               --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the named workload runs untraced and the last stdout
//! line is a JSON object carrying its end-to-end metrics. With
//! `--trace 1` the run is the per-layer profile instead: traced daemon
//! windows and in-process replays of each layer's public functions, for
//! every workload's layers, whichever workload is named. Human-readable
//! lines (run context, each metric with its unit and meaning) come
//! first. The exit code is 0 only if every check passed.

xic::obs::install_counting_alloc!();

mod common;
mod edit_stream;
mod ingest;
mod inputs;
mod offline;
mod trace;

use std::process::Command;
use std::time::Duration;

use common::{steal_ticks, Outcome};

/// A run still going after this long is hung: it is reported as failed
/// and the process exits.
const DEADLINE: Duration = Duration::from_secs(165);

const WORKLOADS: [&str; 3] = ["edit-stream", "ingest-recover", "validate-offline"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed expects an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds expects a number")?),
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The first line `cmd args` prints, or `unknown`.
fn probe(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// The result line: one JSON object, the run's last stdout line.
fn result_json(out: &Outcome, correct: bool) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                if m.value.is_finite() { m.value } else { 0.0 },
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

/// Fails the run if it outlives [`DEADLINE`]. The thread is left detached
/// on purpose: exiting the process is how it ends a hung run.
fn arm_watchdog() {
    std::thread::spawn(|| {
        std::thread::sleep(DEADLINE);
        eprintln!("xic-perfbench: run still going after {DEADLINE:?}; treating it as hung");
        common::remove_work_dirs();
        println!(
            "{}",
            result_json(
                &Outcome {
                    attempted: 1,
                    failed: 1,
                    ..Outcome::default()
                },
                false
            )
        );
        std::process::exit(3);
    });
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xic-perfbench: {e}");
            std::process::exit(2);
        }
    };
    arm_watchdog();
    let steal = steal_ticks();
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# xic-perfbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "# context: cpus={cpus} rustc=\"{}\" git={} fsync=always http_threads={}",
        probe("rustc", &["--version"]),
        // Only a checkout that is itself a git repository has a sha; git
        // would otherwise report whatever repository encloses it.
        if std::path::Path::new(".git").exists() {
            probe("git", &["rev-parse", "--short", "HEAD"])
        } else {
            "unknown".into()
        },
        common::HTTP_THREADS,
    );

    let mut out = Outcome::default();
    let ran = if args.trace {
        edit_stream::profile(args.seed, args.seconds, &mut out).and_then(|()| {
            let mut layers = std::mem::take(&mut out.metrics);
            ingest::profile(args.seed, args.seconds, &mut out)?;
            layers.append(&mut out.metrics);
            offline::profile(args.seed, args.seconds, &mut out)?;
            layers.append(&mut out.metrics);
            out.metrics = layers;
            Ok(())
        })
    } else {
        match args.workload.as_str() {
            "edit-stream" => edit_stream::run(args.seed, args.seconds, &mut out),
            "ingest-recover" => ingest::run(args.seed, args.seconds, &mut out),
            _ => offline::run(args.seed, args.seconds, &mut out),
        }
    };
    if let Err(e) = ran {
        out.problem(format!("run aborted: {e}"));
    }
    let not_numbers: Vec<&str> = out
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name)
        .collect();
    for name in not_numbers {
        out.problem(format!("{name} is not a number"));
    }

    println!(
        "# steal_ticks={} (host CPU steal over the run)",
        steal_ticks() - steal
    );
    for m in out.metrics.iter().chain(&out.notes) {
        println!(
            "  {:<28} {:>16.4} {:<6} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    println!(
        "  {:<28} {:>16.4} {:<6} {} failed of {} attempted",
        "error_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
        out.failed,
        out.attempted
    );
    for p in &out.problems {
        println!("  FAILED: {p}");
    }
    let correct = out.failed == 0 && out.problems.is_empty();
    println!("{}", result_json(&out, correct));
    std::process::exit(if correct { 0 } else { 1 });
}
