//! `validate-offline`: `xic validate` through `xic_cli::run` on a
//! 10⁶-node document, with the CLI's defaults (streaming engine,
//! automatic thread count). No daemon and no storage.

use std::sync::Arc;
use std::time::Instant;

use xic::prelude::*;

use crate::common::{
    log, metric, peak_heap_mb, process_cpu_secs, quantile, secs, timed, timed_cpu, Outcome, WorkDir,
};
use crate::inputs;

/// Vertices in the document.
const NODES: usize = 1_000_000;
/// One order in this many gets a dangling reference (about 0.1%).
const DANGLE_EVERY: usize = 1_000;
/// Input serializations per run; `setup_s` is the median of their CPU
/// times.
const BUILDS: usize = 5;
/// Repetitions of each in-process replay; the median is reported.
const REPS: usize = 3;

/// Generates the document and [`BUILDS`] times serializes it (DTD as
/// internal subset), checking that every build renders the same bytes,
/// then writes it and its Σ file under `work`. Returns the document and
/// the median serialization time in CPU and in wall seconds.
fn build_input(
    seed: u64,
    work: &WorkDir,
    out: &mut Outcome,
) -> Result<(inputs::Doc, f64, f64), String> {
    let (dtdc, tree) = inputs::tree(NODES, seed, DANGLE_EVERY);
    let (mut cpus, mut walls) = (Vec::new(), Vec::new());
    let mut first: Option<String> = None;
    for _ in 0..BUILDS {
        let (xml, wall, cpu) = timed_cpu(|| inputs::render(&dtdc, &tree));
        cpus.push(cpu);
        walls.push(wall);
        match &first {
            Some(f) => out.check(*f == xml, || {
                "two builds rendered different documents".into()
            }),
            None => first = Some(xml),
        }
    }
    let xml = first.expect("BUILDS > 0");
    std::fs::write(work.path("doc.xml"), &xml)
        .and_then(|()| std::fs::write(work.path("sigma.txt"), inputs::sigma_text(&dtdc)))
        .map_err(|e| format!("write input: {e}"))?;
    let doc = inputs::Doc {
        nodes: tree.len(),
        xml,
        dtdc,
    };
    Ok((doc, quantile(&cpus, 0.5), quantile(&walls, 0.5)))
}

/// The end-to-end run.
pub fn run(seed: u64, seconds: f64, out: &mut Outcome) -> Result<(), String> {
    let work = WorkDir::create("validate-offline")?;
    log("validate-offline: inputs");
    let (doc, setup_s, setup_wall_s) = build_input(seed, &work, out)?;
    let expected = inputs::reference_report(&doc);
    log("validate-offline: window");
    let args: Vec<String> = [
        "validate".to_string(),
        work.path("doc.xml").display().to_string(),
        "--sigma".into(),
        work.path("sigma.txt").display().to_string(),
    ]
    .into();
    let nodes = doc.nodes;
    drop(doc);
    let validate = |out: &mut Outcome| {
        let mut text = String::new();
        let (code, t, c) = timed_cpu(|| xic_cli::run(&args, &mut text));
        out.check(code == 1 && text == expected, || {
            format!("xic validate exited {code}; output differs from the library report")
        });
        (t, c)
    };
    // One untimed run first, so that the window starts warm.
    validate(out);
    xic::obs::alloc::reset_peak();
    let (mut runs, mut run_cpus) = (Vec::new(), Vec::new());
    let cpu = process_cpu_secs();
    let start = Instant::now();
    while runs.is_empty() || secs(start) < seconds {
        let (t, c) = validate(out);
        runs.push(t);
        run_cpus.push(c);
    }
    let wall = secs(start);
    let cpu = process_cpu_secs() - cpu;
    let heap = peak_heap_mb();
    out.metrics = vec![
        metric(
            "cpu_p50_ms",
            quantile(&run_cpus, 0.5) * 1e3,
            "ms",
            "process CPU of one xic validate run at 10^6 nodes",
        ),
        metric(
            "nodes_per_cpu_s",
            (nodes * runs.len()) as f64 / cpu,
            "1/s",
            "validate_nodes_per_s in CPU: nodes per process CPU second",
        ),
        metric(
            "setup_s",
            setup_s,
            "s",
            "process CPU of serializing the input document, median of 5 builds",
        ),
        metric(
            "peak_heap_mb",
            heap,
            "MB",
            "heap high-water mark during the window",
        ),
    ];
    out.notes = vec![
        metric(
            "validate_p50_ms",
            quantile(&runs, 0.5) * 1e3,
            "ms",
            "wall: one xic validate run at 10^6 nodes",
        ),
        metric(
            "validate_nodes_per_s",
            (nodes * runs.len()) as f64 / wall,
            "1/s",
            "wall: nodes validated per second",
        ),
        metric(
            "setup_wall_s",
            setup_wall_s,
            "s",
            "wall: the same builds, median of 5",
        ),
        metric(
            "samples",
            runs.len() as f64,
            "count",
            "timed xic validate runs",
        ),
    ];
    Ok(())
}

/// One instrumented `validate_stream` pass: wall seconds, the collector's
/// phase spans in seconds, and heap acquisitions.
struct StreamPass {
    wall: f64,
    phases: [f64; 4],
    allocs: u64,
}

/// The per-layer profile: `Validator::validate_stream` under a
/// `MetricsCollector` (the validator's own phase spans), and a bare drain
/// of `parse_events` for the lexer alone.
pub fn profile(seed: u64, _seconds: f64, out: &mut Outcome) -> Result<(), String> {
    log("validate-offline profile");
    let doc = inputs::document(NODES, seed, DANGLE_EVERY);
    let expected = inputs::reference_report(&doc);
    let mut passes = Vec::new();
    for _ in 0..REPS {
        let collector = MetricsCollector::shared();
        let validator = Validator::with_matcher(&doc.dtdc, MatcherKind::Dfa, Options::default())
            .with_obs(Obs::new(collector.clone() as Arc<dyn xic::obs::Collector>));
        let allocs = xic::obs::alloc::stats().count;
        let (report, wall) = timed(|| validator.validate_stream(&doc.xml));
        let allocs = xic::obs::alloc::stats().count - allocs;
        out.check(report.is_ok_and(|r| r.to_string() == expected), || {
            "validate_stream report differs from the library's".into()
        });
        let m = collector.snapshot();
        let span = |name: &str| m.span(name).nanos as f64 / 1e9;
        passes.push(StreamPass {
            wall,
            phases: [
                span("parse"),
                span("structure"),
                span("plan"),
                span("check"),
            ],
            allocs,
        });
    }
    let mut lex = Vec::new();
    for _ in 0..REPS {
        let (events, t) = timed(|| parse_events(&doc.xml).filter(Result::is_ok).count());
        lex.push(events as f64 / t);
    }
    let med =
        |f: &dyn Fn(&StreamPass) -> f64| quantile(&passes.iter().map(f).collect::<Vec<_>>(), 0.5);
    out.metrics = vec![
        metric(
            "validate.stream_s",
            med(&|p| p.wall),
            "s",
            "validate_nodes_per_s, nodes_per_cpu_s (validate-offline)",
        ),
        metric(
            "validate.parse_s",
            med(&|p| p.phases[0]),
            "s",
            "validate_nodes_per_s, nodes_per_cpu_s (validate-offline)",
        ),
        metric(
            "validate.structure_s",
            med(&|p| p.phases[1]),
            "s",
            "validate_nodes_per_s, nodes_per_cpu_s (validate-offline)",
        ),
        metric(
            "validate.plan_s",
            med(&|p| p.phases[2]),
            "s",
            "validate_nodes_per_s, nodes_per_cpu_s (validate-offline)",
        ),
        metric(
            "validate.check_s",
            med(&|p| p.phases[3]),
            "s",
            "validate_nodes_per_s, nodes_per_cpu_s (validate-offline)",
        ),
        metric(
            "validate.alloc_per_node",
            med(&|p| p.allocs as f64) / doc.nodes as f64,
            "count",
            "peak_heap_mb (validate-offline)",
        ),
        metric(
            "xml.lex_events_per_s",
            quantile(&lex, 0.5),
            "1/s",
            "validate_nodes_per_s, nodes_per_cpu_s (validate-offline)",
        ),
    ];
    Ok(())
}
