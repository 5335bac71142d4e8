//! `edit-stream`: two editors, each on its own keep-alive connection to
//! its own 10⁵-node document in a durable daemon (`--fsync always`),
//! posting edit scripts in a closed loop — each waits for its diff before
//! sending the next script.

use std::io::Cursor;
use std::sync::Barrier;
use std::time::Instant;

use xic::prelude::*;
use xic_cli::http;

use crate::common::{
    log, metric, peak_heap_mb, process_cpu_secs, quantile, secs, serve_args, thread_cpu_secs,
    Daemon, Outcome, WorkDir,
};
use crate::inputs::{self, batch, script, Corpus, EditGen};
use crate::trace::{self, Requests};

/// Documents, one per editor.
const DOCS: usize = 2;
/// Vertices per document.
const NODES: usize = 100_000;
/// Untimed scripts per editor before the window opens.
const WARMUP: usize = 1_000;
/// Daemon boots per run; `setup_s` is their median.
const BOOTS: usize = 3;
/// In a traced window, editor 0 drains `GET /trace` after this many of
/// its scripts: far below what fills a 65 536-event ring per thread.
const DRAIN_EVERY: usize = 1_000;

impl Corpus {
    /// The script stream of editor `j`.
    fn editor(&self, j: usize) -> EditGen<'_> {
        EditGen::new(&self.targets[j], self.seed * 1_000 + j as u64)
    }

    /// Boots a durable daemon on a fresh state directory and loads every
    /// document with `PUT`. Returns it with the seconds from start to
    /// loaded.
    fn boot(
        &self,
        work: &WorkDir,
        tag: &str,
        traced: bool,
        out: &mut Outcome,
    ) -> Result<(Daemon, f64), String> {
        let state = work.path(tag);
        let t = Instant::now();
        let daemon = Daemon::start(serve_args(&self.sigma, Some(&state), traced))?;
        for (d, doc) in self.docs.iter().enumerate() {
            let (status, body) = daemon.request("PUT", &format!("/docs/d{d}"), &doc.xml)?;
            out.check(status == 201 && body == self.reference[d], || {
                format!("PUT /docs/d{d}: status {status}, report differs from the library's")
            });
        }
        Ok((daemon, secs(t)))
    }
}

/// What one closed-loop window measured.
#[derive(Default)]
struct Window {
    /// Client-side latency of every timed script, in milliseconds.
    latencies_ms: Vec<f64>,
    /// Edits acknowledged inside the window.
    edits: u64,
    /// Edits acknowledged in each whole second of the window.
    per_second: Vec<u64>,
    /// Longest editor window, in seconds.
    wall: f64,
    /// Scripts each editor sent, warm-up included.
    sent: Vec<usize>,
    /// Edits each editor sent, warm-up included.
    sent_edits: Vec<u64>,
    /// Daemon CPU seconds: the process's minus the editors'.
    serve_cpu: f64,
    /// Heap acquisitions in the window, editors included.
    allocs: u64,
    /// Raw `GET /trace` drains (traced windows).
    drains: Vec<String>,
    /// Every 16th response body of editor 0 (traced windows).
    bodies: Vec<String>,
}

impl Window {
    fn edits_per_s(&self) -> f64 {
        self.edits as f64 / self.wall
    }

    /// The median over the window's whole seconds of edits acknowledged
    /// in that second: a burst of host CPU steal moves it less than the
    /// window average.
    fn median_edits_per_s(&self) -> f64 {
        quantile(
            &self
                .per_second
                .iter()
                .map(|&n| n as f64)
                .collect::<Vec<_>>(),
            0.5,
        )
    }
}

/// One editor's share of a window.
#[derive(Default)]
struct Editor {
    latencies_ms: Vec<f64>,
    edits: u64,
    per_second: Vec<u64>,
    wall: f64,
    sent: usize,
    sent_edits: u64,
    cpu: f64,
    drains: Vec<String>,
    bodies: Vec<String>,
    failed: u64,
    problems: Vec<String>,
    /// Keep every 16th response body (for the `write_response` replay).
    keep_bodies: bool,
}

impl Editor {
    fn post(&mut self, c: &mut http::HttpClient, path: &str, ops: &[inputs::Op]) -> Option<f64> {
        let body = script(ops);
        let t = Instant::now();
        let resp = c.request("POST", path, &body);
        let ms = secs(t) * 1e3;
        self.sent += 1;
        self.sent_edits += ops.len() as u64;
        match resp {
            Ok((200, text)) if text.starts_with("edit: ") => {
                if self.keep_bodies && self.bodies.len() < 2_000 && self.sent.is_multiple_of(16) {
                    self.bodies.push(text);
                }
                Some(ms)
            }
            other => {
                self.failed += 1;
                if self.problems.len() < 5 {
                    let got = match other {
                        Ok((status, text)) => {
                            format!("{status} {}", text.lines().next().unwrap_or(""))
                        }
                        Err(e) => e.to_string(),
                    };
                    self.problems.push(format!("POST {path}: {got}"));
                }
                None
            }
        }
    }

    fn drain(&mut self, c: &mut http::HttpClient) {
        match c.request("GET", "/trace", "") {
            Ok((200, json)) => self.drains.push(json),
            other => {
                self.failed += 1;
                self.problems.push(format!("GET /trace: {other:?}"));
            }
        }
    }
}

/// Runs warm-up and then a `seconds`-long closed loop of both editors.
fn window(
    corpus: &Corpus,
    daemon: &Daemon,
    seconds: f64,
    traced: bool,
    out: &mut Outcome,
) -> Window {
    let barrier = Barrier::new(DOCS + 1);
    let (editors, serve_cpu, allocs) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..DOCS)
            .map(|j| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut ed = Editor {
                        latencies_ms: Vec::with_capacity(1 << 18),
                        keep_bodies: traced && j == 0,
                        ..Editor::default()
                    };
                    let path = format!("/docs/d{j}/edits");
                    let mut gen = corpus.editor(j);
                    let mut conn = daemon.connect();
                    if let Ok(c) = conn.as_mut() {
                        for _ in 0..WARMUP {
                            ed.post(c, &path, &gen.next_request());
                        }
                    }
                    barrier.wait();
                    if let (true, 0, Ok(c)) = (traced, j, conn.as_mut()) {
                        ed.drain(c);
                        ed.drains.clear();
                    }
                    barrier.wait();
                    let Ok(c) = conn.as_mut() else {
                        ed.failed += 1;
                        ed.problems.push(format!("editor {j}: cannot connect"));
                        return ed;
                    };
                    let cpu = thread_cpu_secs();
                    let sent0 = ed.sent;
                    let start = Instant::now();
                    while secs(start) < seconds {
                        let ops = gen.next_request();
                        if let Some(ms) = ed.post(c, &path, &ops) {
                            ed.latencies_ms.push(ms);
                            ed.edits += ops.len() as u64;
                            let second = start.elapsed().as_secs() as usize;
                            if second >= ed.per_second.len() {
                                ed.per_second.resize(second + 1, 0);
                            }
                            ed.per_second[second] += ops.len() as u64;
                        }
                        if traced && j == 0 && (ed.sent - sent0).is_multiple_of(DRAIN_EVERY) {
                            ed.drain(c);
                        }
                    }
                    ed.wall = secs(start);
                    ed.cpu = thread_cpu_secs() - cpu;
                    ed
                })
            })
            .collect();
        barrier.wait();
        barrier.wait();
        let cpu = process_cpu_secs();
        let allocs = xic::obs::alloc::stats().count;
        let editors: Vec<Editor> = handles
            .into_iter()
            .map(|h| h.join().expect("editor thread"))
            .collect();
        let serve_cpu = process_cpu_secs() - cpu - editors.iter().map(|e| e.cpu).sum::<f64>();
        (editors, serve_cpu, xic::obs::alloc::stats().count - allocs)
    });
    let mut w = Window {
        serve_cpu,
        allocs,
        ..Window::default()
    };
    w.per_second.resize(seconds as usize, 0);
    for ed in editors {
        out.attempted += ed.sent as u64;
        out.failed += ed.failed;
        out.problems.extend(ed.problems);
        w.latencies_ms.extend(ed.latencies_ms);
        w.edits += ed.edits;
        for (total, n) in w.per_second.iter_mut().zip(&ed.per_second) {
            *total += n;
        }
        w.wall = w.wall.max(ed.wall);
        w.sent.push(ed.sent);
        w.sent_edits.push(ed.sent_edits);
        w.drains.extend(ed.drains);
        w.bodies.extend(ed.bodies);
    }
    w
}

/// The correctness gate after a window: each document's report equals an
/// in-process [`LiveValidator`] mirror that applied the same scripts, and
/// the daemon's per-doc `edits` ledger counts every edit sent. Returns
/// the mirror's `apply_batch` times in microseconds, split into 1-edit
/// and 16-edit batches.
fn check(corpus: &Corpus, daemon: &Daemon, w: &Window, out: &mut Outcome) -> (Vec<f64>, Vec<f64>) {
    let ledger = daemon
        .request("GET", "/metrics.json", "")
        .and_then(|(_, json)| Metrics::parse_json(&json));
    let (mut one, mut sixteen) = (Vec::new(), Vec::new());
    for (j, doc) in corpus.docs.iter().enumerate() {
        match &ledger {
            Ok(m) => {
                let counted = m.counter(&format!("edits#doc=d{j}"));
                out.check(counted == w.sent_edits[j], || {
                    format!(
                        "doc d{j}: daemon counted {counted} edits, editor sent {}",
                        w.sent_edits[j]
                    )
                });
            }
            Err(e) => out.problem(format!("GET /metrics.json: {e}")),
        }
        let served = daemon.request("GET", &format!("/docs/d{j}/report"), "");
        let parsed = parse_document(&doc.xml).expect("generated XML parses");
        let validator = Validator::new(&doc.dtdc);
        let mut live = LiveValidator::new(&validator, parsed.tree);
        let mut gen = corpus.editor(j);
        let mut applied = true;
        for _ in 0..w.sent[j] {
            let edits = batch(&gen.next_request());
            let t = Instant::now();
            applied &= live.apply_batch(&edits).is_ok();
            let us = secs(t) * 1e6;
            if edits.len() == 1 {
                one.push(us)
            } else {
                sixteen.push(us)
            }
        }
        let expected = live.report().to_string();
        out.check(
            applied && matches!(&served, Ok((200, r)) if *r == expected),
            || format!("doc d{j}: daemon report differs from the in-process mirror"),
        );
    }
    (one, sixteen)
}

/// The end-to-end run.
pub fn run(seed: u64, seconds: f64, out: &mut Outcome) -> Result<(), String> {
    let work = WorkDir::create("edit-stream")?;
    log("edit-stream: inputs");
    let corpus = Corpus::new(DOCS, NODES, seed, 0, &work)?;
    log("edit-stream: boots");
    let mut boots = Vec::new();
    let mut daemon = None;
    for b in 0..BOOTS {
        let (d, t) = corpus.boot(&work, &format!("state{b}"), false, out)?;
        boots.push(t);
        if b + 1 < BOOTS {
            d.shutdown()?;
        } else {
            daemon = Some(d);
        }
    }
    let daemon = daemon.expect("at least one boot");
    log("edit-stream: window");
    xic::obs::alloc::reset_peak();
    let w = window(&corpus, &daemon, seconds, false, out);
    let heap = peak_heap_mb();
    log("edit-stream: checks");
    check(&corpus, &daemon, &w, out);
    daemon.shutdown()?;
    out.metrics = vec![
        metric(
            "edit_p50_ms",
            quantile(&w.latencies_ms, 0.5),
            "ms",
            "client latency of all edit scripts",
        ),
        metric(
            "edits_per_s",
            w.median_edits_per_s(),
            "1/s",
            "acknowledged edits per second, median over the window's seconds",
        ),
        metric(
            "setup_s",
            quantile(&boots, 0.5),
            "s",
            "daemon start to both documents loaded, median of 3 boots",
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
            "edit_p90_ms",
            quantile(&w.latencies_ms, 0.9),
            "ms",
            "p90 client latency of all edit scripts",
        ),
        metric(
            "samples",
            w.latencies_ms.len() as f64,
            "count",
            "timed edit scripts",
        ),
    ];
    Ok(())
}

/// The per-layer profile: an untraced window (CPU, allocations, the
/// mirror's `apply_batch` replay), a traced window (span self times and
/// coverage), each half of `seconds`, then replays of the HTTP framing
/// and the WAL append.
pub fn profile(seed: u64, seconds: f64, out: &mut Outcome) -> Result<(), String> {
    let work = WorkDir::create("edit-profile")?;
    let corpus = Corpus::new(DOCS, NODES, seed, 0, &work)?;

    log("edit-stream profile: untraced window");
    let (daemon, _) = corpus.boot(&work, "plain", false, out)?;
    let plain = window(&corpus, &daemon, seconds / 2.0, false, out);
    let (one, sixteen) = check(&corpus, &daemon, &plain, out);
    daemon.shutdown()?;

    log("edit-stream profile: traced window");
    let (daemon, _) = corpus.boot(&work, "traced", true, out)?;
    let traced = window(&corpus, &daemon, seconds / 2.0, true, out);
    let coalesced = daemon
        .request("GET", "/metrics.json", "")
        .and_then(|(_, json)| Metrics::parse_json(&json))
        .map(|m| {
            let sum = |key: &str| {
                (0..DOCS)
                    .map(|j| m.counter(&format!("{key}#doc=d{j}")))
                    .sum::<u64>()
            };
            sum("edit.coalesced") as f64 / sum("edit.count") as f64
        })?;
    let (_, last) = daemon.request("GET", "/trace", "")?;
    daemon.shutdown()?;

    log("edit-stream profile: reading the trace");
    let mut reqs = Requests::default();
    for drain in traced.drains.iter().chain([&last]) {
        reqs.add_drain(drain)?;
    }
    if reqs.dropped {
        out.problem("the trace ring overflowed: drain more often".into());
    }
    let (mut dispatch_self, mut covered) = (Vec::new(), 0.0);
    let mut traced_edits = 0;
    for spans in reqs.with_span("http.route.edits") {
        traced_edits += 1;
        covered += trace::covered(spans);
        if let Some(us) =
            trace::self_time(spans, "serve.shard_dispatch", &["edit.batch", "wal.append"])
        {
            dispatch_self.push(us);
        }
    }
    let timed = traced.latencies_ms.len();
    out.check(traced_edits == timed, || {
        format!("trace holds {traced_edits} edit requests, the window timed {timed}")
    });
    let client_us: f64 = traced.latencies_ms.iter().sum::<f64>() * 1e3;

    log("edit-stream profile: replays");
    // Replays of the HTTP framing on editor 0's first scripts and kept
    // responses, and of the WAL append on its batches.
    let mut gen = corpus.editor(0);
    let scripts: Vec<Vec<inputs::Op>> = (0..plain.sent[0].min(20_000))
        .map(|_| gen.next_request())
        .collect();
    let mut read_us = Vec::with_capacity(scripts.len());
    for ops in &scripts {
        let body = script(ops);
        let raw = format!(
            "POST /docs/d0/edits HTTP/1.1\r\nHost: xic\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let mut r = Cursor::new(raw.as_bytes());
        let t = Instant::now();
        let parsed = http::read_request(&mut r, usize::MAX);
        read_us.push(secs(t) * 1e6);
        out.check(parsed.is_ok_and(|req| req.body == body), || {
            "read_request replay".into()
        });
    }
    let mut write_us = Vec::with_capacity(traced.bodies.len());
    let mut sink = Vec::new();
    for body in &traced.bodies {
        sink.clear();
        let t = Instant::now();
        let ok = http::write_response(&mut sink, "200 OK", "text/plain; charset=utf-8", body, true);
        write_us.push(secs(t) * 1e6);
        out.check(ok.is_ok(), || "write_response replay".into());
    }
    let (mut wal, _) =
        Wal::open(work.path("replay.wal"), FsyncPolicy::Always).map_err(|e| e.to_string())?;
    let mut append_us = Vec::new();
    let mut wal_edits = 0;
    for ops in scripts.iter().take(3_000) {
        let edits = batch(ops);
        wal_edits += edits.len();
        let t = Instant::now();
        let ok = wal.append(&edits);
        append_us.push(secs(t) * 1e6);
        out.check(ok.is_ok(), || "Wal::append replay".into());
    }
    let plain_edits = plain.edits as f64;
    out.notes = vec![
        metric(
            "edit_p50_ms",
            quantile(&plain.latencies_ms, 0.5),
            "ms",
            "untraced window: client latency of all edit scripts",
        ),
        metric(
            "edit_p90_ms",
            quantile(&plain.latencies_ms, 0.9),
            "ms",
            "untraced window",
        ),
        metric(
            "edits_per_s",
            plain.median_edits_per_s(),
            "1/s",
            "untraced window: median over its seconds",
        ),
    ];
    out.metrics = vec![
        metric(
            "http.read_request_us",
            quantile(&read_us, 0.5),
            "us",
            "edit_p50_ms (edit-stream)",
        ),
        metric(
            "http.write_response_us",
            quantile(&write_us, 0.5),
            "us",
            "edit_p50_ms (edit-stream)",
        ),
        metric(
            "serve.dispatch_self_us_p50",
            quantile(&dispatch_self, 0.5),
            "us",
            "edit_p50_ms (edit-stream)",
        ),
        metric(
            "serve.dispatch_self_us_p99",
            quantile(&dispatch_self, 0.99),
            "us",
            "edit_p90_ms (edit-stream)",
        ),
        metric(
            "serve.unattributed_frac",
            1.0 - covered / client_us,
            "ratio",
            "share of edit_p50_ms no daemon span covers",
        ),
        metric(
            "serve.cpu_us_per_edit",
            plain.serve_cpu * 1e6 / plain_edits,
            "us",
            "edits_per_s (edit-stream)",
        ),
        metric(
            "serve.alloc_per_edit",
            plain.allocs as f64 / plain_edits,
            "count",
            "edits_per_s (edit-stream)",
        ),
        metric(
            "live.apply_batch_us_1",
            quantile(&one, 0.5),
            "us",
            "edit_p50_ms (edit-stream)",
        ),
        metric(
            "live.apply_batch_us_16",
            quantile(&sixteen, 0.5),
            "us",
            "edit_p90_ms (edit-stream)",
        ),
        metric(
            "live.coalesced_frac",
            coalesced,
            "ratio",
            "edits_per_s (edit-stream)",
        ),
        metric(
            "wal.append_us_p50",
            quantile(&append_us, 0.5),
            "us",
            "edit_p50_ms (edit-stream)",
        ),
        metric(
            "wal.append_us_p99",
            quantile(&append_us, 0.99),
            "us",
            "edit_p90_ms (edit-stream)",
        ),
        metric(
            "wal.bytes_per_edit",
            wal.len() as f64 / wal_edits as f64,
            "B",
            "edits_per_s (edit-stream)",
        ),
        metric(
            "obs.trace_overhead_frac",
            1.0 - traced.edits_per_s() / plain.edits_per_s(),
            "ratio",
            "every metric, when tracing is on",
        ),
    ];
    Ok(())
}
