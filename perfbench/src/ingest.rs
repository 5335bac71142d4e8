//! `ingest-recover`: whole-document writes and reads against a durable
//! daemon, one request per fresh connection, after the daemon has
//! recovered from a crash image (snapshot plus a non-empty WAL per doc).

use std::path::{Path, PathBuf};
use std::time::Instant;

use xic::prelude::*;

use crate::common::{
    copy_dir, log, metric, peak_heap_mb, process_cpu_secs, quantile, secs, serve_args, timed,
    timed_cpu, Daemon, Outcome, WorkDir,
};
use crate::inputs::{self, batch, script, Corpus, EditGen};
use crate::trace::Requests;

/// Document ids the `PUT`s cycle over.
const IDS: usize = 4;
/// Vertices per document.
const NODES: usize = 100_000;
/// One order in this many gets a dangling reference (about 1%).
const DANGLE_EVERY: usize = 100;
/// `GET /docs/{id}/report` requests after each `PUT`.
const REPORTS_PER_PUT: usize = 8;
/// 64-edit batches per document before the crash image is taken.
const IMAGE_BATCHES: usize = 3;
/// Untimed rounds of [`IDS`] `PUT` cycles between recovery and the timed
/// window, so that the window starts with the daemon's heap grown.
const WARMUP_ROUNDS: usize = 1;
/// Recovery boots per run; `setup_s` is the median of their CPU times.
const BOOTS: usize = 5;
/// Repetitions of each in-process replay; the median is reported.
const REPS: usize = 3;

impl Corpus {
    /// The 64-edit batches document `id` receives before the crash image.
    fn image_batches(&self, id: usize) -> Vec<Vec<inputs::Op>> {
        let mut gen = EditGen::new(&self.targets[id], self.seed * 7 + id as u64);
        (0..IMAGE_BATCHES).map(|_| gen.next_script(64)).collect()
    }

    /// `PUT`s document `doc` as id `id`, then reads its report
    /// [`REPORTS_PER_PUT`] times, each on a fresh connection. Returns the
    /// `PUT`'s wall and process CPU milliseconds and the report latencies
    /// in milliseconds.
    fn cycle(
        &self,
        daemon: &Daemon,
        id: usize,
        doc: usize,
        created: bool,
        out: &mut Outcome,
    ) -> (f64, f64, Vec<f64>) {
        let path = format!("/docs/d{id}");
        let (resp, put, put_cpu) = timed_cpu(|| daemon.request("PUT", &path, &self.docs[doc].xml));
        let want = if created { 201 } else { 200 };
        out.check(
            matches!(&resp, Ok((s, body)) if *s == want && *body == self.reference[doc]),
            || format!("PUT {path}: {:?}", resp.as_ref().map(|(s, _)| s)),
        );
        let report = format!("{path}/report");
        let reads = (0..REPORTS_PER_PUT)
            .map(|_| {
                let (resp, t) = timed(|| daemon.request("GET", &report, ""));
                out.check(
                    matches!(&resp, Ok((200, body)) if *body == self.reference[doc]),
                    || format!("GET {report}: report differs from the library's"),
                );
                t * 1e3
            })
            .collect();
        (put * 1e3, put_cpu * 1e3, reads)
    }
}

/// Which document round `i` of the ingest loop writes to id `i % IDS`:
/// every round shifts by one, so each `PUT` replaces a document with
/// a different one.
fn doc_of(i: usize) -> usize {
    (i % IDS + i / IDS + 1) % IDS
}

/// Builds the crash image: a durable daemon ingests every document and
/// takes [`IMAGE_BATCHES`] edit batches per document, then its state
/// directory is copied while it still runs. Returns the image and each
/// document's report at the time of the copy.
fn crash_image(
    corpus: &Corpus,
    work: &WorkDir,
    out: &mut Outcome,
) -> Result<(PathBuf, Vec<String>), String> {
    let live = work.path("live");
    let daemon = Daemon::start(serve_args(&corpus.sigma, Some(&live), false))?;
    let mut reports = Vec::new();
    for id in 0..IDS {
        corpus.cycle(&daemon, id, id, true, out);
        for ops in corpus.image_batches(id) {
            let (status, _) =
                daemon.request("POST", &format!("/docs/d{id}/edits"), &script(&ops))?;
            out.check(status == 200, || {
                format!("POST /docs/d{id}/edits: {status}")
            });
        }
        reports.push(daemon.request("GET", &format!("/docs/d{id}/report"), "")?.1);
    }
    let image = work.path("image");
    copy_dir(&live, &image).map_err(|e| format!("copy state dir: {e}"))?;
    daemon.shutdown()?;
    Ok((image, reports))
}

/// Boots a daemon on a fresh copy of `image` and returns it with the
/// wall and process CPU seconds from start until `GET /healthz` answered
/// 200, after checking
/// that every recovered report equals its pre-crash report.
fn recover(
    corpus: &Corpus,
    image: &Path,
    dir: &Path,
    pre: &[String],
    out: &mut Outcome,
) -> Result<(Daemon, f64, f64), String> {
    copy_dir(image, dir).map_err(|e| format!("copy crash image: {e}"))?;
    let (daemon, ready, ready_cpu) = timed_cpu(|| {
        let daemon = Daemon::start(serve_args(&corpus.sigma, Some(dir), false))?;
        daemon.wait_ready()?;
        Ok::<_, String>(daemon)
    });
    let daemon = daemon?;
    for (id, want) in pre.iter().enumerate() {
        let got = daemon.request("GET", &format!("/docs/d{id}/report"), "")?;
        out.check(got.0 == 200 && got.1 == *want, || {
            format!("recovered d{id}: report differs from the pre-crash one")
        });
    }
    Ok((daemon, ready, ready_cpu))
}

/// The end-to-end run.
pub fn run(seed: u64, seconds: f64, out: &mut Outcome) -> Result<(), String> {
    let work = WorkDir::create("ingest-recover")?;
    log("ingest-recover: inputs");
    let corpus = Corpus::new(IDS, NODES, seed, DANGLE_EVERY, &work)?;
    log("ingest-recover: crash image");
    let (image, pre) = crash_image(&corpus, &work, out)?;
    log("ingest-recover: recovery boots");
    let (mut boots, mut boot_cpus) = (Vec::new(), Vec::new());
    let mut daemon = None;
    for b in 0..BOOTS {
        let (d, t, c) = recover(&corpus, &image, &work.path(&format!("boot{b}")), &pre, out)?;
        boots.push(t);
        boot_cpus.push(c);
        if b + 1 < BOOTS {
            d.shutdown()?;
        } else {
            daemon = Some(d);
        }
    }
    let daemon = daemon.expect("at least one boot");
    log("ingest-recover: warm-up");
    for i in 0..WARMUP_ROUNDS * IDS {
        corpus.cycle(&daemon, i % IDS, doc_of(i), false, out);
    }
    log("ingest-recover: window");
    xic::obs::alloc::reset_peak();
    let (mut puts, mut put_cpus, mut reads, mut nodes) = (Vec::new(), Vec::new(), Vec::new(), 0);
    let cpu = process_cpu_secs();
    let start = Instant::now();
    let mut i = WARMUP_ROUNDS * IDS;
    while secs(start) < seconds {
        let doc = doc_of(i);
        let (put, put_cpu, r) = corpus.cycle(&daemon, i % IDS, doc, false, out);
        puts.push(put);
        put_cpus.push(put_cpu);
        reads.extend(r);
        nodes += corpus.docs[doc].nodes;
        i += 1;
    }
    let wall = secs(start);
    let cpu = process_cpu_secs() - cpu;
    let heap = peak_heap_mb();
    daemon.shutdown()?;
    out.metrics = vec![
        metric(
            "cpu_p50_ms",
            quantile(&put_cpus, 0.5),
            "ms",
            "ingest_p50_ms in CPU: process CPU of a durable PUT of 10^5 nodes",
        ),
        metric(
            "nodes_per_cpu_s",
            nodes as f64 / cpu,
            "1/s",
            "nodes ingested per process CPU second, report reads included",
        ),
        metric(
            "setup_s",
            quantile(&boot_cpus, 0.5),
            "s",
            "recover_s in CPU: process CPU of a boot on the crash image until \
             GET /healthz answers 200, median of 5",
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
            "ingest_p50_ms",
            quantile(&puts, 0.5),
            "ms",
            "wall: durable PUT of 10^5 nodes up to its 200",
        ),
        metric(
            "nodes_per_s",
            nodes as f64 / wall,
            "1/s",
            "wall: nodes ingested per second, report reads included",
        ),
        metric(
            "report_p50_ms",
            quantile(&reads, 0.5),
            "ms",
            "wall: GET /docs/{id}/report, connect included",
        ),
        metric(
            "recover_s",
            quantile(&boots, 0.5),
            "s",
            "wall: the same boots, median of 5",
        ),
        metric("samples", puts.len() as f64, "count", "timed PUTs"),
    ];
    Ok(())
}

/// Median seconds of `REPS` runs of `f`.
fn median_secs<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..REPS {
        let (v, t) = timed(&mut f);
        times.push(t);
        last = Some(v);
    }
    (last.expect("REPS > 0"), quantile(&times, 0.5))
}

/// The per-layer profile: a traced ingest window for the accept-queue
/// wait, then in-process replays of one document through each layer a
/// `PUT` and a recovery cross.
pub fn profile(seed: u64, seconds: f64, out: &mut Outcome) -> Result<(), String> {
    let work = WorkDir::create("ingest-profile")?;
    log("ingest-recover profile: traced window");
    let corpus = Corpus::new(IDS, NODES, seed, DANGLE_EVERY, &work)?;

    let daemon = Daemon::start(serve_args(&corpus.sigma, Some(&work.path("traced")), true))?;
    let mut reqs = Requests::default();
    let start = Instant::now();
    let mut i = 0;
    while i < IDS || secs(start) < seconds / 2.0 {
        corpus.cycle(&daemon, i % IDS, doc_of(i), i < IDS, out);
        reqs.add_drain(&daemon.request("GET", "/trace", "")?.1)?;
        i += 1;
    }
    daemon.shutdown()?;
    if reqs.dropped {
        out.problem("the trace ring overflowed".into());
    }
    let queue_wait: Vec<f64> = reqs
        .by_req
        .values()
        .flatten()
        .filter(|s| s.name == "serve.queue_wait")
        .map(|s| s.dur)
        .collect();

    log("ingest-recover profile: replays");
    let doc = &corpus.docs[0];
    let validator = Validator::new(&doc.dtdc);
    let (parsed, parse_s) = median_secs(|| parse_document(&doc.xml).expect("generated XML parses"));
    let (live, init_s) = median_secs(|| LiveValidator::new(&validator, parsed.tree.clone()));
    let (report, report_s) = median_secs(|| live.report().to_string());
    out.check(report == corpus.reference[0], || {
        "LiveValidator::new report differs from the library's".into()
    });
    let (state, export_s) = median_secs(|| live.export_state());
    let (bytes, encode_s) = median_secs(|| encode_snapshot(&state, 0));
    let snap = work.path("snapshot.bin");
    let (written, write_s) = median_secs(|| write_snapshot(&snap, &state, 0));
    out.check(written.is_ok(), || "write_snapshot".into());
    let (read, read_s) = median_secs(|| read_snapshot(&snap));
    let (warm, from_state_s) = median_secs(|| LiveValidator::from_state(&validator, state.clone()));
    out.check(
        read.is_ok() && warm.is_ok_and(|w| w.report().to_string() == report),
        || "snapshot round trip changed the report".into(),
    );

    // WAL replay: the crash image's batches for doc 0, opened and applied
    // on top of the snapshot state.
    let wal_src = work.path("image.wal");
    {
        let (mut wal, _) = Wal::open(&wal_src, FsyncPolicy::Always).map_err(|e| e.to_string())?;
        for ops in corpus.image_batches(0) {
            wal.append(&batch(&ops)).map_err(|e| e.to_string())?;
        }
    }
    let mut replay_times = Vec::new();
    for r in 0..REPS {
        let copy = work.path(&format!("replay{r}.wal"));
        std::fs::copy(&wal_src, &copy).map_err(|e| e.to_string())?;
        let mut warm =
            LiveValidator::from_state(&validator, state.clone()).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let (_, batches) = Wal::open(&copy, FsyncPolicy::Always).map_err(|e| e.to_string())?;
        let applied = batches.iter().all(|(_, b)| warm.apply_batch(b).is_ok());
        replay_times.push(secs(t));
        out.check(applied && batches.len() == IMAGE_BATCHES, || {
            "WAL replay".into()
        });
    }

    let ms = |s: f64| s * 1e3;
    out.metrics = vec![
        metric(
            "serve.queue_wait_us",
            quantile(&queue_wait, 0.5),
            "us",
            "report_p50_ms (ingest-recover)",
        ),
        metric(
            "xml.parse_document_ms",
            ms(parse_s),
            "ms",
            "ingest_p50_ms, cpu_p50_ms (ingest-recover)",
        ),
        metric(
            "live.init_ms",
            ms(init_s),
            "ms",
            "ingest_p50_ms, cpu_p50_ms (ingest-recover)",
        ),
        metric(
            "live.report_ms",
            ms(report_s),
            "ms",
            "report_p50_ms (ingest-recover)",
        ),
        metric(
            "live.from_state_ms",
            ms(from_state_s),
            "ms",
            "recover_s, setup_s (ingest-recover)",
        ),
        metric(
            "snapshot.export_ms",
            ms(export_s),
            "ms",
            "ingest_p50_ms, cpu_p50_ms (ingest-recover)",
        ),
        metric(
            "snapshot.encode_ms",
            ms(encode_s),
            "ms",
            "ingest_p50_ms, cpu_p50_ms (ingest-recover)",
        ),
        metric(
            "snapshot.write_ms",
            ms(write_s),
            "ms",
            "ingest_p50_ms, cpu_p50_ms (ingest-recover)",
        ),
        metric(
            "snapshot.read_ms",
            ms(read_s),
            "ms",
            "recover_s, setup_s (ingest-recover)",
        ),
        metric(
            "snapshot.bytes_per_node",
            bytes.len() as f64 / doc.nodes as f64,
            "B",
            "cpu_p50_ms, setup_s (ingest-recover)",
        ),
        metric(
            "wal.replay_ms",
            ms(quantile(&replay_times, 0.5)),
            "ms",
            "recover_s, setup_s (ingest-recover)",
        ),
    ];
    Ok(())
}
