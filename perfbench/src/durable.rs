//! `durable-epochs`: a SCUE engine on a file-backed image. A request is
//! one epoch: `PERSISTS_PER_EPOCH` persists, then `checkpoint`.
//!
//! Set-up generates `STREAM_EPOCHS` epochs of seeded persists and
//! creates the image. The loop runs epochs on that one image, cycling
//! through the stream, until the budget is spent (and at least one full
//! stream). The `sim_` metrics are read after exactly `STREAM_EPOCHS`
//! epochs, so they do not depend on how many epochs fit in the budget.
//! After the last epoch the run drops the engine, reopens the image with
//! `open_durable`, runs `recover()` (which must return `Clean`) and
//! audits every persisted line against a shadow map. The image lives
//! under the benchmark's own directory and is removed when the run ends.

use crate::layers::{self, REQUEST_SPAN};
use crate::report::{self, LatencyHist, Report, RequestLog};
use crate::Args;
use scue::{
    LatencyStats, RecoveryOutcome, RecoveryReport, SchemeKind, SecureMemConfig, SecureMemory,
};
use scue_itree::TreeGeometry;
use scue_nvm::LineAddr;
use scue_util::obs::span;
use scue_util::rng::SplitMix64;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Persists per epoch (request). Every epoch dirties nearly every page
/// of the small data region, so the checkpoint's I/O is fixed and the
/// engine does most of an epoch's host work; epochs stay short (about
/// 1.4 ms) so few of them overlap a host scheduling hiccup, which keeps
/// the p99 steady.
pub const PERSISTS_PER_EPOCH: usize = 2000;
/// Epochs of pre-generated persists; the loop cycles through them.
const STREAM_EPOCHS: usize = 300;
/// Epochs every end-to-end run holds, however long they take, so the
/// reported p99 is a median over at least ten windows.
const MIN_EPOCHS: usize = 1000;
/// Epochs per window of the end-to-end p99 (about 0.14 s). Every epoch
/// does the same work, so `req_p99_us` is the median of the windows'
/// p99s: a burst of host slowness then lifts only the windows it hits.
const P99_WINDOW: usize = 100;
/// Leaves of the durable geometry (64 data lines each): a 256 KB data
/// region.
const LEAVES: u64 = 64;

fn config() -> SecureMemConfig {
    SecureMemConfig {
        geometry: TreeGeometry::tiny(LEAVES),
        ..SecureMemConfig::paper(SchemeKind::Scue)
    }
}

/// The seeded persist stream: `(address, fill)` per persist.
fn stream(seed: u64) -> Vec<(LineAddr, u8)> {
    let mut sm = SplitMix64::new(seed ^ 0xD0_4AB1E);
    let lines = LEAVES * 64;
    (0..PERSISTS_PER_EPOCH * STREAM_EPOCHS)
        .map(|_| {
            let addr = LineAddr::new(sm.next_u64() % lines);
            (addr, (sm.next_u64() % 251) as u8 + 1)
        })
        .collect()
}

/// The image file; removed on drop, so every exit path cleans up.
struct Image {
    path: PathBuf,
}

impl Image {
    /// An image path unique to this process and `role`.
    fn new(role: &str) -> std::io::Result<Self> {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(".run");
        std::fs::create_dir_all(&dir)?;
        Ok(Self {
            path: dir.join(format!("{role}-{}.img", std::process::id())),
        })
    }

    /// Set-up: a fresh image at this path and an engine on it. Never
    /// call it on a used image: truncating one (or having just unlinked
    /// one) makes the set-up's fsync wait on the disk.
    fn create(&self) -> Result<SecureMemory, String> {
        SecureMemory::create_durable(config(), &self.path)
            .map_err(|e| format!("create_durable: {e:?}"))
    }
}

impl Drop for Image {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
        if let Some(dir) = self.path.parent() {
            // Only succeeds once no other run's image is left in it.
            let _ = std::fs::remove_dir(dir);
        }
    }
}

/// The filesystem type the image lives on, from `/proc/self/mounts`.
fn filesystem_of(path: &Path) -> String {
    let dir = path
        .parent()
        .and_then(|d| d.canonicalize().ok())
        .unwrap_or_default();
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let _device = f.next()?;
            let mount = f.next()?;
            let fstype = f.next()?;
            dir.starts_with(mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".to_string(), |(_, fstype)| fstype)
}

/// Outside-timed parts of a session (filled in detail mode).
#[derive(Debug, Default)]
struct Times {
    checkpoint_ns: LatencyHist,
    persist_ns: LatencyHist,
    open: Duration,
    recover: Duration,
    image_bytes: u64,
    engine: layers::EngineTotals,
}

/// One engine's life on one image.
struct Session {
    mem: SecureMemory,
    now: u64,
    shadow: BTreeMap<u64, u8>,
    epochs: usize,
    /// Write latencies and cycle after exactly `STREAM_EPOCHS` epochs.
    reference: Option<(LatencyStats, u64)>,
}

impl Session {
    fn new(mem: SecureMemory) -> Self {
        Self {
            mem,
            now: 0,
            shadow: BTreeMap::new(),
            epochs: 0,
            reference: None,
        }
    }

    /// Runs the next epoch of `ops` as one request; false on any error.
    fn epoch(
        &mut self,
        ops: &[(LineAddr, u8)],
        log: &mut RequestLog,
        times: &mut Times,
        detail: bool,
    ) -> bool {
        let first = (self.epochs % STREAM_EPOCHS) * PERSISTS_PER_EPOCH;
        let epoch = &ops[first..first + PERSISTS_PER_EPOCH];
        let ok = log.time(|| {
            let _span = span::enter(REQUEST_SPAN);
            for &(addr, fill) in epoch {
                let start = detail.then(Instant::now);
                match self.mem.persist_data(addr, [fill; 64], self.now) {
                    Ok(done) => self.now = done,
                    Err(_) => return false,
                }
                if let Some(start) = start {
                    times.persist_ns.record(start.elapsed().as_nanos() as u64);
                }
                self.shadow.insert(addr.raw(), fill);
            }
            let sealed = times.checkpoint_ns.time(|| self.mem.checkpoint(self.now));
            match sealed {
                Ok(report) => {
                    self.now = self.now.max(report.flushed_at);
                    true
                }
                Err(_) => false,
            }
        });
        self.epochs += 1;
        if self.epochs == STREAM_EPOCHS {
            self.reference = Some((self.mem.stats().write_latency, self.now));
        }
        ok
    }

    /// Runs epochs until one fails, or until at least `STREAM_EPOCHS`
    /// have run and `done(epochs)` says stop.
    fn run(
        &mut self,
        ops: &[(LineAddr, u8)],
        log: &mut RequestLog,
        times: &mut Times,
        detail: bool,
        mut done: impl FnMut(usize) -> bool,
    ) {
        while !(self.epochs >= STREAM_EPOCHS && done(self.epochs)) {
            if !self.epoch(ops, log, times, detail) {
                break;
            }
        }
    }

    /// Drops the engine, reopens the image, recovers and audits every
    /// persisted line. A failure of any step fails one more request.
    fn close(
        self,
        image: &Image,
        log: &mut RequestLog,
        times: &mut Times,
    ) -> Result<RecoveryReport, String> {
        times.engine.add(
            &self.mem.stats(),
            self.mem.wpq_stats(),
            self.mem.pcm_counters(),
        );
        drop(self.mem);
        times.image_bytes = std::fs::metadata(&image.path).map_or(0, |m| m.len());
        let start = Instant::now();
        let mut mem = SecureMemory::open_durable(config(), &image.path)
            .map_err(|e| format!("open_durable: {e:?}"))?;
        times.open += start.elapsed();
        let start = Instant::now();
        let recovery = mem.recover();
        times.recover += start.elapsed();
        let mut t = 0;
        let intact = recovery.outcome == RecoveryOutcome::Clean
            && self
                .shadow
                .iter()
                .all(|(&raw, &fill)| match mem.read_data(LineAddr::new(raw), t) {
                    Ok((data, done)) => {
                        t = done;
                        data == [fill; 64]
                    }
                    Err(_) => false,
                });
        if !intact {
            log.failed += 1;
        }
        Ok(recovery)
    }
}

/// Runs the durable workload: the end-to-end loop or the traced run.
pub fn run(args: &Args) -> Result<Report, String> {
    let image = Image::new("durable").map_err(|e| format!("image directory: {e}"))?;
    let (first, first_setup) =
        report::timed_setup(|| image.create().map(|mem| (stream(args.seed), mem)));
    let (ops, mem) = first?;
    report::header(
        &args.workload,
        args.seed,
        &format!("one epoch of {PERSISTS_PER_EPOCH} persists + checkpoint"),
        &filesystem_of(&image.path),
    );
    if args.trace {
        return run_traced(&image, &ops, mem, first_setup);
    }
    let mut log = RequestLog::windowed(P99_WINDOW);
    let mut times = Times::default();
    let mut session = Session::new(mem);
    let start = Instant::now();
    session.run(&ops, &mut log, &mut times, false, |epochs| {
        epochs >= MIN_EPOCHS && start.elapsed() >= args.budget
    });
    let wall = start.elapsed();
    let reference = session.reference;
    report::footer(log.attempted(), 1, wall);
    session.close(&image, &mut log, &mut times)?;
    let peak_rss = report::peak_rss_mb();
    // Each repeat sets up on a path of its own: `image` is used.
    let mut spares = Vec::new();
    let setup_time = report::setup_median(first_setup, || {
        let spare = Image::new(&format!("setup{}", spares.len()))
            .map_err(|e| format!("image directory: {e}"))?;
        let mem = spare.create();
        spares.push(spare);
        mem.map(|mem| (stream(args.seed), mem))
    });

    let mut report = Report::default();
    report.push("setup_s", setup_time.as_secs_f64(), "s");
    log.push_metrics(&mut report, wall);
    report.push("peak_rss_mb", peak_rss, "MB");
    let (writes, end) = reference.unwrap_or_default();
    report.push("sim_write_lat_cycles", writes.mean(), "cycles");
    report.push("sim_exec_cycles", end as f64, "cycles");
    Ok(report)
}

fn run_traced(
    image: &Image,
    ops: &[(LineAddr, u8)],
    mem: SecureMemory,
    setup_time: Duration,
) -> Result<Report, String> {
    let mut report = Report::default();
    let mut log = RequestLog::default();
    let mut times = Times::default();
    let mut session = Session::new(mem);
    let start = Instant::now();
    session.run(ops, &mut log, &mut times, true, |epochs| {
        epochs >= MIN_EPOCHS / 2
    });
    let reference = session.reference;
    let recovery = session.close(image, &mut log, &mut times)?;
    let untraced = start.elapsed();

    let traced_image = Image::new("traced").map_err(|e| format!("image directory: {e}"))?;
    let mut again = Session::new(traced_image.create()?);
    let mut traced_log = RequestLog::default();
    let traced = layers::traced(|| {
        let mut scratch = Times::default();
        again.run(ops, &mut traced_log, &mut scratch, false, |epochs| {
            epochs >= MIN_EPOCHS / 2
        });
        let reproduced = again.reference == reference;
        again
            .close(&traced_image, &mut traced_log, &mut scratch)
            .map(|_| reproduced)
    });
    let reproduced = traced.value.clone()?;
    report.attempted = log.attempted() + traced_log.attempted();
    report.failed = log.failed + traced_log.failed + u64::from(!reproduced);

    report.push("workloads.gen_ms", setup_time.as_secs_f64() * 1e3, "ms");
    report.push(
        "sim.runner.allocs_per_req",
        traced.allocs as f64 / traced_log.attempted().max(1) as f64,
        "count",
    );
    times.engine.push(&mut report);
    report.push(
        "nvm.checkpoint.us_p50",
        times.checkpoint_ns.percentile(0.5) / 1e3,
        "us",
    );
    report.push(
        "nvm.checkpoint.us_p99",
        times.checkpoint_ns.percentile(0.99) / 1e3,
        "us",
    );
    report.push(
        "nvm.checkpoint.image_mb",
        times.image_bytes as f64 / (1024.0 * 1024.0),
        "MB",
    );
    report.push(
        "nvm.checkpoint.open_ms",
        times.open.as_secs_f64() * 1e3,
        "ms",
    );
    report.push(
        "nvm.checkpoint.durable_persist_us_p50",
        times.persist_ns.percentile(0.5) / 1e3,
        "us",
    );
    report.push(
        "core.recovery.leaves_checked",
        recovery.leaves_checked as f64,
        "count",
    );
    report.push(
        "core.recovery.metadata_fetches",
        recovery.metadata_fetches as f64,
        "count",
    );
    report.push("core.recovery.sim_ns", recovery.modelled_ns as f64, "ns");
    report.push(
        "core.recovery.repaired_leaves",
        recovery.repaired_leaves as f64,
        "count",
    );
    report.push("core.recovery.ms", times.recover.as_secs_f64() * 1e3, "ms");
    traced.push_common(&mut report, untraced);
    layers::push_primitives(&mut report);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epochs_reopen_clean_and_audit_intact() {
        let ops = stream(4);
        let image = Image::new("test").unwrap();
        let mut session = Session::new(image.create().unwrap());
        let mut log = RequestLog::default();
        let mut times = Times::default();
        for _ in 0..3 {
            assert!(session.epoch(&ops, &mut log, &mut times, true));
        }
        let report = session.close(&image, &mut log, &mut times).unwrap();
        assert_eq!(report.outcome, RecoveryOutcome::Clean);
        assert_eq!((log.attempted(), log.failed), (3, 0));
        assert_eq!(times.checkpoint_ns.count(), 3);
    }
}
