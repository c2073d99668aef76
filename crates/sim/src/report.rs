//! Machine-readable run reports: the simulator's stats as versioned
//! JSON.
//!
//! [`RunReport`] bundles a [`RunResult`] with the run's configuration
//! and an optional crash-recovery report, and renders the whole thing
//! as one JSON document (`scue-simulate --metrics-json PATH`). The
//! schema is versioned so downstream tooling can detect incompatible
//! changes; `scue-check-metrics` validates the invariants.

use crate::runner::RunResult;
use scue::{RecoveryReport, SchemeKind};
use scue_nvm::WpqStats;
use scue_util::obs::Json;
use scue_workloads::Workload;

/// Version stamped into every metrics document. Bump on any breaking
/// change to the layout below.
pub const METRICS_SCHEMA_VERSION: u64 = 1;

/// The run parameters echoed into the report, so a metrics file is
/// self-describing.
#[derive(Debug, Clone)]
pub struct ReportConfig {
    /// Update scheme evaluated.
    pub scheme: SchemeKind,
    /// Workload replayed.
    pub workload: Workload,
    /// Trace length requested per core.
    pub ops: u64,
    /// Trace-generator seed.
    pub seed: u64,
    /// Core count.
    pub cores: u64,
    /// Hash latency in cycles.
    pub hash_latency: u64,
    /// Whether eADR (cache flush-on-crash) was modelled.
    pub eadr: bool,
    /// Worker threads the run fanned out over. Provenance only: the
    /// measured results are byte-identical at any job count.
    pub jobs: u64,
}

impl ReportConfig {
    fn to_json(&self) -> Json {
        Json::obj()
            .with("scheme", Json::Str(self.scheme.to_string()))
            .with("workload", Json::Str(self.workload.name().to_string()))
            .with("ops", Json::U64(self.ops))
            .with("seed", Json::U64(self.seed))
            .with("cores", Json::U64(self.cores))
            .with("hash_latency", Json::U64(self.hash_latency))
            .with("eadr", Json::Bool(self.eadr))
            .with("jobs", Json::U64(self.jobs))
    }
}

/// One simulation run, ready to serialise.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The run parameters.
    pub config: ReportConfig,
    /// The measured result.
    pub result: RunResult,
    /// Crash-recovery report, when the run crashed and recovered.
    pub recovery: Option<RecoveryReport>,
}

fn wpq_json(stats: &WpqStats) -> Json {
    Json::obj()
        .with("enqueued", Json::U64(stats.enqueued))
        .with("full_stalls", Json::U64(stats.full_stalls))
        .with("max_occupancy", Json::U64(stats.max_occupancy as u64))
        .with("coalesced", Json::U64(stats.coalesced))
}

fn recovery_json(report: &RecoveryReport) -> Json {
    let phase = |fetches: u64, ns: u64| {
        Json::obj()
            .with("fetches", Json::U64(fetches))
            .with("ns", Json::U64(ns))
    };
    let p = &report.phases;
    Json::obj()
        .with("outcome", Json::Str(format!("{:?}", report.outcome)))
        .with("success", Json::Bool(report.outcome.is_success()))
        .with("leaves_checked", Json::U64(report.leaves_checked))
        .with("repaired_leaves", Json::U64(report.repaired_leaves))
        .with("metadata_fetches", Json::U64(report.metadata_fetches))
        .with("modelled_ns", Json::U64(report.modelled_ns))
        .with(
            "phases",
            Json::obj()
                .with("scan", phase(p.scan_fetches, p.scan_ns()))
                .with("counter_summing", phase(p.summing_fetches, p.summing_ns()))
                .with("re_hash", phase(p.rehash_fetches, p.rehash_ns())),
        )
}

impl RunReport {
    /// The whole report as one JSON document.
    pub fn to_json(&self) -> Json {
        let r = &self.result;
        let e = &r.engine;

        let totals = Json::obj()
            .with("cycles", Json::U64(r.cycles))
            .with("ops", Json::U64(r.ops))
            .with("persists", Json::U64(e.persists));

        let mem = Json::obj()
            .with("user_reads", Json::U64(e.mem.user_reads))
            .with("user_writes", Json::U64(e.mem.user_writes))
            .with("meta_reads", Json::U64(e.mem.meta_reads))
            .with("meta_writes", Json::U64(e.mem.meta_writes))
            .with("total", Json::U64(e.mem.total()));

        let mdcache = Json::obj()
            .with("hits", Json::U64(e.mdcache.hits))
            .with("misses", Json::U64(e.mdcache.misses))
            .with("fills", Json::U64(e.mdcache.fills))
            .with("hit_rate", Json::F64(e.mdcache.hit_rate()));

        let wpq = Json::obj()
            .with("user", wpq_json(&r.wpq.0))
            .with("metadata", wpq_json(&r.wpq.1));

        // The plain monotonic counts, keys in sorted order.
        let counters = Json::obj()
            .with("hashes", Json::U64(e.hashes))
            .with(
                "hierarchy_mem_accesses",
                Json::U64(r.hierarchy.mem_accesses),
            )
            .with("l1_hits", Json::U64(r.hierarchy.l1_hits))
            .with("l2_hits", Json::U64(r.hierarchy.l2_hits))
            .with("l3_hits", Json::U64(r.hierarchy.l3_hits))
            .with("overflows", Json::U64(e.overflows))
            .with("pcm_reads", Json::U64(r.pcm.reads))
            .with("pcm_row_hits", Json::U64(r.pcm.row_hits))
            .with("pcm_writes", Json::U64(r.pcm.writes));

        let series = Json::Arr(r.samples.iter().map(|s| s.to_json()).collect());

        // Surface ring-buffer truncation: a consumer must never mistake
        // a truncated event trace for a complete one.
        let trace = Json::obj()
            .with("recorded", Json::U64(r.trace_recorded))
            .with("dropped_events", Json::U64(r.trace_dropped));

        let mut doc = Json::obj()
            .with("schema_version", Json::U64(METRICS_SCHEMA_VERSION))
            .with("kind", Json::Str("scue-metrics".to_string()))
            .with("config", self.config.to_json())
            .with("totals", totals)
            .with("write_latency", e.write_latency.summary_json())
            .with("read_latency", e.read_latency.summary_json())
            .with("mem", mem)
            .with("mdcache", mdcache)
            .with("wpq", wpq)
            .with("counters", counters)
            .with("series", series)
            .with("trace", trace);
        if let Some(recovery) = &self.recovery {
            doc.set("recovery", recovery_json(recovery));
        }
        doc
    }

    /// The report rendered as a JSON document with a trailing newline.
    pub fn render(&self) -> String {
        self.to_json().render_doc()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::runner::System;

    fn report(crash: bool) -> RunReport {
        let trace = Workload::Queue.generate(500, 7);
        let mut system = System::new(SystemConfig::fast(SchemeKind::Scue));
        system.set_sample_interval(1_000);
        let (result, recovery) = if crash {
            let consumed = system.run_until(&trace, 50_000).unwrap();
            system.crash();
            let recovery = system.engine_mut().recover();
            (system.snapshot(consumed as u64), Some(recovery))
        } else {
            (system.run_trace(&trace).unwrap(), None)
        };
        RunReport {
            config: ReportConfig {
                scheme: SchemeKind::Scue,
                workload: Workload::Queue,
                ops: 500,
                seed: 7,
                cores: 1,
                hash_latency: 40,
                eadr: false,
                jobs: 1,
            },
            result,
            recovery,
        }
    }

    #[test]
    fn report_has_every_required_section() {
        let doc = report(false).to_json();
        for key in [
            "schema_version",
            "config",
            "totals",
            "write_latency",
            "read_latency",
            "mem",
            "mdcache",
            "wpq",
            "counters",
            "series",
        ] {
            assert!(doc.get(key).is_some(), "missing section {key}");
        }
        assert_eq!(
            doc.get("schema_version").and_then(Json::as_u64),
            Some(METRICS_SCHEMA_VERSION)
        );
        assert!(doc.get("recovery").is_none(), "no crash, no recovery");
        // Exactly the nine plain counts, keys in sorted order.
        let Some(Json::Obj(counters)) = doc.get("counters") else {
            panic!("counters must be an object");
        };
        let keys: Vec<&str> = counters.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "hashes",
                "hierarchy_mem_accesses",
                "l1_hits",
                "l2_hits",
                "l3_hits",
                "overflows",
                "pcm_reads",
                "pcm_row_hits",
                "pcm_writes",
            ]
        );
        // The config echoes the fan-out width for provenance.
        let config = doc.get("config").unwrap();
        assert_eq!(config.get("jobs").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn report_round_trips_through_the_parser() {
        let rendered = report(false).render();
        let parsed = Json::parse(&rendered).expect("self-rendered JSON must parse");
        let wl = parsed.get("write_latency").unwrap();
        let p50 = wl.get("p50").and_then(Json::as_u64).unwrap();
        let p95 = wl.get("p95").and_then(Json::as_u64).unwrap();
        let p99 = wl.get("p99").and_then(Json::as_u64).unwrap();
        assert!(p50 <= p95 && p95 <= p99, "{p50} <= {p95} <= {p99}");
        assert!(!parsed.get("series").unwrap().as_arr().unwrap().is_empty());
    }

    #[test]
    fn crash_report_carries_phase_breakdown() {
        let doc = report(true).to_json();
        let recovery = doc.get("recovery").expect("crash run must report recovery");
        assert_eq!(recovery.get("success"), Some(&Json::Bool(true)));
        let phases = recovery.get("phases").unwrap();
        let fetch_sum: u64 = ["scan", "counter_summing", "re_hash"]
            .iter()
            .map(|p| {
                phases
                    .get(p)
                    .and_then(|x| x.get("fetches"))
                    .and_then(Json::as_u64)
                    .unwrap()
            })
            .sum();
        assert_eq!(
            Some(fetch_sum),
            recovery.get("metadata_fetches").and_then(Json::as_u64),
            "phase fetches must partition the total"
        );
    }
}
