//! `scue-profile` — self-profile the secure-memory engine: run a seeded
//! workload per scheme under the span profiler and report where the
//! time and the allocations go.
//!
//! ```text
//! scue-profile [--scheme SCHEME]... [--ops N] [--seed N] [--jobs N]
//!              [--clock virtual|monotonic] [--top N]
//!              [--json PATH] [--chrome-trace PATH]
//! ```
//!
//! Prints a top-N self-time table aggregated across the profiled
//! schemes and a per-scheme coverage summary. `--json` writes the
//! versioned `kind:"scue-profile"` document; `--chrome-trace` writes a
//! Chrome trace-event file loadable in Perfetto (`ui.perfetto.dev`) or
//! `chrome://tracing`.
//!
//! The default clock is `monotonic` (real nanoseconds — the numbers to
//! read before optimizing). `--clock virtual` swaps in a deterministic
//! per-thread tick clock: durations then count span boundaries instead
//! of wall time, but the document is byte-identical at any `--jobs`
//! count (only the trailing `provenance` object varies), which is what
//! the determinism gate in `scripts/verify.sh` and the golden test in
//! `tests/par_determinism.rs` rely on.

use scue::SchemeKind;
use scue_sim::profile::{self, ProfileConfig};
use scue_util::obs::span::Clock;
use scue_util::obs::Json;
use scue_util::par;

struct Args {
    schemes: Vec<SchemeKind>,
    ops: u64,
    seed: u64,
    jobs: Option<usize>,
    clock: Clock,
    top: usize,
    json: Option<String>,
    chrome_trace: Option<String>,
}

fn usage() -> ! {
    eprintln!("usage: scue-profile [--scheme baseline|lazy|eager|plp|bmf|scue");
    eprintln!("                      |phoenix|triad1|triad2|zuo|freij]...");
    eprintln!("                    [--ops N] [--seed N] [--jobs N]");
    eprintln!("                    [--clock virtual|monotonic] [--top N]");
    eprintln!("                    [--json PATH] [--chrome-trace PATH]");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        schemes: Vec::new(),
        ops: 300,
        seed: 7,
        jobs: None,
        clock: Clock::Monotonic,
        top: 12,
        json: None,
        chrome_trace: None,
    };
    let mut it = std::env::args().skip(1);
    let fail = |msg: String| -> ! {
        eprintln!("scue-profile: {msg}");
        usage();
    };
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| fail(format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--scheme" => {
                let v = value("--scheme");
                let scheme = SchemeKind::parse(&v)
                    .unwrap_or_else(|| fail(format!("invalid value for --scheme: `{v}`")));
                args.schemes.push(scheme);
            }
            "--ops" => {
                let v = value("--ops");
                args.ops = v
                    .parse()
                    .ok()
                    .filter(|&n: &u64| n > 0)
                    .unwrap_or_else(|| fail(format!("invalid value for --ops: `{v}`")));
            }
            "--seed" => {
                let v = value("--seed");
                args.seed = v
                    .parse()
                    .unwrap_or_else(|_| fail(format!("invalid value for --seed: `{v}`")));
            }
            "--jobs" => {
                let v = value("--jobs");
                args.jobs = Some(
                    v.parse()
                        .ok()
                        .filter(|&n: &usize| n > 0)
                        .unwrap_or_else(|| fail(format!("invalid value for --jobs: `{v}`"))),
                );
            }
            "--clock" => {
                args.clock = match value("--clock").as_str() {
                    "virtual" => Clock::Virtual,
                    "monotonic" => Clock::Monotonic,
                    v => fail(format!("invalid value for --clock: `{v}`")),
                };
            }
            "--top" => {
                let v = value("--top");
                args.top = v
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n > 0)
                    .unwrap_or_else(|| fail(format!("invalid value for --top: `{v}`")));
            }
            "--json" => args.json = Some(value("--json")),
            "--chrome-trace" => args.chrome_trace = Some(value("--chrome-trace")),
            "--help" | "-h" => usage(),
            other => fail(format!("unknown flag `{other}`")),
        }
    }
    if args.schemes.is_empty() {
        args.schemes = SchemeKind::ALL.to_vec();
    }
    args
}

fn write_file(path: &str, content: &str) {
    if let Err(e) = std::fs::write(path, content) {
        eprintln!("scue-profile: cannot write {path}: {e}");
        std::process::exit(1);
    }
}

fn main() {
    let args = parse_args();
    let jobs = par::resolve_jobs(args.jobs).unwrap_or_else(|msg| {
        eprintln!("scue-profile: {msg}");
        usage();
    });
    let cfg = ProfileConfig {
        schemes: args.schemes.clone(),
        ops: args.ops,
        seed: args.seed,
        clock: args.clock,
    };
    let started = std::time::Instant::now();
    let results = profile::run(&cfg, jobs);
    let wall_ms = started.elapsed().as_millis() as u64;

    let unit = match args.clock {
        Clock::Monotonic => "ns",
        Clock::Virtual => "ticks",
    };
    println!(
        "scue-profile: {} scheme(s), {} ops each, {} clock",
        results.len(),
        cfg.ops,
        cfg.clock.name()
    );
    println!();
    println!("scheme      coverage   recovered   allocs      alloc KiB");
    for r in &results {
        println!(
            "{:<11} {:>7.1}%   {:<9}   {:<9}   {:.1}",
            r.scheme.policy().name,
            r.coverage_pct(),
            if r.recovered { "yes" } else { "no" },
            r.thread_allocs,
            r.thread_bytes as f64 / 1024.0
        );
    }
    println!();
    println!("top {} spans by aggregate self time ({unit}):", args.top);
    println!(
        "{:<16} {:>10} {:>14} {:>14} {:>10} {:>12}",
        "span", "calls", "total", "self", "allocs", "alloc bytes"
    );
    for (name, stats) in profile::aggregate(&results)
        .self_time_ranking()
        .into_iter()
        .take(args.top)
    {
        println!(
            "{:<16} {:>10} {:>14} {:>14} {:>10} {:>12}",
            name, stats.calls, stats.total_ns, stats.self_ns, stats.allocs, stats.alloc_bytes
        );
    }

    let provenance = Json::obj()
        .with("jobs", Json::U64(jobs as u64))
        .with("wall_ms", Json::U64(wall_ms));
    if let Some(path) = &args.json {
        let doc = profile::to_doc(&cfg, &results).with("provenance", provenance.clone());
        write_file(path, &doc.render_doc());
        println!();
        println!("profile json:  {path}");
    }
    if let Some(path) = &args.chrome_trace {
        let doc = profile::to_chrome_trace(&cfg, &results).with("provenance", provenance);
        write_file(path, &doc.render_doc());
        println!("chrome trace:  {path} (open in ui.perfetto.dev)");
    }
}
