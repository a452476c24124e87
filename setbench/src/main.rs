//! The repository's benchmark: one command per workload that sets up from
//! a seed, measures for a fixed time, checks every output and prints
//! every metric by name with its unit.
//!
//! ```sh
//! cargo run --release --offline --manifest-path setbench/Cargo.toml -- \
//!     --workload query_discovery --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones; `--manifest` prints `BENCHMARK.json`. See `README.md`.

mod layers;
mod machine;
mod metrics;
mod plan_build;
mod query_discovery;
mod session;
mod stats;
mod trace;
mod wire_warm;

use metrics::{Values, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::time::Duration;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// One invocation's arguments.
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

impl Run {
    /// A file under `setbench/out/` named after this run.
    pub fn out_file(&self, what: &str) -> PathBuf {
        PathBuf::from("setbench/out").join(format!("{}-{}-{what}", self.workload, self.seed))
    }
}

/// Wall time of one set-up, by phase.
#[derive(Clone, Copy, Debug)]
pub struct SetupTimes {
    /// Generating the inputs (`synth` / `relation`).
    pub generate: Duration,
    /// Building snapshots and loading them through the registry.
    pub install: Duration,
    /// Warming the plan cache.
    pub warm: Duration,
}

impl SetupTimes {
    fn total(&self) -> f64 {
        (self.generate + self.install + self.warm).as_secs_f64()
    }
}

/// What a workload run produced.
pub struct Outcome {
    /// Sessions or trees attempted.
    pub attempted: usize,
    /// Of those, failed (wrong result, `ok:false`, refusal, missed
    /// deadline).
    pub failed: usize,
    /// Failed output checks outside the sessions (plan round trips,
    /// replays).
    pub check_failures: Vec<String>,
    /// Metric values.
    pub values: Values,
    /// Human-readable report lines.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Starts an outcome with the set-up metrics filled in.
    pub fn new(setups: &[SetupTimes]) -> Self {
        let mut values = Values::default();
        let totals: Vec<f64> = setups.iter().map(SetupTimes::total).collect();
        let med = stats::median(&totals);
        values.set("setup_s", med);
        // The phase split of the set-up whose total is nearest the median.
        let pick = setups
            .iter()
            .min_by(|a, b| (a.total() - med).abs().total_cmp(&(b.total() - med).abs()))
            .expect("at least one set-up");
        values.set("setup.generate_s", pick.generate.as_secs_f64());
        values.set("setup.install_s", pick.install.as_secs_f64());
        values.set("setup.warm_s", pick.warm.as_secs_f64());
        // Only the open-loop workload has a generator.
        values.set("gen.late_ms.p50", 0.0);
        values.set("gen.late_ms.max", 0.0);
        values.set("gen.backlog_max", 0.0);
        let notes = vec![format!(
            "setup_s: median of {} set-ups {:?}",
            totals.len(),
            totals
        )];
        Self {
            attempted: 0,
            failed: 0,
            check_failures: Vec::new(),
            values,
            notes,
        }
    }

    /// Adds a report line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records per-window question latencies (ns samples) as the p50 and
    /// tail metrics, noting each window's tail percentile and counts.
    pub fn latency(&mut self, windows: &mut [Vec<u64>], window: &str) {
        let Some(w) = stats::windowed(windows) else {
            self.check_failures.push("no question was answered".into());
            return;
        };
        self.values.set("question_p50_us", w.p50 / 1e3);
        self.values.set("question_tail_us", w.tail / 1e3);
        let per: Vec<String> = w
            .windows
            .iter()
            .map(|s| {
                format!(
                    "p50={:.1}us/{}={:.1}us(n={},{} beyond)",
                    s.p50 as f64 / 1e3,
                    s.tail_label(),
                    s.tail as f64 / 1e3,
                    s.n,
                    s.tail_beyond
                )
            })
            .collect();
        self.note(format!(
            "question latency, medians over {} windows ({window}): p50={:.3}us tail={:.3}us; tails {}",
            w.windows.len(),
            w.p50 / 1e3,
            w.tail / 1e3,
            per.join(" ")
        ));
    }

    /// Fills the metrics every end-to-end run reports at its end.
    pub fn finish_e2e(&mut self) {
        self.values.set("peak_rss_mb", machine::peak_rss_mb());
    }

    /// Checks that a `save_plan` → `load_plan` round trip of `cache`
    /// returns identical nodes.
    pub fn check_round_trip(&mut self, cache: &setdisc_plan::PlanCache, file: &std::path::Path) {
        match layers::round_trip(cache, file) {
            Ok(t) if t.identical => {}
            Ok(_) => self
                .check_failures
                .push("plan file round trip changed the nodes".into()),
            Err(e) => self
                .check_failures
                .push(format!("plan file round trip: {e}")),
        }
    }

    /// Counts a replay that disagreed with the measured sessions.
    pub fn check_replay(&mut self, replays: &[&layers::EngineReplay]) {
        let bad: usize = replays.iter().map(|r| r.mismatches).sum();
        if bad > 0 {
            self.check_failures
                .push(format!("{bad} replayed sessions discovered the wrong set"));
        }
    }

    /// Per-op `handle_line` medians from in-process client spans.
    pub fn service_metrics(&mut self, client: &[trace::Span], errors: usize) {
        for (op, name) in session::OPS.iter().zip([
            "service.handle_us.create",
            "service.handle_us.ask",
            "service.handle_us.answer",
            "service.handle_us.close",
        ]) {
            let span = format!("client.{op}");
            let d: Vec<f64> = client
                .iter()
                .filter(|s| s.name == span)
                .map(|s| s.ns() as f64 / 1e3)
                .collect();
            self.values.set(name, stats::median(&d));
        }
        self.values.set("service.error_responses", errors as f64);
    }

    /// Socket round trip and its overhead over in-process handling
    /// (means per request), or zeros where no socket is on the path.
    pub fn server_metrics(&mut self, pair: Option<(f64, f64)>) {
        let (rtt, handle) = pair.unwrap_or((0.0, 0.0));
        self.values.set("server.roundtrip_us", rtt);
        self.values.set("server.overhead_us", rtt - handle);
    }

    /// Plan-layer metrics from a probe; real lookups (spans in `replay`)
    /// take precedence over the probe's scratch-cache lookups.
    pub fn plan_probe(
        &mut self,
        probe: std::io::Result<layers::PlanProbe>,
        lookups: &[trace::Span],
        cache: Option<setdisc_plan::PlanStats>,
    ) {
        match probe {
            Ok(p) => {
                if !p.trip.identical {
                    self.check_failures
                        .push("plan file round trip changed the nodes".into());
                }
                let real = layers::median_span(lookups, "plan.lookup", 1.0);
                let real_lookups = lookups.iter().filter(|s| s.name == "plan.lookup").count();
                self.values.set(
                    "plan.lookup_ns",
                    if real_lookups > 0 { real } else { p.lookup_ns },
                );
                self.values.set("plan.record_ns", p.record_ns);
                self.values.set("plan.save_ms", p.trip.save_ms);
                self.values.set("plan.load_ms", p.trip.load_ms);
                self.values.set("plan.file_bytes", p.trip.file_bytes as f64);
            }
            Err(e) => self.check_failures.push(format!("plan probe: {e}")),
        }
        let st = cache.unwrap_or_default();
        self.values
            .set("plan.lookups", (st.hits + st.misses) as f64);
        self.values.set("plan.hit_rate", st.hit_rate());
        self.values.set("plan.nodes", st.nodes as f64);
        self.values.set("plan.evicted", st.evicted as f64);
    }

    /// Writes the traced run's spans under `setbench/out/`.
    pub fn write_trace(&mut self, run: &Run, threads: &[(&str, &[trace::Span])]) {
        let path = run.out_file("spans.tsv");
        match trace::write(&path, threads) {
            Ok(()) => self.note(format!("spans written to {}", path.display())),
            Err(e) => self.check_failures.push(format!("writing spans: {e}")),
        }
    }
}

fn usage() -> ! {
    let names: Vec<&str> = metrics::WORKLOADS.iter().map(|w| w.0).collect();
    eprintln!(
        "usage: setbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       setbench --manifest",
        names.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Run {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        if flag == "--manifest" {
            print!("{}", metrics::manifest());
            std::process::exit(0);
        }
        let Some(value) = args.next() else { usage() };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage()
    };
    if !metrics::WORKLOADS.iter().any(|w| w.0 == workload) {
        usage();
    }
    Run {
        workload,
        seed,
        seconds,
        trace,
    }
}

fn main() {
    let run = parse_args();
    let stamp: Vec<String> = machine::stamp()
        .into_iter()
        .chain(machine::host_probe())
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!(
        "setbench workload={} seed={} seconds={} trace={} | {}",
        run.workload,
        run.seed,
        run.seconds,
        u8::from(run.trace),
        stamp.join(" ")
    );
    let mut out = match run.workload.as_str() {
        "query_discovery" => query_discovery::run(&run),
        "wire_warm" => wire_warm::run(&run),
        _ => plan_build::run(&run),
    };
    let table = if run.trace { PER_LAYER } else { END_TO_END };
    for line in &out.notes {
        println!("  {line}");
    }
    for e in &out.check_failures {
        println!("  CHECK FAILED: {e}");
    }
    if !out.check_failures.is_empty() {
        // A failed output check fails the run's unit of work too.
        out.failed = out.failed.max(1);
    }
    let failed_share = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "  failed_share={failed_share} ({} of {})",
        out.failed, out.attempted
    );
    for m in table {
        let v = out.values.get(m.name).unwrap_or(f64::NAN);
        let dir = match m.better {
            metrics::Better::Lower => "lower is better",
            metrics::Better::Higher => "higher is better",
        };
        println!("  {:<44} {:>18.6} {:<6} ({dir})", m.name, v, m.unit);
    }
    let correct = out.failed == 0 && out.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted.max(1),
        out.failed,
        out.values.encode(table)
    );
    if !correct {
        std::process::exit(1);
    }
}
