//! `wire_warm`: the service edge with the plan cache warm.
//!
//! A 2000-set copy-add collection served over TCP loopback. Set-up warms
//! the plan by driving every target once per plan-keyed mode (classic,
//! weighted, noisy; choice screens reuse the classic plan) and computes
//! the noisy reference outcomes, so the clock sees only plan reads.
//! Sessions arrive open loop on a seeded Poisson schedule, one user per
//! session who thinks [`THINK`] between questions; each question is timed
//! from when it was due, so a server stall is charged to every question
//! it delays, less any lateness of the generator itself.

use crate::layers::{self, Ledger, ReplayConfig};
use crate::session::{self, Fixture, Live, Mode, Script};
use crate::stats;
use crate::trace::{self, Span};
use crate::{Outcome, Run, SetupTimes};
use setdisc_core::entity::SetId;
use setdisc_service::load::{InProcessClient, SocketClient};
use setdisc_service::server::TcpServer;
use setdisc_service::{Service, ServiceConfig, Snapshot, StrategySpec};
use setdisc_synth::copyadd::{generate_copy_add, CopyAddConfig};
use setdisc_util::Rng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client connections (and threads): the box has two CPUs.
const CONNECTIONS: usize = 2;

/// Sets in the served collection.
const SETS: usize = 2000;

/// A user's think time between questions: a chosen parameter, not a
/// measured one (the paper's user answers instantly; no source gives a
/// think time for this setting). It is long against a question's service
/// time (~0.1 ms), so a session's questions never queue behind each
/// other, and short against the phase, so a session (~11 questions) ends
/// many times over within it. Latency at a fixed arrival rate barely
/// moves with it; `setbench/README.md` shows 2 ms against 100 ms.
const THINK: Duration = Duration::from_millis(100);

/// Arrival rate of the latency phase, sessions/s: a sixth of the
/// closed-loop capacity of a loaded 2-CPU VM (1.5k–2k sessions/s over two
/// connections), so that the phase stays well below capacity when
/// neighbours on a shared host slow it further.
pub const NOMINAL_RATE: f64 = 250.0;

/// Share of the run given to the nominal-rate phase; the closed-loop
/// capacity phase gets the rest.
const NOMINAL_SHARE: f64 = 0.75;

/// Windows the nominal phase's latencies are summarized over.
const WINDOW: Duration = Duration::from_secs(1);

/// Windows the capacity phase counts completed sessions over.
const CAPACITY_WINDOW: Duration = Duration::from_millis(500);

struct World {
    service: Arc<Service>,
    fixtures: Vec<Fixture>,
}

/// Seed of the served collection and its prior. The collection is the
/// same in every run; `--seed` deals the sessions. Choice screens cost
/// what the collection's shape makes them cost, and with a seeded
/// collection that alone moved the tail by 40% between seeds.
const COLLECTION_SEED: u64 = 7;

fn setup() -> (World, SetupTimes, Vec<String>) {
    let started = Instant::now();
    let collection = generate_copy_add(&CopyAddConfig {
        n_sets: SETS,
        size_range: (20, 30),
        overlap: 0.9,
        seed: COLLECTION_SEED,
    });
    let prior = session::skewed_prior(collection.len(), &mut Rng::new(COLLECTION_SEED ^ 0x9E1A));
    let generate = started.elapsed();
    let started = Instant::now();
    let service = Arc::new(Service::new(ServiceConfig::default()));
    let snapshot = Snapshot::from_collection("copyadd", collection);
    service.registry().insert(Arc::clone(&snapshot));
    let install = started.elapsed();
    let started = Instant::now();
    let spec = StrategySpec::default();
    let noisy_expected = session::noisy_references(&snapshot, &spec);
    let world = World {
        service,
        fixtures: vec![Fixture {
            name: "copyadd".into(),
            snapshot,
            examples: Vec::new(),
            prior: Some(prior),
            noisy_expected,
        }],
    };
    // Every target once per plan-keyed mode, split over the threads.
    let n = world.fixtures[0].snapshot.collection().len() as u32;
    let lists: Vec<Vec<Script>> = (0..CONNECTIONS as u32)
        .map(|c| {
            [Mode::Classic, Mode::Weighted, Mode::Noisy]
                .into_iter()
                .flat_map(|mode| {
                    (c..n).step_by(CONNECTIONS).map(move |t| Script {
                        fixture: 0,
                        strategy: spec,
                        mode,
                        target: SetId(t),
                    })
                })
                .collect()
        })
        .collect();
    let (_, errors) = inprocess(&world, &lists, None);
    let warm = started.elapsed();
    (
        world,
        SetupTimes {
            generate,
            install,
            warm,
        },
        errors,
    )
}

/// The seeded session list of one phase: arrival offsets and scripts.
/// Arrivals are a Poisson process at `rate` conditioned on its expected
/// count — that many uniform offsets in `length`, sorted — so every seed
/// offers the same number of sessions.
fn schedule(
    seed: u64,
    phase: u64,
    rate: f64,
    length: Duration,
    n_sets: usize,
) -> Vec<(Duration, Script)> {
    let mut rng = Rng::new(seed ^ phase.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let spec = StrategySpec::default();
    let n = (rate * length.as_secs_f64()).round() as usize;
    let mut at: Vec<Duration> = (0..n).map(|_| length.mul_f64(rng.f64())).collect();
    at.sort_unstable();
    at.into_iter()
        .enumerate()
        .map(|(i, t)| {
            // The mix is dealt, not drawn: exactly one session in ten of
            // each extension mode, so the share of slow choice screens is
            // the same in every window and every seed. Session `i` runs on
            // connection `i % CONNECTIONS`, so the deal counts each
            // connection's sessions: every connection carries the same mix.
            let mode = match (i / CONNECTIONS) % 10 {
                3 => Mode::Weighted,
                6 => Mode::Choices,
                9 => Mode::Noisy,
                _ => Mode::Classic,
            };
            let target = SetId(rng.gen_range(n_sets as u64) as u32);
            (
                t,
                Script {
                    fixture: 0,
                    strategy: spec,
                    mode,
                    target,
                },
            )
        })
        .collect()
}

/// What one open-loop phase measured.
#[derive(Default)]
struct Phase {
    /// Question latency: its wait for the connection's previous reply
    /// past its due time, plus its own requests, ns.
    latencies: Vec<u64>,
    /// The same latencies by [`WINDOW`] of due time.
    windows: Vec<Vec<u64>>,
    /// How long each event (a question, or the closing ask) waited past
    /// its due time for the connection's previous reply, summed, ns.
    wait_ns: u64,
    /// Closing events (the `ask` that reports a session done, `close`),
    /// timed like questions, summed, ns.
    around_ns: u64,
    sessions: usize,
    failed: usize,
    questions: usize,
    /// The generator's own lateness per event: from when the event could
    /// have been sent to its send, ns.
    gen_late: Vec<u64>,
    /// Most events due but not yet sent, per connection.
    backlog_max: usize,
    /// Indices into the schedule of sessions that completed, per
    /// connection.
    ran: Vec<Vec<usize>>,
    spans: Vec<Vec<Span>>,
}

impl Phase {
    fn merge(&mut self, other: Phase) {
        self.latencies.extend(other.latencies);
        if self.windows.len() < other.windows.len() {
            self.windows.resize(other.windows.len(), Vec::new());
        }
        for (mine, theirs) in self.windows.iter_mut().zip(other.windows) {
            mine.extend(theirs);
        }
        self.wait_ns += other.wait_ns;
        self.around_ns += other.around_ns;
        self.sessions += other.sessions;
        self.failed += other.failed;
        self.questions += other.questions;
        self.gen_late.extend(other.gen_late);
        self.backlog_max = self.backlog_max.max(other.backlog_max);
        self.ran.extend(other.ran);
        self.spans.extend(other.spans);
    }
}

/// Waits until `due`, yielding the CPU in a loop instead of sleeping. A
/// sleeping client lets the VM's CPUs go idle, and waking an idle virtual
/// CPU costs the host's time, not the program's: tens of µs on a quiet
/// host, milliseconds on a loaded one. In alternating runs on a loaded
/// 2-CPU VM, sleeping (even with the last 200 µs yielded) put the median
/// question at 300–600 µs and the tail at 12–18 ms; yielding throughout,
/// at 100–109 µs and 3.8–4.6 ms. Server threads that wake up still get
/// the CPU at once, and the generator's own lateness is not charged.
fn wait_until(due: Instant) {
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

/// One connection's share of a phase: sessions `c, c+CONNECTIONS, ...`.
fn connection(
    client: &mut SocketClient,
    fx: &Fixture,
    plan: &[(Duration, Script)],
    c: usize,
    start: Instant,
    traced: Option<Instant>,
) -> Phase {
    let mut phase = Phase::default();
    if let Some(epoch) = traced {
        trace::start(epoch);
    }
    // (due, schedule index, question number) — question 0 creates.
    let mut heap: BinaryHeap<Reverse<(Instant, usize, usize)>> = plan
        .iter()
        .enumerate()
        .skip(c)
        .step_by(CONNECTIONS)
        .map(|(i, (at, _))| Reverse((start + *at, i, 0)))
        .collect();
    let mut live: Vec<Option<Live>> = (0..plan.len()).map(|_| None).collect();
    let mut done = Vec::new();
    // When the connection's last request completed.
    let mut free_at = start;
    while let Some(Reverse((due, i, q))) = heap.pop() {
        let now = Instant::now();
        if due > now {
            wait_until(due);
        } else {
            let backlog = 1 + heap.iter().filter(|Reverse((d, _, _))| *d <= now).count();
            phase.backlog_max = phase.backlog_max.max(backlog);
        }
        // An event could go out at `ready`: its due time, or the reply to
        // the connection's previous request if that came later. Waiting
        // for that reply is queueing behind the server and is charged to
        // the question; anything after `ready` is the generator's own
        // lateness (oversleep, or its thread not running), reported as
        // `gen.late_ms` and not charged.
        let sent = Instant::now();
        let ready = due.max(free_at);
        let queued = (ready - due).as_nanos() as u64;
        phase.gen_late.push((sent - ready).as_nanos() as u64);
        phase.wait_ns += queued;
        let script = &plan[i].1;
        let result = (|| -> Result<bool, String> {
            // A session's first question is due on arrival, so its
            // latency includes the `create`.
            if q == 0 {
                live[i] = Some(Live::create(client, script, fx)?);
            }
            let session = live[i].as_mut().expect("created");
            if session.step(client, script, fx)? {
                let ns = queued + sent.elapsed().as_nanos() as u64;
                let w = ((due - start).as_secs_f64() / WINDOW.as_secs_f64()) as usize;
                if phase.windows.len() <= w {
                    phase.windows.resize(w + 1, Vec::new());
                }
                phase.windows[w].push(ns);
                phase.latencies.push(ns);
                return Ok(true);
            }
            let session = live[i].take().expect("created");
            phase.questions += session.questions;
            session.close(client, script, fx)?;
            phase.around_ns += queued + sent.elapsed().as_nanos() as u64;
            Ok(false)
        })();
        free_at = Instant::now();
        match result {
            Ok(true) => heap.push(Reverse((
                start + plan[i].0 + THINK * (q as u32 + 1),
                i,
                q + 1,
            ))),
            Ok(false) => {
                phase.sessions += 1;
                done.push(i);
            }
            Err(e) => {
                eprintln!("wire_warm: {e}");
                live[i] = None;
                phase.failed += 1;
            }
        }
    }
    phase.spans.push(trace::finish());
    phase.ran.push(done);
    phase
}

/// Runs one open-loop phase at `rate` for `length`.
fn open_loop(
    clients: &mut [SocketClient],
    fx: &Fixture,
    plan: &[(Duration, Script)],
    traced: Option<Instant>,
) -> Phase {
    let start = Instant::now() + Duration::from_millis(5);
    let parts: Vec<Phase> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| s.spawn(move || connection(client, fx, plan, c, start, traced)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread"))
            .collect()
    });
    let mut phase = Phase::default();
    for p in parts {
        phase.merge(p);
    }
    phase
}

/// Closed loop over [`CONNECTIONS`] sockets, sessions back to back with no
/// think time, for `length`: what the box sustains. Returns the session
/// rate of every whole [`CAPACITY_WINDOW`], the sessions completed and
/// the sessions failed.
fn capacity(
    clients: &mut [SocketClient],
    fx: &Fixture,
    scripts: &[Script],
    length: Duration,
) -> (Vec<f64>, usize, usize) {
    let start = Instant::now();
    let parts: Vec<(Vec<Duration>, usize)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                s.spawn(move || {
                    let mut done = Vec::new();
                    let mut failed = 0;
                    for script in scripts.iter().skip(c).step_by(CONNECTIONS).cycle() {
                        if start.elapsed() >= length {
                            break;
                        }
                        match session::run(client, script, fx) {
                            Ok(_) => done.push(start.elapsed()),
                            Err(e) => {
                                eprintln!("wire_warm: {e}");
                                failed += 1;
                            }
                        }
                    }
                    (done, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("capacity thread"))
            .collect()
    });
    let windows = (length.as_secs_f64() / CAPACITY_WINDOW.as_secs_f64()) as usize;
    let mut counts = vec![0usize; windows];
    let (mut done, mut failed) = (0, 0);
    for (times, f) in parts {
        failed += f;
        done += times.len();
        for t in times {
            if let Some(n) =
                counts.get_mut((t.as_secs_f64() / CAPACITY_WINDOW.as_secs_f64()) as usize)
            {
                *n += 1;
            }
        }
    }
    let rates = counts
        .into_iter()
        .map(|n| n as f64 / CAPACITY_WINDOW.as_secs_f64())
        .collect();
    (rates, done, failed)
}

/// Runs the workload.
pub fn run(run: &Run) -> Outcome {
    let mut setups = Vec::new();
    let mut world = None;
    let mut setup_errors = Vec::new();
    for _ in 0..crate::SETUPS {
        drop(world.take());
        let (w, t, errors) = setup();
        world = Some(w);
        setups.push(t);
        setup_errors.extend(errors);
    }
    let world = world.expect("set up at least once");
    let mut out = Outcome::new(&setups);
    for e in setup_errors.iter().take(5) {
        out.check_failures
            .push(format!("warm-up session failed: {e}"));
    }
    let server = match TcpServer::bind(Arc::clone(&world.service), "127.0.0.1:0") {
        Ok(server) => server,
        Err(e) => {
            out.check_failures
                .push(format!("cannot serve on loopback: {e}"));
            return out;
        }
    };
    // The same connections serve every phase, so no phase pays for
    // connecting and the server keeps one thread per connection.
    let mut clients = match (0..CONNECTIONS)
        .map(|_| SocketClient::connect(server.addr()))
        .collect::<std::io::Result<Vec<_>>>()
    {
        Ok(clients) => clients,
        Err(e) => {
            out.check_failures
                .push(format!("cannot connect on loopback: {e}"));
            server.shutdown();
            return out;
        }
    };
    let fx = &world.fixtures[0];
    let n_sets = fx.snapshot.collection().len();
    let budget = Duration::from_secs_f64(run.seconds);

    if !run.trace {
        let nominal_len = budget.mul_f64(NOMINAL_SHARE);
        let plan = schedule(run.seed, 0, NOMINAL_RATE, nominal_len, n_sets);
        let mut nominal = open_loop(&mut clients, fx, &plan, None);
        out.attempted += plan.len();
        out.failed += plan.len() - nominal.sessions;
        out.values.set(
            "questions_per_session",
            nominal.questions as f64 / nominal.sessions.max(1) as f64,
        );
        report_generator(&mut out, &nominal, "nominal");
        // Whole windows only: questions due after the last arrival spill
        // into a sparse window of their own.
        nominal
            .windows
            .truncate((nominal_len.as_secs_f64() / WINDOW.as_secs_f64()) as usize);
        out.latency(&mut nominal.windows, "1 s of due time");

        let scripts: Vec<Script> = schedule(run.seed, 50, NOMINAL_RATE, budget, n_sets)
            .into_iter()
            .map(|(_, s)| s)
            .collect();
        let (rates, done, failed) = capacity(&mut clients, fx, &scripts, budget - nominal_len);
        out.attempted += done + failed;
        out.failed += failed;
        let sustained = stats::median(&rates);
        out.values.set("throughput_per_s", sustained);
        out.note(format!(
            "closed-loop capacity: {sustained:.3} sessions/s over {CONNECTIONS} connections \
             (median of {} windows of {CAPACITY_WINDOW:?}, {done} sessions)",
            rates.len()
        ));

        out.finish_e2e();
        drop(clients);
        server.shutdown();
        match fx.snapshot.plan_cache() {
            Some(cache) => out.check_round_trip(&cache, &run.out_file("plan")),
            None => out.check_failures.push("the warm-up left no plan".into()),
        }
        return out;
    }

    // Traced run: untraced and traced halves at the nominal rate.
    let half = budget / 2;
    let plan0 = schedule(run.seed, 0, NOMINAL_RATE, half, n_sets);
    let base = open_loop(&mut clients, fx, &plan0, None);
    let plan = schedule(run.seed, 100, NOMINAL_RATE, half, n_sets);
    let epoch = Instant::now();
    let traced = open_loop(&mut clients, fx, &plan, Some(epoch));
    out.attempted += plan0.len() + plan.len();
    out.failed += plan0.len() - base.sessions + plan.len() - traced.sessions;
    // Medians: one stall of the host moves a half's mean by more than
    // tracing does.
    let p50 = |p: &Phase| {
        let mut v = p.latencies.clone();
        v.sort_unstable();
        stats::quantile(&v, 0.5).unwrap_or(0) as f64
    };
    out.values.set(
        "trace.overhead_pct",
        (p50(&traced) / p50(&base).max(1.0) - 1.0) * 100.0,
    );
    report_generator(&mut out, &traced, "traced");
    drop(clients);
    server.shutdown();

    // The same sessions in process, on as many threads as connections:
    // `handle_line` time per request under the same contention.
    let per_conn: Vec<Vec<Script>> = traced
        .ran
        .iter()
        .map(|ran| ran.iter().map(|&i| plan[i].1).collect())
        .collect();
    let all = [per_conn.concat()];
    let (handled, inproc_errors) = inprocess(&world, &per_conn, Some(epoch));
    if let Some(e) = inproc_errors.first() {
        out.check_failures.push(format!(
            "{} in-process replays failed, first: {e}",
            inproc_errors.len()
        ));
    }
    let plans = vec![fx.snapshot.plan_cache()];
    let mut cfg = ReplayConfig {
        plans: &plans,
        epoch,
        count_calls: false,
        deadline: None,
    };
    let replay = layers::replay_engine(&per_conn, &world.fixtures, &cfg);
    setdisc_util::obs::arm(true);
    cfg.count_calls = true;
    let counted = layers::replay_engine(&all, &world.fixtures, &cfg);
    setdisc_util::obs::arm(false);
    let collections = [fx.snapshot.collection()];
    let (kernels, kernel_spans) = layers::replay_kernels(&replay.visited, &collections, epoch);
    let cache = fx.snapshot.plan_cache();
    let probe = layers::probe_plan(
        &replay.visited,
        &collections,
        cache.as_deref(),
        &run.out_file("plan"),
    );
    out.check_replay(&[&replay, &counted]);

    let socket: Vec<Span> = traced.spans.iter().flatten().copied().collect();
    let rtt: u64 = socket.iter().map(Span::ns).sum();
    let handle: u64 = handled.iter().map(Span::ns).sum();
    let mut ledger = Ledger {
        total: traced.latencies.iter().sum::<u64>() + traced.around_ns,
        questions: traced.questions as u64,
        wait: traced.wait_ns,
        server: rtt.saturating_sub(handle),
        service: handle.saturating_sub(layers::engine_total(&replay)),
        ..Ledger::default()
    };
    ledger.split_engine(&replay, &kernels);
    ledger.fill(&mut out.values);
    out.service_metrics(&handled, traced.failed);
    let per_request = |n: u64, spans: &[Span]| n as f64 / spans.len().max(1) as f64 / 1e3;
    out.server_metrics(Some((
        per_request(rtt, &socket),
        per_request(handle, &handled),
    )));
    layers::fill_common(
        &mut out.values,
        &replay.spans,
        &replay.selections,
        &counted.selections,
        &kernels,
    );
    out.plan_probe(probe, &replay.spans, cache.as_ref().map(|c| c.stats()));
    out.values.set(
        "mem.collections_bytes",
        world.service.registry().collections_bytes() as f64,
    );
    out.values.set(
        "mem.plan_cache_bytes",
        world.service.registry().plan_cache_bytes() as f64,
    );
    let threads: Vec<(&str, &[Span])> = traced
        .spans
        .iter()
        .map(|s| ("connection", s.as_slice()))
        .chain([
            ("inprocess", handled.as_slice()),
            ("engine", replay.spans.as_slice()),
            ("kernels", kernel_spans.as_slice()),
        ])
        .collect();
    out.write_trace(run, &threads);
    out
}

/// Runs each list of `threads` through `Service::handle_line` on a
/// thread of its own, recording client spans when `traced`; returns the
/// spans and the failures.
fn inprocess(
    world: &World,
    threads: &[Vec<Script>],
    traced: Option<Instant>,
) -> (Vec<Span>, Vec<String>) {
    let parts: Vec<(Vec<Span>, Vec<String>)> = std::thread::scope(|s| {
        let handles: Vec<_> = threads
            .iter()
            .map(|scripts| {
                s.spawn(move || {
                    if let Some(epoch) = traced {
                        trace::start(epoch);
                    }
                    let mut client = InProcessClient {
                        service: Arc::clone(&world.service),
                    };
                    let failed = scripts
                        .iter()
                        .filter_map(|script| {
                            session::run(&mut client, script, &world.fixtures[0]).err()
                        })
                        .collect();
                    (trace::finish(), failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("in-process thread"))
            .collect()
    });
    let mut spans = Vec::new();
    let mut failed = Vec::new();
    for (s, f) in parts {
        spans.extend(s);
        failed.extend(f);
    }
    (spans, failed)
}

/// Reports the open-loop generator's own lateness and backlog.
fn report_generator(out: &mut Outcome, phase: &Phase, label: &str) {
    let mut late = phase.gen_late.clone();
    late.sort_unstable();
    let p50 = stats::quantile(&late, 0.5).unwrap_or(0) as f64 / 1e6;
    let max = late.last().copied().unwrap_or(0) as f64 / 1e6;
    out.values.set("gen.late_ms.p50", p50);
    out.values.set("gen.late_ms.max", max);
    out.values.set("gen.backlog_max", phase.backlog_max as f64);
    out.note(format!(
        "{label} phase at {NOMINAL_RATE}/s: {} sessions, generator late p50={p50:.4}ms max={max:.4}ms over {} sends, backlog max {}",
        phase.sessions,
        late.len(),
        phase.backlog_max
    ));
}
