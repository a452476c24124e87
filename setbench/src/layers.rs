//! The traced run's replays and the per-question time ledger.
//!
//! The measured path only records client-side spans. The layers below
//! the service are timed by replaying the same sessions outside it:
//! straight through `Engine` with [`TimedStrategy`] / [`TimedCache`]
//! around the strategy and the plan cache, then the counting and
//! partition kernels once more on the views those sessions visited.

use crate::metrics::Values;
use crate::session::{Fixture, Mode, Script, CHOICES, NOISY_LIE_AT};
use crate::stats::{self, Interval};
use crate::trace::{self, Span, TimedCache, TimedStrategy};
use setdisc_core::collection::Collection;
use setdisc_core::discovery::Answer;
use setdisc_core::engine::{Engine, SelectionCache};
use setdisc_core::entity::{EntityId, SetId};
use setdisc_core::strategy::SelectionDetail;
use setdisc_core::subcollection::{CountScratch, SubCollection, SubStorage};
use setdisc_core::weights::WeightTable;
use setdisc_plan::{load_plan, save_plan, PlanCache, ScopedPlanCache};
use setdisc_service::strategy::BoxedStrategy;
use setdisc_util::FxHashMap;
use std::sync::Arc;
use std::time::Instant;

/// A view a replayed session asked about, with the entity it asked.
pub struct Visited {
    /// Fixture index.
    pub fixture: usize,
    /// Candidate ids before the answer.
    pub ids: Vec<SetId>,
    /// The (first) entity asked.
    pub entity: EntityId,
    /// The view's content digest.
    pub fp: setdisc_util::Fingerprint,
    /// Times a replayed session answered on this view.
    pub visits: u64,
}

/// Everything an engine replay produced.
#[derive(Default)]
pub struct EngineReplay {
    /// The replay thread's spans.
    pub spans: Vec<Span>,
    /// Every selection the strategy computed (plan-cache hits compute
    /// none).
    pub selections: Vec<trace::Selection>,
    /// Distinct views asked about, in first-visit order.
    pub visited: Vec<Visited>,
    /// Sessions whose replay disagreed with the expected outcome.
    pub mismatches: usize,
}

/// Builds the strategy a script's session runs (the service builds the
/// same one from the same spec and prior).
pub fn strategy_for(
    script: &Script,
    fx: &Fixture,
) -> (BoxedStrategy, Option<setdisc_plan::StrategyKey>) {
    let tuning = setdisc_service::strategy::LookaheadTuning::default();
    match (script.mode, &fx.prior) {
        (Mode::Weighted, Some(prior)) => {
            let w = Arc::new(WeightTable::new(prior).expect("valid prior"));
            let key = script.strategy.weighted_plan_key(&w);
            let built = script
                .strategy
                .build_weighted(&tuning, w)
                .expect("weighted strategy");
            (built, key)
        }
        _ => (
            script.strategy.build_tuned(&tuning),
            script.strategy.plan_key(),
        ),
    }
}

/// How an engine replay runs.
pub struct ReplayConfig<'a> {
    /// Plan cache to attach per fixture (`None`: the workload runs
    /// without one).
    pub plans: &'a [Option<Arc<PlanCache>>],
    /// Common time origin of every span.
    pub epoch: Instant,
    /// Read the obs partition counter around selections (arm obs first;
    /// needs a single thread, as the counters are process-wide).
    pub count_calls: bool,
    /// Stop starting sessions after this instant.
    pub deadline: Option<Instant>,
}

/// Replays sessions straight through `Engine` with the configured plan
/// caches attached, recording spans: one thread per list in `threads`,
/// each running its list in order. Given the lists the measured clients
/// ran, the replay sees about the same contention they did.
pub fn replay_engine(
    threads: &[Vec<Script>],
    fixtures: &[Fixture],
    cfg: &ReplayConfig<'_>,
) -> EngineReplay {
    assert!(
        threads.len() == 1 || !cfg.count_calls,
        "obs counts need one thread"
    );
    let parts: Vec<EngineReplay> = std::thread::scope(|s| {
        let mut first = 0;
        let handles: Vec<_> = threads
            .iter()
            .map(|list| {
                let mine: Vec<(usize, Script)> = (first..).zip(list.iter().copied()).collect();
                first += list.len();
                s.spawn(move || replay_thread(&mine, fixtures, cfg))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread"))
            .collect()
    });
    let mut out = EngineReplay::default();
    let mut seen: FxHashMap<(usize, setdisc_util::Fingerprint, usize), usize> =
        FxHashMap::default();
    for part in parts {
        let offset = out.spans.len();
        out.spans.extend(part.spans.into_iter().map(|mut sp| {
            sp.parent = sp.parent.map(|p| p + offset);
            sp
        }));
        out.selections.extend(part.selections);
        out.mismatches += part.mismatches;
        for v in part.visited {
            match seen.entry((v.fixture, v.fp, v.ids.len())) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    out.visited[*e.get()].visits += v.visits
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(out.visited.len());
                    out.visited.push(v);
                }
            }
        }
    }
    out
}

fn replay_thread(
    scripts: &[(usize, Script)],
    fixtures: &[Fixture],
    cfg: &ReplayConfig<'_>,
) -> EngineReplay {
    let mut out = EngineReplay::default();
    let mut seen: FxHashMap<(usize, setdisc_util::Fingerprint, usize), usize> =
        FxHashMap::default();
    trace::start(cfg.epoch);
    for &(sid, ref script) in scripts {
        if cfg.deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        let fx = &fixtures[script.fixture];
        let collection: &Collection = fx.snapshot.collection();
        let target = collection.set(script.target);
        let (built, key) = strategy_for(script, fx);
        let mut strategy = TimedStrategy::new(built);
        strategy.count_calls = cfg.count_calls;
        let mut engine = {
            let _s = trace::enter_session("engine.new", sid as u64);
            Engine::new(collection, &fx.examples, strategy)
        };
        if let (Some(cache), Some(key)) = (&cfg.plans[script.fixture], key) {
            let scope = ScopedPlanCache::new_prevalidated(Arc::clone(cache), key, collection);
            engine.set_selection_cache(Some(Arc::new(TimedCache(scope))));
        }
        if script.mode == Mode::Noisy {
            engine.set_backtracking(true);
        }
        let mut asked = 0;
        loop {
            let batch = {
                let _s = trace::enter_session("engine.next_question", sid as u64);
                match script.mode {
                    Mode::Choices => engine.next_questions(CHOICES),
                    _ => engine.next_question().into_iter().collect::<Vec<_>>(),
                }
            };
            let Some(&first) = batch.first() else { break };
            let view = engine.candidates();
            let slot = *seen
                .entry((script.fixture, view.fingerprint(), view.len()))
                .or_insert_with(|| {
                    out.visited.push(Visited {
                        fixture: script.fixture,
                        ids: engine.candidate_ids().to_vec(),
                        entity: first,
                        fp: view.fingerprint(),
                        visits: 0,
                    });
                    out.visited.len() - 1
                });
            out.visited[slot].visits += 1;
            let _s = trace::enter_session("engine.answer", sid as u64);
            if script.mode == Mode::Choices {
                let choice = batch
                    .iter()
                    .position(|&e| target.contains(e))
                    .unwrap_or(batch.len());
                engine.answer_choice(&batch, choice, true);
            } else {
                let lie = script.mode == Mode::Noisy && asked == NOISY_LIE_AT;
                let yes = target.contains(first) != lie;
                engine.answer_full(first, if yes { Answer::Yes } else { Answer::No }, !lie);
            }
            asked += 1;
        }
        let found = engine
            .outcome()
            .discovered()
            .map(|id| fx.snapshot.set_label(id));
        if found != script.expected(fx) {
            out.mismatches += 1;
        }
        out.selections.append(&mut engine.strategy_mut().selections);
    }
    out.spans = trace::finish();
    out
}

/// Kernel timings from replays on visited views.
#[derive(Default)]
pub struct KernelReplay {
    /// Total ns of one `count_entities_with_fp` pass per view.
    pub count_ns: u64,
    /// Elements those passes covered.
    pub count_elements: u64,
    /// Per-view `partition_into` times, ns.
    pub partition_ns: Vec<u64>,
    /// Views on which the dispatcher picks the postings sweep.
    pub postings: usize,
}

/// Runs `count_entities_with_fp` and `partition_into` once on every
/// visited view (spans `subcollection.count` / `subcollection.partition`).
pub fn replay_kernels(
    visited: &[Visited],
    collections: &[&Collection],
    epoch: Instant,
) -> (KernelReplay, Vec<Span>) {
    let mut out = KernelReplay::default();
    let mut scratch = CountScratch::new();
    let mut counted = Vec::new();
    let (mut yes, mut no) = (SubStorage::new(), SubStorage::new());
    trace::start(epoch);
    for v in visited {
        let view = SubCollection::from_ids(collections[v.fixture], v.ids.clone());
        if view.dispatch_preview(2).use_postings {
            out.postings += 1;
        }
        let started = Instant::now();
        {
            let _s = trace::enter("subcollection.count");
            view.count_entities_with_fp(&mut scratch, &mut counted);
        }
        out.count_ns += started.elapsed().as_nanos() as u64;
        out.count_elements += view.total_elements() as u64;
        std::hint::black_box(&counted);
        let started = Instant::now();
        let (a, b) = {
            let _s = trace::enter("subcollection.partition");
            view.partition_into(v.entity, yes, no)
        };
        out.partition_ns.push(started.elapsed().as_nanos() as u64);
        yes = a.into_storage();
        no = b.into_storage();
    }
    (out, trace::finish())
}

/// Plan-layer costs on a workload's own views: `ScopedPlanCache::record`
/// and `lookup` into a scratch cache, then a `save_plan` → `load_plan`
/// round trip of `persist` (or of the scratch cache when `None`).
pub struct PlanProbe {
    /// Median record time, ns.
    pub record_ns: f64,
    /// Median lookup time, ns.
    pub lookup_ns: f64,
    /// The file round trip.
    pub trip: RoundTrip,
}

/// Runs the plan probe; `file` is where the plan file is written.
pub fn probe_plan(
    visited: &[Visited],
    collections: &[&Collection],
    persist: Option<&PlanCache>,
    file: &std::path::Path,
) -> std::io::Result<PlanProbe> {
    let key = setdisc_plan::StrategyKey {
        family: 0,
        metric: 0,
        k: 2,
        beam: 0,
        weight_fp: 0,
    };
    let mut record = Vec::new();
    let mut lookup = Vec::new();
    let scratch: Vec<Arc<PlanCache>> = collections
        .iter()
        .map(|c| Arc::new(PlanCache::for_collection(c, 1 << 20)))
        .collect();
    for v in visited {
        let c = collections[v.fixture];
        let scope = ScopedPlanCache::new_prevalidated(Arc::clone(&scratch[v.fixture]), key, c);
        let view = SubCollection::from_ids(c, v.ids.clone());
        let detail = SelectionDetail {
            entity: v.entity,
            bound: 0,
            informative: 0,
            evaluated: 0,
        };
        let started = Instant::now();
        scope.record(&view, &detail);
        record.push(started.elapsed().as_nanos() as f64);
        let started = Instant::now();
        let hit = scope.lookup(&view);
        lookup.push(started.elapsed().as_nanos() as f64);
        debug_assert_eq!(hit, Some(v.entity));
    }
    let saved: &PlanCache = match persist {
        Some(p) => p,
        None => scratch
            .iter()
            .max_by_key(|c| c.len())
            .expect("at least one collection"),
    };
    let trip = round_trip(saved, file)?;
    Ok(PlanProbe {
        record_ns: stats::median(&record),
        lookup_ns: stats::median(&lookup),
        trip,
    })
}

/// One `save_plan` → `load_plan` round trip.
pub struct RoundTrip {
    /// `save_plan` wall time, ms.
    pub save_ms: f64,
    /// `load_plan` wall time, ms.
    pub load_ms: f64,
    /// Plan file size.
    pub file_bytes: u64,
    /// The reloaded plan had exactly the saved nodes.
    pub identical: bool,
}

/// Saves `cache` to `file`, loads it back, compares every node, and
/// removes the file.
pub fn round_trip(cache: &PlanCache, file: &std::path::Path) -> std::io::Result<RoundTrip> {
    if let Some(dir) = file.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let started = Instant::now();
    save_plan(cache, file)?;
    let save_ms = started.elapsed().as_secs_f64() * 1e3;
    let file_bytes = std::fs::metadata(file)?.len();
    let started = Instant::now();
    let loaded = load_plan(file, cache.capacity())?;
    let load_ms = started.elapsed().as_secs_f64() * 1e3;
    std::fs::remove_file(file)?;
    let mut a = cache.export_nodes();
    let mut b = loaded.export_nodes();
    a.sort_by_key(|(k, _)| *k);
    b.sort_by_key(|(k, _)| *k);
    Ok(RoundTrip {
        save_ms,
        load_ms,
        file_bytes,
        identical: a == b,
    })
}

/// Sum of self times of the spans named `name`, ns.
pub fn self_ns(spans: &[Span], name: &str) -> u64 {
    let iv: Vec<Interval> = spans
        .iter()
        .map(|s| Interval {
            start: s.start,
            end: s.end,
            parent: s.parent,
        })
        .collect();
    stats::self_times(&iv)
        .into_iter()
        .zip(spans)
        .filter(|(_, s)| s.name == name)
        .map(|(t, _)| t)
        .sum()
}

/// Median duration of the spans named `name`, in `scale` ns units.
pub fn median_span(spans: &[Span], name: &str, scale: f64) -> f64 {
    let d: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.ns() as f64 / scale)
        .collect();
    stats::median(&d)
}

/// Total duration of the spans named `name`, ns.
pub fn total_span(spans: &[Span], name: &str) -> u64 {
    spans.iter().filter(|s| s.name == name).map(Span::ns).sum()
}

/// Wall time of every top-level engine call in a replay, ns.
pub fn engine_total(replay: &EngineReplay) -> u64 {
    total_span(&replay.spans, "engine.new")
        + total_span(&replay.spans, "engine.next_question")
        + total_span(&replay.spans, "engine.answer")
}

/// Per-layer totals of the traced run, ns; each layer's self time.
#[derive(Default, Debug)]
pub struct Ledger {
    /// End-to-end time of the traced phase, summed over questions.
    pub total: u64,
    /// Questions (selections, on `plan_build`) it covered.
    pub questions: u64,
    /// Open-loop wait between a question's due time and its send.
    pub wait: u64,
    /// Socket and transport thread.
    pub server: u64,
    /// Dispatch, JSON, session table.
    pub service: u64,
    /// Engine state outside selection and kernels.
    pub engine: u64,
    /// Plan cache.
    pub plan: u64,
    /// Selection outside the root counting pass.
    pub lookahead: u64,
    /// Root counting pass per selection and partition per answer.
    pub subcollection: u64,
}

impl Ledger {
    /// Writes the ledger (per question, µs) into `v`; the residual is
    /// what no layer accounts for, so the rows sum to the total.
    pub fn fill(&self, v: &mut Values) {
        let q = self.questions.max(1) as f64 * 1e3;
        let parts = [
            ("gen.wait_us", self.wait),
            ("server.self_us", self.server),
            ("service.self_us", self.service),
            ("engine.self_us", self.engine),
            ("plan.self_us", self.plan),
            ("lookahead.self_us", self.lookahead),
            ("subcollection.self_us", self.subcollection),
        ];
        let mut accounted = 0i128;
        for (name, ns) in parts {
            v.set(name, ns as f64 / q);
            accounted += i128::from(ns);
        }
        v.set("trace.question_us", self.total as f64 / q);
        v.set(
            "trace.residual_us",
            (i128::from(self.total) - accounted) as f64 / q,
        );
    }

    /// Splits the engine replay into engine / plan / lookahead /
    /// subcollection self times, given the replayed kernels' costs.
    pub fn split_engine(&mut self, replay: &EngineReplay, kernels: &KernelReplay) {
        let engine_self = self_ns(&replay.spans, "engine.new")
            + self_ns(&replay.spans, "engine.next_question")
            + self_ns(&replay.spans, "engine.answer");
        let partitions: u64 = kernels
            .partition_ns
            .iter()
            .zip(&replay.visited)
            .map(|(ns, v)| ns * v.visits)
            .sum();
        let lookahead = self_ns(&replay.spans, "lookahead.select");
        let root_counts = root_count_ns(&replay.selections, kernels).min(lookahead);
        self.engine = engine_self.saturating_sub(partitions);
        self.plan = self_ns(&replay.spans, "plan.lookup") + self_ns(&replay.spans, "plan.record");
        self.lookahead = lookahead - root_counts;
        self.subcollection = partitions + root_counts;
    }
}

/// Fills the engine, lookahead and subcollection metrics every traced
/// run reports, from engine spans, timed selections, the selections of
/// the obs-counted replay, and the kernel replays.
pub fn fill_common(
    v: &mut Values,
    engine_spans: &[Span],
    selections: &[trace::Selection],
    counted: &[trace::Selection],
    kernels: &KernelReplay,
) {
    v.set(
        "engine.next_question_us",
        median_span(engine_spans, "engine.next_question", 1e3),
    );
    v.set(
        "engine.answer_us",
        median_span(engine_spans, "engine.answer", 1e3),
    );
    let sel: Vec<f64> = selections.iter().map(|s| s.ns as f64 / 1e3).collect();
    v.set("lookahead.select_us", stats::median(&sel));
    v.set("lookahead.selects", selections.len() as f64);
    let informative: u64 = selections.iter().map(|s| u64::from(s.informative)).sum();
    let evaluated: u64 = selections.iter().map(|s| u64::from(s.evaluated)).sum();
    v.set(
        "lookahead.prune_rate",
        if informative == 0 {
            0.0
        } else {
            1.0 - evaluated as f64 / informative as f64
        },
    );
    v.set(
        "lookahead.evaluated_per_select",
        evaluated as f64 / selections.len().max(1) as f64,
    );
    let partitions: u64 = counted.iter().map(|s| s.partition_calls).sum();
    v.set(
        "subcollection.partition_calls_per_select",
        partitions as f64 / counted.len().max(1) as f64,
    );
    v.set(
        "subcollection.count_ns_per_element",
        kernels.count_ns as f64 / kernels.count_elements.max(1) as f64,
    );
    let part: Vec<f64> = kernels.partition_ns.iter().map(|&x| x as f64).collect();
    v.set("subcollection.partition_ns", stats::median(&part));
    v.set(
        "subcollection.postings_share",
        kernels.postings as f64 / kernels.partition_ns.len().max(1) as f64,
    );
}

/// The counting pass every selection starts with, charged to the
/// subcollection layer: the replayed ns per element times the elements of
/// each selection's view.
pub fn root_count_ns(selections: &[trace::Selection], kernels: &KernelReplay) -> u64 {
    let per_element = kernels.count_ns as f64 / kernels.count_elements.max(1) as f64;
    let elements: u64 = selections.iter().map(|s| s.elements).sum();
    (per_element * elements as f64) as u64
}
