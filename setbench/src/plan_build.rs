//! `plan_build`: the paper's §5.2.1 setting, plan construction only.
//!
//! The default simulated web-tables corpus (12k columns) and the
//! sub-collections of [`QUERIES`] seeded two-entity seed queries with at
//! least 100 candidate sets. One thread runs `plan::precompute` to
//! completion per sub-collection, twice: a k-LP(3, AD) plan and a k-LP(2)
//! plan under a seeded skewed prior, both into the sub-collection's plan
//! cache. No service is involved.

use crate::layers::{self, Ledger, Visited};
use crate::session;
use crate::stats;
use crate::trace::{self, Span, TimedCache, TimedStrategy};
use crate::{Outcome, Run, SetupTimes};
use setdisc_core::collection::Collection;
use setdisc_core::cost::AvgDepth;
use setdisc_core::discovery::Answer;
use setdisc_core::engine::Engine;
use setdisc_core::entity::{EntityId, SetId};
use setdisc_core::lookahead::KLp;
use setdisc_core::strategy::SelectionStrategy;
use setdisc_core::subcollection::SubCollection;
use setdisc_core::weights::WeightTable;
use setdisc_plan::{precompute, PlanCache, PrecomputeBudget, ScopedPlanCache, StrategyKey};
use setdisc_service::StrategySpec;
use setdisc_synth::webtables::{generate, seed_queries, SeedQuery, WebTablesConfig};
use setdisc_util::{FxHashSet, Rng};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sub-collections built.
const QUERIES: usize = 20;

/// Smallest sub-collection (the paper's ≥100-set seed queries).
const MIN_CANDIDATES: usize = 100;

/// No node or depth limit: every tree is built to completion.
const COMPLETE: PrecomputeBudget = PrecomputeBudget {
    max_nodes: usize::MAX,
    max_depth: u32::MAX,
};

struct Sub {
    collection: Collection,
    prior: Arc<WeightTable>,
}

/// The two plans built per sub-collection.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Tree {
    Klp3,
    Weighted2,
}

const TREES: [Tree; 2] = [Tree::Klp3, Tree::Weighted2];

impl Sub {
    fn key(&self, tree: Tree) -> StrategyKey {
        match tree {
            Tree::Klp3 => StrategySpec::parse("klp", Some("ad"), Some(3), None, None)
                .expect("valid spec")
                .plan_key(),
            Tree::Weighted2 => StrategySpec::default().weighted_plan_key(&self.prior),
        }
        .expect("deterministic strategy")
    }

    fn strategy(&self, tree: Tree) -> KLp<AvgDepth> {
        match tree {
            Tree::Klp3 => KLp::new(3),
            Tree::Weighted2 => KLp::new(2).with_prior(Arc::clone(&self.prior)),
        }
    }
}

/// Seed queries drawn before [`QUERIES`] are picked from them.
const POOL: usize = 400;

/// Picks [`QUERIES`] distinct queries whose candidate counts come closest
/// to a fixed geometric ladder from [`MIN_CANDIDATES`] to 8× that. Which
/// queries depends on the seed; the sizes, and so the work of a pass,
/// barely do (drawn freely, one seed's pass cost twice another's).
fn pick(pool: &[SeedQuery]) -> Vec<&SeedQuery> {
    let mut used = vec![false; pool.len()];
    (0..QUERIES.min(pool.len()))
        .map(|k| {
            let want = (MIN_CANDIDATES as f64).ln() + 8f64.ln() * k as f64 / (QUERIES - 1) as f64;
            let gap = |i: usize| ((pool[i].n_candidates as f64).ln() - want).abs();
            let best = (0..pool.len())
                .filter(|&i| !used[i])
                .min_by(|&a, &b| gap(a).total_cmp(&gap(b)))
                .expect("pool larger than the pick");
            used[best] = true;
            &pool[best]
        })
        .collect()
}

fn setup(seed: u64) -> (Vec<Sub>, SetupTimes) {
    let started = Instant::now();
    let corpus = generate(&WebTablesConfig::default());
    let pool = seed_queries(&corpus.collection, MIN_CANDIDATES, POOL, seed);
    let generate = started.elapsed();
    let started = Instant::now();
    let mut rng = Rng::new(seed ^ 0xB11D);
    let subs = pick(&pool)
        .into_iter()
        .map(|q| {
            let view = corpus.collection.supersets_of(&q.entities);
            let sets = view
                .ids()
                .iter()
                .map(|&id| corpus.collection.set(id).clone())
                .collect();
            let collection = Collection::new(sets).expect("non-empty sub-collection");
            let prior = session::skewed_prior(collection.len(), &mut rng);
            Sub {
                collection,
                prior: Arc::new(WeightTable::new(&prior).expect("valid prior")),
            }
        })
        .collect();
    let install = started.elapsed();
    (
        subs,
        SetupTimes {
            generate,
            install,
            warm: Duration::ZERO,
        },
    )
}

/// One pass: both plans of every sub-collection.
struct Pass {
    elapsed: Duration,
    caches: Vec<Arc<PlanCache>>,
    /// Every node selection, timed.
    selections: Vec<trace::Selection>,
    truncated: usize,
}

fn build_pass(subs: &[Sub], count_calls: bool) -> Pass {
    let started = Instant::now();
    let mut pass = Pass {
        elapsed: Duration::ZERO,
        caches: Vec::new(),
        selections: Vec::new(),
        truncated: 0,
    };
    for (i, sub) in subs.iter().enumerate() {
        let cache = Arc::new(PlanCache::for_collection(&sub.collection, 1 << 22));
        for tree in TREES {
            let _span = trace::enter_session("plan.precompute", i as u64);
            let mut strategy = TimedStrategy::new(sub.strategy(tree));
            strategy.count_calls = count_calls;
            let report = precompute(
                &cache,
                sub.key(tree),
                &sub.collection,
                &mut strategy,
                &COMPLETE,
            );
            pass.truncated += usize::from(report.truncated);
            pass.selections.append(&mut strategy.selections);
        }
        pass.caches.push(cache);
    }
    pass.elapsed = started.elapsed();
    pass
}

/// A strategy that must never run: walking a complete plan is all hits.
#[derive(Default)]
struct MustHit {
    misses: usize,
}

impl SelectionStrategy for MustHit {
    fn name(&self) -> String {
        "plan-only".into()
    }

    fn select_excluding(
        &mut self,
        _view: &SubCollection<'_>,
        _excluded: &FxHashSet<EntityId>,
    ) -> Option<EntityId> {
        self.misses += 1;
        None
    }
}

/// What walking the built plans found.
#[derive(Default)]
struct Walk {
    /// Mean questions to reach a set, per tree.
    avg_depths: Vec<f64>,
    /// Sets the walk did not reach.
    wrong: usize,
    /// Selections the plan could not serve.
    misses: usize,
    /// Distinct tree nodes, with the entity each asks.
    visited: Vec<Visited>,
}

/// Reaches every set of every sub-collection by walking its plans
/// through `Engine` with the cache attached; spans when recording.
fn walk(subs: &[Sub], caches: &[Arc<PlanCache>]) -> Walk {
    let mut out = Walk::default();
    let mut seen = FxHashSet::default();
    for (i, (sub, cache)) in subs.iter().zip(caches).enumerate() {
        let c = &sub.collection;
        for tree in TREES {
            let scope = ScopedPlanCache::new_prevalidated(Arc::clone(cache), sub.key(tree), c);
            let scope = Arc::new(TimedCache(scope));
            let mut questions = 0;
            for t in 0..c.len() as u32 {
                let target = c.set(SetId(t));
                let mut engine = Engine::new(c, &[], MustHit::default());
                engine.set_selection_cache(Some(scope.clone()));
                loop {
                    let next = {
                        let _s = trace::enter_session("engine.next_question", i as u64);
                        engine.next_question()
                    };
                    let Some(e) = next else { break };
                    let view = engine.candidates();
                    if seen.insert((i, view.fingerprint(), view.len())) {
                        out.visited.push(Visited {
                            fixture: i,
                            ids: engine.candidate_ids().to_vec(),
                            entity: e,
                            fp: view.fingerprint(),
                            visits: 1,
                        });
                    }
                    let _s = trace::enter_session("engine.answer", i as u64);
                    let answer = if target.contains(e) {
                        Answer::Yes
                    } else {
                        Answer::No
                    };
                    engine.answer(e, answer);
                }
                questions += engine.questions_asked();
                out.misses += engine.strategy().misses;
                if engine.outcome().discovered() != Some(SetId(t)) {
                    out.wrong += 1;
                }
            }
            out.avg_depths.push(questions as f64 / c.len() as f64);
        }
    }
    out
}

/// Checks a pass's plans: complete, every set reached with zero misses,
/// identical to the first pass, and unchanged by a plan-file round trip.
fn check(out: &mut Outcome, subs: &[Sub], pass: &Pass, first: &Pass, walked: &Walk, run: &Run) {
    let trees = subs.len() * TREES.len();
    out.attempted += trees;
    let mut bad = pass.truncated;
    for (a, b) in pass.caches.iter().zip(&first.caches) {
        if a.stats().inserted != b.stats().inserted || a.len() != b.len() {
            bad += 1;
        }
    }
    if walked.wrong + walked.misses > 0 {
        out.check_failures.push(format!(
            "plan walk: {} sets not reached, {} plan misses",
            walked.wrong, walked.misses
        ));
    }
    out.failed += bad.min(trees);
    if let Some(biggest) = pass.caches.iter().max_by_key(|c| c.len()) {
        out.check_round_trip(biggest, &run.out_file("plan"));
    }
}

/// Runs passes until `budget` has passed (at least one).
fn passes(subs: &[Sub], budget: Duration, epoch: Option<Instant>) -> (Vec<Pass>, Vec<Span>) {
    if let Some(epoch) = epoch {
        trace::start(epoch);
    }
    let started = Instant::now();
    let mut out = Vec::new();
    while out.is_empty() || started.elapsed() < budget {
        out.push(build_pass(subs, false));
    }
    (out, trace::finish())
}

fn trees_per_s(subs: &[Sub], passes: &[Pass]) -> f64 {
    let rates: Vec<f64> = passes
        .iter()
        .map(|p| (subs.len() * TREES.len()) as f64 / p.elapsed.as_secs_f64())
        .collect();
    stats::median(&rates)
}

/// Runs the workload.
pub fn run(run: &Run) -> Outcome {
    let mut setups = Vec::new();
    let mut subs = Vec::new();
    for _ in 0..crate::SETUPS {
        subs.clear();
        let (s, t) = setup(run.seed);
        subs = s;
        setups.push(t);
    }
    let mut out = Outcome::new(&setups);
    out.note(format!(
        "{} sub-collections of {:?} sets",
        subs.len(),
        subs.iter().map(|s| s.collection.len()).collect::<Vec<_>>()
    ));
    let budget = Duration::from_secs_f64(run.seconds);

    if !run.trace {
        let (built, _) = passes(&subs, budget, None);
        let walked = walk(&subs, &built[0].caches);
        for pass in &built {
            check(&mut out, &subs, pass, &built[0], &walked, run);
        }
        let rate = trees_per_s(&subs, &built);
        out.values.set("throughput_per_s", rate);
        out.note(format!("trees_per_s={rate:.4} over {} passes", built.len()));
        let depth = walked.avg_depths.iter().sum::<f64>() / walked.avg_depths.len().max(1) as f64;
        out.values.set("questions_per_session", depth);
        let mut lat: Vec<Vec<u64>> = built
            .iter()
            .map(|p| p.selections.iter().map(|s| s.ns).collect())
            .collect();
        out.latency(&mut lat, "passes");
        out.finish_e2e();
        return out;
    }

    let (base, _) = passes(&subs, budget / 2, None);
    let epoch = Instant::now();
    let (traced, build_spans) = passes(&subs, budget / 2, Some(epoch));
    trace::start(epoch);
    let walked = walk(&subs, &traced[0].caches);
    let walk_spans = trace::finish();
    for pass in base.iter().chain(&traced) {
        check(&mut out, &subs, pass, &base[0], &walked, run);
    }
    out.values.set(
        "trace.overhead_pct",
        (trees_per_s(&subs, &base) / trees_per_s(&subs, &traced) - 1.0) * 100.0,
    );
    setdisc_util::obs::arm(true);
    let counted = build_pass(&subs, true);
    setdisc_util::obs::arm(false);

    let collections: Vec<&Collection> = subs.iter().map(|s| &s.collection).collect();
    let (kernels, kernel_spans) = layers::replay_kernels(&walked.visited, &collections, epoch);
    let biggest = traced[0]
        .caches
        .iter()
        .max_by_key(|c| c.len())
        .map(|c| c.as_ref());
    let probe = layers::probe_plan(
        &walked.visited,
        &collections,
        biggest,
        &run.out_file("plan"),
    );

    // The ledger of the traced passes: precompute wall time split into
    // selection (lookahead, minus its root counting pass), the kernels
    // replayed per node, and plan-cache writes from the probe.
    let selections: Vec<trace::Selection> =
        traced.iter().flat_map(|p| p.selections.clone()).collect();
    let select_ns: u64 = selections.iter().map(|s| s.ns).sum();
    let root_counts = layers::root_count_ns(&selections, &kernels).min(select_ns);
    let partitions: u64 = kernels.partition_ns.iter().sum::<u64>() * traced.len() as u64;
    let record_ns = probe.as_ref().map_or(0.0, |p| p.record_ns);
    let ledger = Ledger {
        total: layers::total_span(&build_spans, "plan.precompute"),
        questions: selections.len() as u64,
        lookahead: select_ns - root_counts,
        subcollection: root_counts + partitions,
        plan: (record_ns * selections.len() as f64) as u64,
        ..Ledger::default()
    };
    ledger.fill(&mut out.values);
    out.service_metrics(&[], 0);
    out.server_metrics(None);
    // The engine metrics come from the walk: the build itself runs no
    // engine.
    layers::fill_common(
        &mut out.values,
        &walk_spans,
        &selections,
        &counted.selections,
        &kernels,
    );
    let mut st = setdisc_plan::PlanStats::default();
    for c in &traced[0].caches {
        let s = c.stats();
        st.hits += s.hits;
        st.misses += s.misses;
        st.nodes += s.nodes;
        st.evicted += s.evicted;
    }
    out.plan_probe(probe, &walk_spans, Some(st));
    let mem: usize = collections
        .iter()
        .map(|c| setdisc_util::mem::HeapSize::heap_bytes(*c))
        .sum();
    out.values.set("mem.collections_bytes", mem as f64);
    let plan_bytes: usize = traced[0].caches.iter().map(|c| c.accounted_bytes()).sum();
    out.values.set("mem.plan_cache_bytes", plan_bytes as f64);
    out.write_trace(
        run,
        &[
            ("build", &build_spans),
            ("walk", &walk_spans),
            ("kernels", &kernel_spans),
        ],
    );
    out
}
