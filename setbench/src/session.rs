//! Discovery sessions as the benchmark's clients drive them over the wire
//! protocol: scripts (collection, strategy, mode, target), the truthful —
//! or, in noisy mode, once-lying — user, and the outcome check.

use crate::trace;
use setdisc_core::discovery::Answer;
use setdisc_core::engine::Engine;
use setdisc_core::entity::{EntityId, SetId};
use setdisc_plan::{PlanCache, ScopedPlanCache};
use setdisc_service::load::Client;
use setdisc_service::proto::create_request_ext;
use setdisc_service::{Snapshot, StrategySpec};
use setdisc_util::report::{parse_json, JsonValue};
use std::sync::Arc;
use std::time::Instant;

/// Question index at which a noisy session's user lies (flagged
/// `confident:false`).
pub const NOISY_LIE_AT: usize = 1;

/// Width of a multiple-choice screen.
pub const CHOICES: usize = 4;

/// What kind of session a script runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Yes/no questions, unweighted.
    Classic,
    /// Yes/no questions under the fixture's prior.
    Weighted,
    /// §7 screens of [`CHOICES`] entities.
    Choices,
    /// `recover:true`, with one unconfident lie.
    Noisy,
}

/// A registered collection as the clients know it.
pub struct Fixture {
    /// Registry name.
    pub name: String,
    /// The same snapshot the service serves (clients answer from it).
    pub snapshot: Arc<Snapshot>,
    /// Entity ids every session starts from (the initial examples).
    pub examples: Vec<EntityId>,
    /// Prior sent by weighted sessions.
    pub prior: Option<Vec<u64>>,
    /// Expected label per target for noisy sessions (from a direct
    /// backtracking engine run), indexed by set id; empty when the fixture
    /// serves no noisy sessions.
    pub noisy_expected: Vec<Option<String>>,
}

/// One session to run.
#[derive(Clone, Copy, Debug)]
pub struct Script {
    /// Index into the workload's fixtures.
    pub fixture: usize,
    /// Strategy sent with `create`.
    pub strategy: StrategySpec,
    /// Session mode.
    pub mode: Mode,
    /// The set the simulated user has in mind.
    pub target: SetId,
}

impl Script {
    /// The label the session must discover.
    pub fn expected(&self, fx: &Fixture) -> Option<String> {
        match self.mode {
            Mode::Noisy => fx.noisy_expected[self.target.0 as usize].clone(),
            _ => Some(fx.snapshot.set_label(self.target)),
        }
    }

    /// The `create` request line.
    pub fn create_line(&self, fx: &Fixture) -> String {
        let examples: Vec<String> = fx
            .examples
            .iter()
            .map(|&e| fx.snapshot.entity_label(e))
            .collect();
        let prior = match self.mode {
            Mode::Weighted => fx.prior.as_deref(),
            _ => None,
        };
        create_request_ext(
            &fx.name,
            &self.strategy,
            &examples,
            None,
            prior,
            self.mode == Mode::Noisy,
        )
    }
}

/// Protocol ops, in the order the per-op metrics report them.
pub const OPS: [&str; 4] = ["create", "ask", "answer", "close"];

/// A session in progress on one client.
pub struct Live {
    /// Server-side session id.
    pub id: u64,
    /// Questions (or screens) answered so far.
    pub questions: usize,
    /// The label the service reported when the session ended.
    pub discovered: Option<String>,
}

fn span_name(op: &str) -> &'static str {
    match op {
        "create" => "client.create",
        "ask" => "client.ask",
        "answer" => "client.answer",
        _ => "client.close",
    }
}

/// Sends one request and checks `"ok":true`; the span covers the call.
fn call(client: &mut dyn Client, op: &str, session: u64, line: &str) -> Result<JsonValue, String> {
    let resp = {
        let _span = trace::enter_session(span_name(op), session);
        client
            .call(line)
            .map_err(|e| format!("{op}: transport error: {e}"))?
    };
    let v = parse_json(&resp).map_err(|e| format!("{op}: bad response {resp:?}: {e:?}"))?;
    if v.get("ok").and_then(JsonValue::as_bool) != Some(true) {
        return Err(format!("{op}: {resp}"));
    }
    Ok(v)
}

impl Live {
    /// Sends `create`.
    pub fn create(client: &mut dyn Client, script: &Script, fx: &Fixture) -> Result<Self, String> {
        let v = call(client, "create", 0, &script.create_line(fx))?;
        let id = v
            .get("session")
            .and_then(JsonValue::as_u64)
            .ok_or("create: no session id")?;
        Ok(Self {
            id,
            questions: 0,
            discovered: None,
        })
    }

    /// One question: `ask`, then the user's `answer`. Returns `false` when
    /// the service reported the session done instead of asking.
    pub fn step(
        &mut self,
        client: &mut dyn Client,
        script: &Script,
        fx: &Fixture,
    ) -> Result<bool, String> {
        let id = self.id;
        let ask = match script.mode {
            Mode::Choices => format!(r#"{{"op":"ask","session":{id},"choices":{CHOICES}}}"#),
            _ => format!(r#"{{"op":"ask","session":{id}}}"#),
        };
        let v = call(client, "ask", id, &ask)?;
        if v.get("done").and_then(JsonValue::as_bool) == Some(true) {
            self.discovered = v
                .get("discovered")
                .and_then(JsonValue::as_str)
                .map(str::to_string);
            return Ok(false);
        }
        let target = fx.snapshot.collection().set(script.target);
        let member = |name: &str| {
            fx.snapshot
                .resolve_entity(name)
                .is_some_and(|e| target.contains(e))
        };
        let line = if script.mode == Mode::Choices {
            let batch: Vec<&str> = match v.get("entities").and_then(JsonValue::as_array) {
                Some(items) => items.iter().filter_map(JsonValue::as_str).collect(),
                None => v
                    .get("entity")
                    .and_then(JsonValue::as_str)
                    .into_iter()
                    .collect(),
            };
            let choice = batch.iter().position(|e| member(e)).unwrap_or(batch.len());
            format!(r#"{{"op":"answer","session":{id},"choice":{choice}}}"#)
        } else {
            let entity = v
                .get("entity")
                .and_then(JsonValue::as_str)
                .ok_or("ask: no entity")?;
            let lie = script.mode == Mode::Noisy && self.questions == NOISY_LIE_AT;
            let answer = if member(entity) != lie { "yes" } else { "no" };
            let confident = if lie { r#","confident":false"# } else { "" };
            format!(
                r#"{{"op":"answer","session":{id},"entity":"{entity}","answer":"{answer}"{confident}}}"#
            )
        };
        call(client, "answer", id, &line)?;
        self.questions += 1;
        Ok(true)
    }

    /// Sends `close` and checks the outcome against the script.
    pub fn close(
        self,
        client: &mut dyn Client,
        script: &Script,
        fx: &Fixture,
    ) -> Result<usize, String> {
        call(
            client,
            "close",
            self.id,
            &format!(r#"{{"op":"close","session":{}}}"#, self.id),
        )?;
        let expected = script.expected(fx);
        if self.discovered != expected {
            return Err(format!(
                "session {} discovered {:?}, expected {expected:?}",
                self.id, self.discovered
            ));
        }
        Ok(self.questions)
    }
}

/// Result of one closed-loop session: questions asked and the wall time
/// of each (ask + answer), ns.
pub struct Ran {
    /// Per-question latencies, ns.
    pub latencies: Vec<u64>,
    /// The session's time outside its questions (`create`, the final
    /// `ask` that reports it done, `close`), ns.
    pub around_ns: u64,
}

/// Runs one whole session back to back (closed loop).
pub fn run(client: &mut dyn Client, script: &Script, fx: &Fixture) -> Result<Ran, String> {
    let started = Instant::now();
    let mut live = Live::create(client, script, fx)?;
    let mut around_ns = started.elapsed().as_nanos() as u64;
    let mut latencies = Vec::new();
    let done = loop {
        let started = Instant::now();
        if !live.step(client, script, fx)? {
            break started;
        }
        latencies.push(started.elapsed().as_nanos() as u64);
    };
    live.close(client, script, fx)?;
    around_ns += done.elapsed().as_nanos() as u64;
    Ok(Ran {
        latencies,
        around_ns,
    })
}

/// A seeded prior in which about half the sets are twice as likely as
/// the rest. Stronger skews weaken the weighted bounds' pruning enough
/// that one weighted k-LP(2) plan over 874 sets takes seconds (weights
/// up to 64: ~7 s against 40 ms for the unweighted k-LP(3) plan).
pub fn skewed_prior(len: usize, rng: &mut setdisc_util::Rng) -> Vec<u64> {
    (0..len).map(|_| 1 + rng.gen_range(2)).collect()
}

/// What a noisy session over `snapshot` with `spec` should discover for
/// every target: a direct backtracking engine run with the same lie. The
/// runs share a private plan cache (lossless, so only faster).
pub fn noisy_references(snapshot: &Snapshot, spec: &StrategySpec) -> Vec<Option<String>> {
    let collection = snapshot.collection();
    let cache = Arc::new(PlanCache::for_collection(collection, 1 << 20));
    let key = spec.plan_key().expect("deterministic strategy");
    (0..collection.len() as u32)
        .map(|t| {
            let target = collection.set(SetId(t));
            let scope = ScopedPlanCache::new_prevalidated(Arc::clone(&cache), key, collection);
            let mut engine = Engine::new(collection, &[], spec.build());
            engine.set_selection_cache(Some(Arc::new(scope)));
            engine.set_backtracking(true);
            let mut asked = 0;
            while let Some(e) = engine.next_question() {
                let lie = asked == NOISY_LIE_AT;
                let yes = target.contains(e) != lie;
                let answer = if yes { Answer::Yes } else { Answer::No };
                engine.answer_full(e, answer, !lie);
                asked += 1;
            }
            engine
                .outcome()
                .discovered()
                .map(|id| snapshot.set_label(id))
        })
        .collect()
}
