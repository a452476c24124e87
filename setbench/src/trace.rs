//! The traced run's span recorder and the timing wrappers it puts around
//! the program's selection strategy and plan cache.
//!
//! Spans live in a per-thread in-memory buffer (no locks, no I/O on the
//! measured path) and are written out when the run ends. Only the
//! benchmark's own code opens spans: around client calls and
//! `Service::handle_line`, around `Engine` calls in replays, and inside
//! [`TimedStrategy`] / [`TimedCache`].

use setdisc_core::engine::SelectionCache;
use setdisc_core::entity::EntityId;
use setdisc_core::strategy::{SelectionDetail, SelectionStrategy};
use setdisc_core::subcollection::SubCollection;
use setdisc_util::FxHashSet;
use std::cell::RefCell;
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `engine.answer`.
    pub name: &'static str,
    /// Start, ns since the run's epoch.
    pub start: u64,
    /// End, ns since the run's epoch.
    pub end: u64,
    /// Index of the enclosing span in the same thread's buffer.
    pub parent: Option<usize>,
    /// The session the span belongs to (inherited from the parent).
    pub session: u64,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on the calling thread (times relative to `epoch`).
pub fn start(epoch: Instant) {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        })
    });
}

/// Stops recording on the calling thread and returns its spans.
pub fn finish() -> Vec<Span> {
    RECORDER.with(|r| r.borrow_mut().take().map(|r| r.spans).unwrap_or_default())
}

/// Ends its span when dropped; inert when the thread is not recording.
pub struct Guard(Option<usize>);

/// Opens a span inheriting the enclosing span's session.
pub fn enter(name: &'static str) -> Guard {
    open(name, None)
}

/// Opens a span for `session`.
pub fn enter_session(name: &'static str, session: u64) -> Guard {
    open(name, Some(session))
}

fn open(name: &'static str, session: Option<u64>) -> Guard {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let Some(rec) = r.as_mut() else {
            return Guard(None);
        };
        let parent = rec.open.last().copied();
        let session = session
            .or_else(|| parent.map(|p| rec.spans[p].session))
            .unwrap_or(0);
        let start = rec.epoch.elapsed().as_nanos() as u64;
        rec.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            session,
        });
        let idx = rec.spans.len() - 1;
        rec.open.push(idx);
        Guard(Some(idx))
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(idx) = self.0 else { return };
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.spans[idx].end = rec.epoch.elapsed().as_nanos() as u64;
                rec.open.pop();
            }
        });
    }
}

/// Writes every thread's spans as tab-separated lines
/// (`thread name start_ns end_ns parent session`).
pub fn write(path: &std::path::Path, threads: &[(&str, &[Span])]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "thread\tname\tstart_ns\tend_ns\tparent\tsession")?;
    for (thread, spans) in threads {
        for s in spans.iter() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{thread}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start, s.end, s.session
            )?;
        }
    }
    out.flush()
}

/// Per-selection record of a [`TimedStrategy`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Selection {
    /// Wall time of the selection, ns.
    pub ns: u64,
    /// Informative entities at the node (Table 4's `|I|`).
    pub informative: u32,
    /// Entities whose bound computation started.
    pub evaluated: u32,
    /// Elements of the view selected on.
    pub elements: u64,
    /// Partition-kernel calls inside the selection (obs counts; only when
    /// [`TimedStrategy::count_calls`] is set).
    pub partition_calls: u64,
}

/// Times every selection of the wrapped strategy (span
/// `lookahead.select`) and keeps its Table-4 counters. Selects exactly
/// what the inner strategy selects: `select_excluding` runs the inner
/// `select_with_detail`, which the trait pins to the same entity.
pub struct TimedStrategy<S> {
    inner: S,
    /// Every selection so far, in order.
    pub selections: Vec<Selection>,
    /// Also read the program's `partition` obs counter around each
    /// selection.
    pub count_calls: bool,
}

impl<S: SelectionStrategy> TimedStrategy<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        Self {
            inner,
            selections: Vec::new(),
            count_calls: false,
        }
    }

    fn timed(
        &mut self,
        view: &SubCollection<'_>,
        excluded: &FxHashSet<EntityId>,
    ) -> Option<SelectionDetail> {
        let before = self.count_calls.then(partition_calls);
        let started = Instant::now();
        let detail = {
            let _span = enter("lookahead.select");
            self.inner.select_with_detail(view, excluded)
        };
        let ns = started.elapsed().as_nanos() as u64;
        let partitions = before.map_or(0, |p0| partition_calls() - p0);
        self.selections.push(Selection {
            ns,
            informative: detail.map_or(0, |d| d.informative),
            evaluated: detail.map_or(0, |d| d.evaluated),
            elements: view.total_elements() as u64,
            partition_calls: partitions,
        });
        detail
    }
}

/// Calls so far at the program's `partition` obs site. (Its `count` site
/// does not cover `informative_into` / `informative_weighted`, which the
/// lookahead counts with, so count calls are not read.)
pub fn partition_calls() -> u64 {
    setdisc_util::obs::snapshot()
        .into_iter()
        .find(|site| site.name == "partition")
        .map_or(0, |site| site.histogram.count)
}

impl<S: SelectionStrategy> SelectionStrategy for TimedStrategy<S> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn select_excluding(
        &mut self,
        view: &SubCollection<'_>,
        excluded: &FxHashSet<EntityId>,
    ) -> Option<EntityId> {
        self.timed(view, excluded).map(|d| d.entity)
    }

    fn select_with_detail(
        &mut self,
        view: &SubCollection<'_>,
        excluded: &FxHashSet<EntityId>,
    ) -> Option<SelectionDetail> {
        self.timed(view, excluded)
    }
}

/// Opens `plan.lookup` / `plan.record` spans around the wrapped cache.
pub struct TimedCache<C>(pub C);

impl<C: SelectionCache> SelectionCache for TimedCache<C> {
    fn lookup(&self, view: &SubCollection<'_>) -> Option<EntityId> {
        let _span = enter("plan.lookup");
        self.0.lookup(view)
    }

    fn record(&self, view: &SubCollection<'_>, detail: &SelectionDetail) {
        let _span = enter("plan.record");
        self.0.record(view, detail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_inherit_the_session() {
        start(Instant::now());
        {
            let _a = enter_session("client.ask", 7);
            let _b = enter("engine.next_question");
        }
        let _c = enter("orphan");
        drop(_c);
        let spans = finish();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].parent, spans[0].session), (None, 7));
        assert_eq!((spans[1].parent, spans[1].session), (Some(0), 7));
        assert!(spans[1].start >= spans[0].start && spans[1].end <= spans[0].end);
        assert_eq!((spans[2].parent, spans[2].session), (None, 0));
        // Not recording: guards are inert.
        drop(enter("ignored"));
        assert!(finish().is_empty());
    }
}
