//! In-memory spans for the traced run.
//!
//! Spans are recorded from the benchmark's side of each public call, kept
//! in memory while the run measures, and written out once it ends.  Every
//! span belongs to one retrieval (its trace id) and has that retrieval's
//! root span as parent; the stages of one retrieval are recorded back to
//! back, so their sum reconciles with the retrieval's wall time and any
//! uncovered remainder is the root's self time.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The stages a client-side span can time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// The whole retrieval (the parent of every other span of its trace).
    Retrieval,
    /// Binding the client socket and sending `Join`.
    Join,
    /// `ControlClient::connect_with` + `subscribe`, fed into the session.
    ControlSubscribe,
    /// Time blocked in `recv_from`.
    RecvWait,
    /// `ClientState::feed_datagram`.
    Feed,
    /// `ClientState::finish` (reconstruction).
    Finish,
    /// Sending `Leave`.
    Leave,
    /// `RuntimeHandle::subscribe_with`.
    Subscribe,
    /// An in-process retrieval running in its runtime task, until the load
    /// generator observes it finished.
    Serve,
    /// `ClientHandle::join`.
    Resolve,
}

impl Stage {
    pub const ALL: [Stage; 10] = [
        Stage::Retrieval,
        Stage::Join,
        Stage::ControlSubscribe,
        Stage::RecvWait,
        Stage::Feed,
        Stage::Finish,
        Stage::Leave,
        Stage::Subscribe,
        Stage::Serve,
        Stage::Resolve,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Stage::Retrieval => "retrieval",
            Stage::Join => "bnet.control.join",
            Stage::ControlSubscribe => "bnet.control.subscribe",
            Stage::RecvWait => "bnet.socket.recv_wait",
            Stage::Feed => "bnet.session.feed",
            Stage::Finish => "ida.reconstruct",
            Stage::Leave => "bnet.control.leave",
            Stage::Subscribe => "brt.subscribe",
            Stage::Serve => "brt.serve",
            Stage::Resolve => "brt.resolve",
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Span {
    trace: u32,
    stage: Stage,
    start_ns: u64,
    end_ns: u64,
}

/// Per-retrieval totals by stage, in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Budget {
    pub total_ns: u64,
    pub covered_ns: u64,
    by_stage: [u64; 10],
    counts: [u64; 10],
}

impl Budget {
    pub fn stage_ns(&self, stage: Stage) -> u64 {
        self.by_stage[stage as usize]
    }

    pub fn stage_count(&self, stage: Stage) -> u64 {
        self.counts[stage as usize]
    }

    /// Wall time no child span covers (the root's self time).
    pub fn uncovered_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.covered_ns)
    }
}

/// The span store of one traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    budgets: Vec<Budget>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            budgets: Vec::new(),
        }
    }

    /// Opens the next retrieval's trace and returns its id.
    pub fn begin(&mut self) -> u32 {
        self.budgets.push(Budget::default());
        (self.budgets.len() - 1) as u32
    }

    /// Records one span of trace `trace`.
    pub fn span(&mut self, trace: u32, stage: Stage, start: Instant, end: Instant) {
        let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        let end_ns = end.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            trace,
            stage,
            start_ns,
            end_ns,
        });
        let budget = &mut self.budgets[trace as usize];
        let d = end_ns.saturating_sub(start_ns);
        budget.by_stage[stage as usize] += d;
        budget.counts[stage as usize] += 1;
        if stage == Stage::Retrieval {
            budget.total_ns = d;
        } else {
            budget.covered_ns += d;
        }
    }

    pub fn budgets(&self) -> &[Budget] {
        &self.budgets
    }

    /// Writes the first `full_traces` traces span by span, then one budget
    /// line per trace, as JSON lines.
    pub fn write(&self, path: &Path, full_traces: u32) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.iter().filter(|s| s.trace < full_traces) {
            let parent = if s.stage == Stage::Retrieval {
                "null".to_string()
            } else {
                format!("\"{}\"", Stage::Retrieval.name())
            };
            writeln!(
                out,
                "{{\"trace\":{},\"span\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.trace,
                s.stage.name(),
                parent,
                s.start_ns,
                s.end_ns
            )?;
        }
        for (trace, b) in self.budgets.iter().enumerate() {
            let stages: Vec<String> = Stage::ALL
                .iter()
                .filter(|&&st| b.stage_count(st) > 0 && st != Stage::Retrieval)
                .map(|&st| {
                    format!(
                        "\"{}\":{{\"count\":{},\"ns\":{}}}",
                        st.name(),
                        b.stage_count(st),
                        b.stage_ns(st)
                    )
                })
                .collect();
            writeln!(
                out,
                "{{\"trace\":{trace},\"total_ns\":{},\"uncovered_ns\":{},\"stages\":{{{}}}}}",
                b.total_ns,
                b.uncovered_ns(),
                stages.join(",")
            )?;
        }
        out.flush()
    }
}
