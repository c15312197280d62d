//! Timing of the driver's calls into the reproduction.
//!
//! Every call the driver makes into a layer goes through [`Meter::call`],
//! which times it on the host clock and, in the traced run, also records a
//! span. The end-to-end metrics come from the per-call samples of untraced
//! repetitions; the traced run adds the span tree on top of the same
//! samples, so the difference between the two is the tracing overhead.

use std::time::Instant;

use crate::span::SpanRecorder;

/// The calls the driver makes, by the layer function they enter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Call {
    // Ops: driver calls into the `gdmp` API that do user-visible work.
    Publish,
    Lookup,
    Replicate,
    ReplicatePending,
    RunRecovery,
    FileCover,
    ObjectReplicate,
    // Other layer calls.
    Advance,
    Build,
    CheckGrid,
    Parse,
    Populate,
    Cascade,
    SampleSeries,
    Export,
}

impl Call {
    /// Span name, `<layer>.<function>`.
    pub fn span_name(self) -> &'static str {
        match self {
            Call::Publish => "gdmp.publish",
            Call::Lookup => "gdmp.lookup",
            Call::Replicate => "gdmp.replicate",
            Call::ReplicatePending => "gdmp.replicate_pending",
            Call::RunRecovery => "gdmp.run_recovery",
            Call::FileCover => "gdmp.file_cover",
            Call::ObjectReplicate => "gdmp.object_replicate",
            Call::Advance => "gdmp.advance",
            Call::Build => "gdmp.build",
            Call::CheckGrid => "gdmp.check_grid",
            Call::Parse => "workloads.parse",
            Call::Populate => "workloads.populate",
            Call::Cascade => "workloads.cascade",
            Call::SampleSeries => "workloads.sample_series",
            Call::Export => "telemetry.export",
        }
    }

    /// Does a measured-phase call of this kind count as one op?
    pub fn is_op(self) -> bool {
        self <= Call::ObjectReplicate
    }
}

/// The three parts of one repetition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Scenario text → parsed, built, seeded, warmed grid.
    Setup,
    /// The op stream.
    Measured,
    /// Invariant sweep, output checks, telemetry export.
    Check,
}

impl Phase {
    fn span_name(self) -> &'static str {
        match self {
            Phase::Setup => "driver.setup",
            Phase::Measured => "driver.measured",
            Phase::Check => "driver.check",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub call: Call,
    pub phase: Phase,
    pub ns: u64,
}

pub struct Meter {
    pub spans: Option<SpanRecorder>,
    pub samples: Vec<Sample>,
    phase: Phase,
    phase_span: Option<usize>,
    phase_start: Instant,
    ops: u64,
}

impl Meter {
    pub fn new(traced: bool) -> Meter {
        Meter {
            spans: traced.then(SpanRecorder::default),
            samples: Vec::new(),
            phase: Phase::Setup,
            phase_span: None,
            phase_start: Instant::now(),
            ops: 0,
        }
    }

    /// Start a phase; [`Meter::end_phase`] returns its host seconds.
    pub fn begin_phase(&mut self, phase: Phase) {
        self.phase = phase;
        self.phase_span = self.spans.as_mut().map(|s| s.enter(phase.span_name(), 0));
        self.phase_start = Instant::now();
    }

    pub fn end_phase(&mut self) -> f64 {
        let s = self.phase_start.elapsed().as_secs_f64();
        if let (Some(rec), Some(id)) = (self.spans.as_mut(), self.phase_span.take()) {
            rec.exit(id);
        }
        s
    }

    /// Time one call into a layer.
    pub fn call<T>(&mut self, call: Call, f: impl FnOnce() -> T) -> T {
        let op = if self.phase == Phase::Measured && call.is_op() {
            self.ops += 1;
            self.ops
        } else {
            0
        };
        let span = self.spans.as_mut().map(|s| s.enter(call.span_name(), op));
        let t = Instant::now();
        let out = f();
        let ns = t.elapsed().as_nanos() as u64;
        if let (Some(rec), Some(id)) = (self.spans.as_mut(), span) {
            rec.exit(id);
        }
        self.samples.push(Sample { call, phase: self.phase, ns });
        out
    }

    /// Host nanoseconds of every measured-phase op, in call order.
    pub fn op_latencies(&self) -> impl Iterator<Item = u64> + '_ {
        self.samples.iter().filter(|s| s.phase == Phase::Measured && s.call.is_op()).map(|s| s.ns)
    }

    /// `(count, busy ns)` of `call` within `phase`.
    pub fn busy(&self, call: Call, phase: Phase) -> (u64, u64) {
        self.samples
            .iter()
            .filter(|s| s.call == call && s.phase == phase)
            .fold((0, 0), |(n, ns), s| (n + 1, ns + s.ns))
    }

    /// Calls of `call` across all phases.
    pub fn calls(&self, call: Call) -> u64 {
        self.samples.iter().filter(|s| s.call == call).count() as u64
    }

    /// Busy ns of `call` across all phases.
    pub fn busy_all(&self, call: Call) -> u64 {
        self.samples.iter().filter(|s| s.call == call).map(|s| s.ns).sum()
    }
}
