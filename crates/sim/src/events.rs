//! Structured simulation events and pluggable trace sinks.
//!
//! The cycle model can narrate a run as a stream of [`SimEvent`]s —
//! spawns, squashes, diverts, stall episodes, retirement batches —
//! delivered to a [`TraceSink`]. Tracing is *zero-cost when off*: the
//! default [`NullSink`] reports [`TraceSink::enabled`]` == false` and the
//! machine skips event construction entirely, so the figure sweeps pay
//! nothing and their output stays byte-identical. Event emission never
//! feeds back into simulation state, so any sink observes the exact same
//! run the null sink would.
//!
//! Two sinks are provided:
//!
//! * [`NullSink`] — discards everything (the default).
//! * [`JsonlSink`] — writes each event as one compact JSON object per
//!   line to any [`std::io::Write`], through the workspace's one JSON
//!   writer ([`polyflow_isa::json`]).

use crate::account::Bucket;
use polyflow_core::SpawnKind;
use polyflow_isa::json::{Style, Writer};
use polyflow_isa::Pc;

/// One structured event in a simulation run. `task` is the dynamic task
/// uid — an index into `CycleAccount::tasks`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimEvent {
    /// The Task Spawn Unit split the fetch stream.
    Spawn {
        /// Cycle of the spawn.
        cycle: u64,
        /// Uid of the new task.
        task: u32,
        /// Trigger PC (the fetched branch/call that caused the spawn).
        trigger: Pc,
        /// Target PC (start of the new task).
        target: Pc,
        /// Trace index where the new task begins.
        target_index: u32,
        /// Spawn classification.
        kind: SpawnKind,
        /// Live tasks immediately after the spawn.
        live_tasks: u8,
    },
    /// A dependence violation (or ROB reclamation) squashed a task and
    /// everything younger.
    Squash {
        /// Cycle of the squash.
        cycle: u64,
        /// Uid of the oldest squashed task (the violator, or the
        /// youngest task for a reclamation).
        task: u32,
        /// In-flight instructions discarded.
        discarded: u64,
        /// True for §6 ROB-reclamation squashes, false for dependence
        /// violations.
        reclaim: bool,
    },
    /// An instruction entered the divert queue (§3.1).
    Divert {
        /// Cycle of the diversion.
        cycle: u64,
        /// Uid of the task that owns the instruction.
        task: u32,
        /// Trace index of the diverted instruction.
        index: u32,
    },
    /// A task entered a stall episode (see [`Bucket`] for the taxonomy).
    StallBegin {
        /// First stalled cycle.
        cycle: u64,
        /// Uid of the stalled task.
        task: u32,
        /// What the task is stalled on.
        bucket: Bucket,
    },
    /// A task left its current stall episode.
    StallEnd {
        /// First non-stalled cycle.
        cycle: u64,
        /// Uid of the task.
        task: u32,
        /// The bucket of the episode that ended.
        bucket: Bucket,
    },
    /// One or more instructions retired this cycle.
    RetireBatch {
        /// Retirement cycle.
        cycle: u64,
        /// Instructions retired this cycle.
        count: u32,
        /// Trace index of the next unretired instruction.
        retire_ptr: u32,
    },
}

impl SimEvent {
    /// The event's cycle.
    pub fn cycle(&self) -> u64 {
        match *self {
            SimEvent::Spawn { cycle, .. }
            | SimEvent::Squash { cycle, .. }
            | SimEvent::Divert { cycle, .. }
            | SimEvent::StallBegin { cycle, .. }
            | SimEvent::StallEnd { cycle, .. }
            | SimEvent::RetireBatch { cycle, .. } => cycle,
        }
    }

    /// Stable kind tag (the `"event"` field of the JSONL encoding).
    pub fn kind_label(&self) -> &'static str {
        match self {
            SimEvent::Spawn { .. } => "spawn",
            SimEvent::Squash { .. } => "squash",
            SimEvent::Divert { .. } => "divert",
            SimEvent::StallBegin { .. } => "stall_begin",
            SimEvent::StallEnd { .. } => "stall_end",
            SimEvent::RetireBatch { .. } => "retire_batch",
        }
    }

    /// Writes the event as one JSON object (a JSONL line without its
    /// newline): `event` and `cycle`, then the variant's fields.
    pub fn write_json(&self, w: &mut Writer) {
        w.object(|w| {
            w.key("event").str(self.kind_label());
            w.key("cycle").u64(self.cycle());
            match *self {
                SimEvent::Spawn {
                    task,
                    trigger,
                    target,
                    target_index,
                    kind,
                    live_tasks,
                    ..
                } => {
                    w.key("task").u64(u64::from(task));
                    w.key("trigger").display(trigger);
                    w.key("target").display(target);
                    w.key("target_index").u64(u64::from(target_index));
                    w.key("kind").display(kind);
                    w.key("live_tasks").u64(u64::from(live_tasks));
                }
                SimEvent::Squash {
                    task,
                    discarded,
                    reclaim,
                    ..
                } => {
                    w.key("task").u64(u64::from(task));
                    w.key("discarded").u64(discarded);
                    w.key("reclaim").bool(reclaim);
                }
                SimEvent::Divert { task, index, .. } => {
                    w.key("task").u64(u64::from(task));
                    w.key("index").u64(u64::from(index));
                }
                SimEvent::StallBegin { task, bucket, .. }
                | SimEvent::StallEnd { task, bucket, .. } => {
                    w.key("task").u64(u64::from(task));
                    w.key("bucket").display(bucket);
                }
                SimEvent::RetireBatch {
                    count, retire_ptr, ..
                } => {
                    w.key("count").u64(u64::from(count));
                    w.key("retire_ptr").u64(u64::from(retire_ptr));
                }
            }
        });
    }
}

/// A consumer of [`SimEvent`]s. Implementations must not assume any
/// particular event ordering beyond nondecreasing cycles.
pub trait TraceSink {
    /// Whether the machine should construct and deliver events at all.
    /// Returning `false` makes tracing free; the value is read once per
    /// run.
    fn enabled(&self) -> bool {
        true
    }

    /// Receives one event.
    fn event(&mut self, ev: &SimEvent);
}

/// Discards every event; [`TraceSink::enabled`] is `false`, so the
/// machine skips event construction entirely.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn event(&mut self, _ev: &SimEvent) {}
}

/// Streams events as JSON Lines to any writer. Each line is rendered
/// into one buffer that lives as long as the sink.
#[derive(Debug)]
pub struct JsonlSink<W: std::io::Write> {
    w: W,
    line: Writer,
    written: u64,
    errored: bool,
}

impl<W: std::io::Write> JsonlSink<W> {
    /// Wraps `w`; each event becomes one line.
    pub fn new(w: W) -> JsonlSink<W> {
        JsonlSink {
            w,
            line: Writer::new(Style::Compact),
            written: 0,
            errored: false,
        }
    }

    /// Lines successfully written.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Flushes and returns the inner writer.
    pub fn into_inner(mut self) -> W {
        let _ = self.w.flush();
        self.w
    }
}

impl<W: std::io::Write> TraceSink for JsonlSink<W> {
    fn event(&mut self, ev: &SimEvent) {
        if self.errored {
            return; // sink failures must never disturb the simulation
        }
        self.line.clear();
        ev.write_json(&mut self.line);
        let line = self.line.as_str().as_bytes();
        if self
            .w
            .write_all(line)
            .and_then(|()| self.w.write_all(b"\n"))
            .is_err()
        {
            self.errored = true;
            return;
        }
        self.written += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spawn_event(cycle: u64) -> SimEvent {
        SimEvent::Spawn {
            cycle,
            task: 3,
            trigger: Pc::new(5),
            target: Pc::new(9),
            target_index: 40,
            kind: SpawnKind::Hammock,
            live_tasks: 2,
        }
    }

    #[test]
    fn null_sink_is_disabled() {
        assert!(!NullSink.enabled());
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.event(&spawn_event(12));
        sink.event(&SimEvent::RetireBatch {
            cycle: 13,
            count: 8,
            retire_ptr: 64,
        });
        assert_eq!(sink.written(), 2);
        let out = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"event\":\"spawn\",\"cycle\":12,"));
        assert!(lines[0].contains("\"kind\":\"Hammock\""));
        assert!(lines[1].contains("\"retire_ptr\":64"));
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'));
            assert_eq!(l.matches('{').count(), l.matches('}').count());
        }
    }

    #[test]
    fn every_variant_encodes_its_kind_tag() {
        let events = [
            spawn_event(1),
            SimEvent::Squash {
                cycle: 2,
                task: 1,
                discarded: 17,
                reclaim: false,
            },
            SimEvent::Divert {
                cycle: 3,
                task: 0,
                index: 99,
            },
            SimEvent::StallBegin {
                cycle: 4,
                task: 2,
                bucket: Bucket::BranchStall,
            },
            SimEvent::StallEnd {
                cycle: 5,
                task: 2,
                bucket: Bucket::BranchStall,
            },
            SimEvent::RetireBatch {
                cycle: 6,
                count: 1,
                retire_ptr: 7,
            },
        ];
        for ev in events {
            let mut w = Writer::new(Style::Compact);
            ev.write_json(&mut w);
            let json = w.finish();
            assert!(
                json.contains(&format!("\"event\":\"{}\"", ev.kind_label())),
                "{json}"
            );
            assert!(json.contains(&format!("\"cycle\":{}", ev.cycle())));
        }
    }
}
