//! Per-request lifecycle records: the journey of one request through
//! the serving plane.
//!
//! A [`LifecycleRecord`] is deliberately tiny — a request id, a stage
//! name, the slot, and the shard / base-station involved — so recording
//! one costs a few stores and the stream stays byte-deterministic for a
//! fixed seed. The driver writes its stages (admission, placement,
//! handoff) directly; each shard worker records serve-side stages
//! (start, complete, expire, abort) into a bounded [`LifecycleRing`]
//! that the driver drains at each watermark fold in shard order, exactly
//! like the trace rings. A [`LifecycleWriter`] renders the merged
//! stream as one JSONL object per record.
//!
//! Stage vocabulary (driver side): `admit`, `buffer`, `spill`, `shed`,
//! `hold`, `release`, `redirect`, `handoff`. Worker side: `start`,
//! `complete`, `expire`, `abort`. Unknown stages must be tolerated by
//! consumers — the set grows.

use std::collections::VecDeque;
use std::io::Write;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Shard field value for records emitted by the driver rather than a
/// shard worker.
pub const DRIVER: i64 = -1;

/// Field value meaning "no base station involved in this stage".
pub const NO_BS: i64 = -1;

/// One step of one request's journey.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LifecycleRecord {
    /// The request's global id (stable across shards and restarts).
    pub id: u64,
    /// Stage name (see the module docs for the vocabulary).
    pub stage: &'static str,
    /// Slot in which the stage happened.
    pub slot: u64,
    /// Shard involved, or [`DRIVER`] for driver-side stages.
    pub shard: i64,
    /// Global base-station id involved, or [`NO_BS`].
    pub bs: i64,
}

impl LifecycleRecord {
    /// Renders the record as one JSON line (without trailing newline).
    /// Stage names are ASCII identifiers, so no escaping is needed.
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"id\":{},\"stage\":\"{}\",\"slot\":{},\"shard\":{},\"bs\":{}}}",
            self.id, self.stage, self.slot, self.shard, self.bs
        )
    }
}

/// Where lifecycle records go. Mirrors [`crate::EventSink`]: implemented
/// by rings and by `Option<S>` (a `None` sink drops records) so call
/// sites stay unconditional.
pub trait LifecycleSink {
    /// Accepts one record.
    fn life(&self, record: LifecycleRecord);
}

impl<S: LifecycleSink> LifecycleSink for Option<S> {
    fn life(&self, record: LifecycleRecord) {
        if let Some(sink) = self {
            sink.life(record);
        }
    }
}

impl<S: LifecycleSink + ?Sized> LifecycleSink for &S {
    fn life(&self, record: LifecycleRecord) {
        (**self).life(record);
    }
}

#[derive(Debug)]
struct RingInner {
    buf: VecDeque<LifecycleRecord>,
    cap: usize,
    dropped: u64,
}

/// A bounded, shareable buffer of lifecycle records.
///
/// Cloning shares the underlying buffer — the driver keeps one clone
/// per shard (so records survive a worker crash) and hands the other to
/// the worker. When full, the *newest* record is dropped and counted,
/// matching [`crate::TraceRing`] semantics.
#[derive(Debug, Clone)]
pub struct LifecycleRing {
    inner: Arc<Mutex<RingInner>>,
}

impl LifecycleRing {
    /// A ring holding at most `cap` records (minimum one).
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            inner: Arc::new(Mutex::new(RingInner {
                buf: VecDeque::new(),
                cap: cap.max(1),
                dropped: 0,
            })),
        }
    }

    /// Locks the ring, recovering from a poisoned mutex: records are
    /// plain data, so the state is valid regardless of where a panicking
    /// thread stopped.
    fn lock(&self) -> MutexGuard<'_, RingInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Removes and returns all buffered records in arrival order.
    pub fn drain(&self) -> Vec<LifecycleRecord> {
        self.lock().buf.drain(..).collect()
    }

    /// Records dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }
}

impl LifecycleSink for LifecycleRing {
    fn life(&self, record: LifecycleRecord) {
        let mut inner = self.lock();
        if inner.buf.len() >= inner.cap {
            inner.dropped += 1;
            return;
        }
        inner.buf.push_back(record);
    }
}

/// Serializes lifecycle records as JSONL. Write errors are swallowed
/// (observability must never take down the run); `written` counts the
/// records that made it out.
pub struct LifecycleWriter {
    out: Box<dyn Write + Send>,
    written: u64,
}

impl std::fmt::Debug for LifecycleWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LifecycleWriter")
            .field("written", &self.written)
            .finish_non_exhaustive()
    }
}

impl LifecycleWriter {
    /// A writer over any byte sink.
    pub fn new(out: Box<dyn Write + Send>) -> Self {
        Self { out, written: 0 }
    }

    /// Writes one record as a JSON line.
    pub fn write(&mut self, record: &LifecycleRecord) {
        let line = record.to_json_line();
        if writeln!(self.out, "{line}").is_ok() {
            self.written += 1;
        }
    }

    /// Records successfully written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Flushes the underlying sink (errors swallowed).
    pub fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, stage: &'static str, slot: u64) -> LifecycleRecord {
        LifecycleRecord {
            id,
            stage,
            slot,
            shard: DRIVER,
            bs: NO_BS,
        }
    }

    #[test]
    fn renders_compact_json() {
        let r = LifecycleRecord {
            id: 7,
            stage: "admit",
            slot: 3,
            shard: 1,
            bs: 13,
        };
        assert_eq!(
            r.to_json_line(),
            "{\"id\":7,\"stage\":\"admit\",\"slot\":3,\"shard\":1,\"bs\":13}"
        );
        assert_eq!(
            rec(0, "shed", 0).to_json_line(),
            "{\"id\":0,\"stage\":\"shed\",\"slot\":0,\"shard\":-1,\"bs\":-1}"
        );
    }

    #[test]
    fn ring_drops_newest_and_counts() {
        let ring = LifecycleRing::with_capacity(2);
        for i in 0..5 {
            ring.life(rec(i, "admit", i));
        }
        let drained = ring.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].id, 0);
        assert_eq!(drained[1].id, 1);
        assert_eq!(ring.dropped(), 3);
        // Draining frees capacity again.
        ring.life(rec(9, "complete", 9));
        assert_eq!(ring.drain().len(), 1);
    }

    #[test]
    fn clones_share_the_buffer() {
        let a = LifecycleRing::with_capacity(8);
        let b = a.clone();
        b.life(rec(1, "start", 4));
        assert_eq!(a.drain().len(), 1);
        assert!(b.drain().is_empty());
    }

    #[test]
    fn option_sink_is_transparent() {
        let some = Some(LifecycleRing::with_capacity(4));
        some.life(rec(2, "expire", 8));
        assert_eq!(some.as_ref().unwrap().drain().len(), 1);
        let none: Option<LifecycleRing> = None;
        none.life(rec(3, "abort", 9));
    }

    #[test]
    fn writer_counts_lines() {
        #[derive(Clone)]
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = Arc::new(Mutex::new(Vec::new()));
        let mut w = LifecycleWriter::new(Box::new(Shared(buf.clone())));
        w.write(&rec(1, "admit", 0));
        w.write(&rec(1, "complete", 5));
        w.flush();
        assert_eq!(w.written(), 2);
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"stage\":\"complete\""));
    }
}
