//! Syscall trace recording — the substrate of the crash-state explorer
//! in `provio-crashcheck` (DESIGN.md §15).
//!
//! A workload runs once against a [`crate::FileSystem`] with an [`OpTrace`]
//! attached; every *successful* mutating operation (create, positional
//! write with its full buffer, rename, unlink, truncate) is appended to
//! the trace in issue order. Which post-crash disks that trace can leave
//! behind is the explorer's decision, not the file system's.

use bytes::Bytes;
use std::sync::{Arc, Mutex};

/// One successful mutating file-system operation, with everything needed
/// to replay it bit-for-bit onto a fresh file system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceOp {
    /// `create_file` succeeded for `path` (parents implied).
    Create { path: String },
    /// `write_at` persisted `data` (shared with the file) at `offset` of `path`.
    WriteAt {
        path: String,
        offset: u64,
        data: Bytes,
    },
    /// `rename` moved `old` to `new` — the protocol's ordering barrier.
    Rename { old: String, new: String },
    /// `unlink` removed `path`.
    Unlink { path: String },
    /// `truncate` resized the file at `path` to `size` bytes.
    Truncate { path: String, size: u64 },
}

impl TraceOp {
    /// The primary path the operation touches (the fault-rule match key).
    pub fn path(&self) -> &str {
        match self {
            TraceOp::Create { path }
            | TraceOp::WriteAt { path, .. }
            | TraceOp::Unlink { path }
            | TraceOp::Truncate { path, .. } => path,
            TraceOp::Rename { old, .. } => old,
        }
    }
}

/// An append-only recording of every successful mutating operation on a
/// file system, attached via [`crate::FileSystem::attach_tracer`]. Cheap to
/// share: the file system holds an `Arc` and appends under a mutex.
#[derive(Debug, Default)]
pub struct OpTrace {
    ops: Mutex<Vec<TraceOp>>,
}

impl OpTrace {
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Record one operation (called by the file system on success).
    pub(crate) fn record(&self, op: TraceOp) {
        self.ops.lock().expect("trace lock").push(op);
    }

    /// Number of operations recorded so far. Workloads sample this
    /// between phases to mark ack points in the trace.
    pub fn len(&self) -> usize {
        self.ops.lock().expect("trace lock").len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the recorded operations.
    pub fn snapshot(&self) -> Vec<TraceOp> {
        self.ops.lock().expect("trace lock").clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FileSystem, LustreConfig};
    use provio_simrt::SimTime;

    const T0: SimTime = SimTime(1_000);

    fn traced_fs() -> (Arc<FileSystem>, Arc<OpTrace>) {
        let fs = FileSystem::new(LustreConfig::default());
        let trace = OpTrace::new();
        fs.attach_tracer(Arc::clone(&trace));
        (fs, trace)
    }

    #[test]
    fn records_successful_mutations_in_order() {
        let (fs, trace) = traced_fs();
        fs.mkdir_all("/d", "t", T0).unwrap();
        let ino = fs.create_file("/d/a.tmp", false, "t", T0).unwrap();
        fs.write_at(ino, 0, b"hello", T0).unwrap();
        fs.rename("/d/a.tmp", "/d/a", T0).unwrap();
        fs.unlink("/d/a").unwrap();
        let ops = trace.snapshot();
        assert_eq!(
            ops,
            vec![
                TraceOp::Create { path: "/d/a.tmp".into() },
                TraceOp::WriteAt {
                    path: "/d/a.tmp".into(),
                    offset: 0,
                    data: Bytes::from(b"hello")
                },
                TraceOp::Rename { old: "/d/a.tmp".into(), new: "/d/a".into() },
                TraceOp::Unlink { path: "/d/a".into() },
            ]
        );
    }

    #[test]
    fn failed_operations_are_not_recorded() {
        let (fs, trace) = traced_fs();
        assert!(fs.unlink("/missing").is_err());
        assert!(fs.rename("/nope", "/nowhere", T0).is_err());
        assert!(trace.is_empty());
    }
}
