//! `provio-hpcfs` — a simulated HPC storage stack.
//!
//! The paper evaluates PROV-IO on a Lustre parallel file system and captures
//! POSIX I/O by interposing syscalls with GOTCHA (paper §5). This crate is
//! that substrate, built from scratch:
//!
//! * [`FileSystem`] — a POSIX-like in-memory file system: directories,
//!   regular files, symlinks/hard links, inode extended attributes (which
//!   back the PROV-IO *Attribute* entity sub-class on the POSIX side),
//!   rename, fsync, and sparse file content so multi-terabyte synthetic
//!   datasets occupy metadata only.
//! * [`lustre::LustreConfig`] — a striping cost model (stripe count/size,
//!   OST latency/bandwidth) that charges every operation's modeled duration
//!   to the calling process's virtual clock.
//! * [`syscall`] — the interposition layer: every [`FsSession`] operation is
//!   routed through a [`syscall::Dispatcher`] which invokes registered
//!   [`syscall::SyscallHook`]s with the full event (pid, call, paths, bytes,
//!   duration). PROV-IO's POSIX wrapper is one such hook; the workflow code
//!   never changes — exactly GOTCHA's contract.
//!
//! Processes interact with the file system through an [`FsSession`], which
//! bundles a process id, user, virtual clock and file-descriptor table.
#![warn(unreachable_pub)]

pub(crate) mod content;
pub(crate) mod error;
pub(crate) mod fault;
pub mod fs;
pub(crate) mod lustre;
pub(crate) mod session;
pub(crate) mod syscall;
pub(crate) mod trace;

pub use content::FileContent;
pub use error::FsError;
pub use fault::{CorruptKind, FaultOp, FaultPlan, FaultRule, TamperKind};
pub use fs::{FileSystem, Ino, Metadata};
pub use lustre::LustreConfig;
pub use session::{Fd, FsSession, OpenFlags, Whence};
pub use syscall::{Dispatcher, SyscallEvent, SyscallHook, SyscallKind};
pub use trace::{OpTrace, TraceOp};
