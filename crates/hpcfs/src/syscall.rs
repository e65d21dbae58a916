//! Syscall interposition — the GOTCHA substitute.
//!
//! Real PROV-IO wraps POSIX syscalls with GOTCHA so provenance capture needs
//! no changes to workflow source (paper §5). Here, every [`crate::FsSession`]
//! operation constructs a [`SyscallEvent`] and routes it through the
//! session's [`Dispatcher`] after the native operation completes, passing
//! the native result through untouched. Hooks observe the call, its
//! arguments, outcome and modeled duration; PROV-IO's POSIX wrapper is one
//! hook, I/O tracers or fault injectors can be others.
//!
//! Hooks can be toggled at runtime (the paper configures the wrapper "via
//! environmental variables"); a disabled dispatcher adds no work beyond one
//! relaxed atomic load.

use parking_lot::RwLock;
use provio_simrt::{SimDuration, SimTime, VirtualClock};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Which syscall an event describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyscallKind {
    Open,
    Creat,
    Close,
    Read,
    Write,
    Pread,
    Pwrite,
    Lseek,
    Fsync,
    Rename,
    Unlink,
    Mkdir,
    Rmdir,
    Stat,
    Readdir,
    Link,
    Symlink,
    SetXattr,
    GetXattr,
    ListXattr,
    Truncate,
}

impl SyscallKind {
    /// The name a GOTCHA wrapper would intercept.
    pub fn name(self) -> &'static str {
        match self {
            SyscallKind::Open => "open",
            SyscallKind::Creat => "creat",
            SyscallKind::Close => "close",
            SyscallKind::Read => "read",
            SyscallKind::Write => "write",
            SyscallKind::Pread => "pread",
            SyscallKind::Pwrite => "pwrite",
            SyscallKind::Lseek => "lseek",
            SyscallKind::Fsync => "fsync",
            SyscallKind::Rename => "rename",
            SyscallKind::Unlink => "unlink",
            SyscallKind::Mkdir => "mkdir",
            SyscallKind::Rmdir => "rmdir",
            SyscallKind::Stat => "stat",
            SyscallKind::Readdir => "readdir",
            SyscallKind::Link => "link",
            SyscallKind::Symlink => "symlink",
            SyscallKind::SetXattr => "setxattr",
            SyscallKind::GetXattr => "getxattr",
            SyscallKind::ListXattr => "listxattr",
            SyscallKind::Truncate => "truncate",
        }
    }
}

/// A completed syscall, as observed by the interposition layer.
#[derive(Debug, Clone)]
pub struct SyscallEvent {
    pub pid: u32,
    /// Name of the user who owns the process.
    pub user: String,
    /// Name of the program the process is running.
    pub program: String,
    pub kind: SyscallKind,
    /// Primary path argument, if any.
    pub path: Option<String>,
    /// Secondary path (rename/link targets).
    pub path2: Option<String>,
    /// File descriptor argument, if any.
    pub fd: Option<u32>,
    /// Payload size for data calls.
    pub bytes: u64,
    /// Extended-attribute name for xattr calls.
    pub attr_name: Option<String>,
    /// Whether the native call succeeded.
    pub ok: bool,
    /// Modeled duration of the native call.
    pub duration: SimDuration,
    /// Virtual time at completion.
    pub timestamp: SimTime,
}

/// A syscall observer. `clock` is the issuing process's virtual clock so a
/// hook that models a cost of its own (like the PROV-IO wrapper's
/// per-record latency) can charge it to the workflow, exactly like
/// in-process interposition.
pub trait SyscallHook: Send + Sync {
    fn on_syscall(&self, event: &SyscallEvent, clock: &VirtualClock);
}

/// A registry of hooks. Cheap to clone (shared internals).
#[derive(Clone, Default)]
pub struct Dispatcher {
    hooks: Arc<RwLock<Vec<Arc<dyn SyscallHook>>>>,
    enabled: Arc<AtomicBool>,
}

impl Dispatcher {
    pub fn new() -> Self {
        Dispatcher {
            hooks: Arc::new(RwLock::new(Vec::new())),
            enabled: Arc::new(AtomicBool::new(true)),
        }
    }

    /// Register a hook. Hooks run in registration order.
    pub fn register(&self, hook: Arc<dyn SyscallHook>) {
        self.hooks.write().push(hook);
    }

    /// Remove all hooks.
    pub fn clear(&self) {
        self.hooks.write().clear();
    }

    /// Globally enable/disable dispatch (the "environment variable" switch).
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Release);
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Acquire)
    }

    pub fn hook_count(&self) -> usize {
        self.hooks.read().len()
    }

    /// Deliver `event` to every hook (if enabled).
    pub fn dispatch(&self, event: &SyscallEvent, clock: &VirtualClock) {
        if !self.is_enabled() {
            return;
        }
        let hooks = self.hooks.read();
        for h in hooks.iter() {
            h.on_syscall(event, clock);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    struct Counter(AtomicUsize);

    impl SyscallHook for Counter {
        fn on_syscall(&self, _e: &SyscallEvent, _c: &VirtualClock) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn event(kind: SyscallKind) -> SyscallEvent {
        SyscallEvent {
            pid: 1,
            user: "u".into(),
            program: "p".into(),
            kind,
            path: Some("/f".into()),
            path2: None,
            fd: None,
            bytes: 0,
            attr_name: None,
            ok: true,
            duration: SimDuration::ZERO,
            timestamp: SimTime::ZERO,
        }
    }

    #[test]
    fn hooks_receive_events_in_order() {
        let d = Dispatcher::new();
        let c1 = Arc::new(Counter(AtomicUsize::new(0)));
        let c2 = Arc::new(Counter(AtomicUsize::new(0)));
        d.register(c1.clone());
        d.register(c2.clone());
        let clock = VirtualClock::new();
        d.dispatch(&event(SyscallKind::Open), &clock);
        d.dispatch(&event(SyscallKind::Read), &clock);
        assert_eq!(c1.0.load(Ordering::Relaxed), 2);
        assert_eq!(c2.0.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn disabled_dispatcher_is_silent() {
        let d = Dispatcher::new();
        let c = Arc::new(Counter(AtomicUsize::new(0)));
        d.register(c.clone());
        d.set_enabled(false);
        d.dispatch(&event(SyscallKind::Write), &VirtualClock::new());
        assert_eq!(c.0.load(Ordering::Relaxed), 0);
        d.set_enabled(true);
        d.dispatch(&event(SyscallKind::Write), &VirtualClock::new());
        assert_eq!(c.0.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn clear_removes_hooks() {
        let d = Dispatcher::new();
        d.register(Arc::new(Counter(AtomicUsize::new(0))));
        assert_eq!(d.hook_count(), 1);
        d.clear();
        assert_eq!(d.hook_count(), 0);
    }

    #[test]
    fn syscall_names() {
        assert_eq!(SyscallKind::Pwrite.name(), "pwrite");
        assert_eq!(SyscallKind::GetXattr.name(), "getxattr");
    }
}
