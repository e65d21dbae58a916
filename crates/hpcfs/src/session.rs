//! A process's view of the file system: file descriptors, the POSIX call
//! surface, cost charging, and syscall-event dispatch.
//!
//! `FsSession` is what simulated workflow code holds. Every call:
//! 1. performs the native operation on the shared [`FileSystem`],
//! 2. charges the modeled Lustre cost to this process's [`VirtualClock`],
//! 3. emits a [`SyscallEvent`] through the session's [`Dispatcher`].
//!
//! That ordering mirrors GOTCHA interposition: the wrapper observes a
//! completed call and its result, and any time the wrapper itself spends is
//! additional time the process pays (hooks charge themselves via the clock
//! handle they receive).

use crate::error::{FsError, FsResult};
use crate::fs::{FileSystem, Ino, Metadata};
use crate::syscall::{Dispatcher, SyscallEvent, SyscallKind};
use parking_lot::Mutex;
use provio_simrt::{SimDuration, VirtualClock};
use std::collections::HashMap;
use std::sync::Arc;

/// A file descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fd(pub u32);

/// open(2) flags (the subset the workflows use).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpenFlags {
    pub read: bool,
    pub write: bool,
    pub create: bool,
    pub truncate: bool,
    pub append: bool,
    pub excl: bool,
}

impl OpenFlags {
    /// O_RDONLY
    pub fn rdonly() -> Self {
        OpenFlags {
            read: true,
            ..Default::default()
        }
    }

    /// O_WRONLY
    pub fn wronly() -> Self {
        OpenFlags {
            write: true,
            ..Default::default()
        }
    }

    /// O_RDWR
    pub fn rdwr() -> Self {
        OpenFlags {
            read: true,
            write: true,
            ..Default::default()
        }
    }

    pub fn with_create(mut self) -> Self {
        self.create = true;
        self
    }

    pub fn with_truncate(mut self) -> Self {
        self.truncate = true;
        self
    }

    pub fn with_append(mut self) -> Self {
        self.append = true;
        self
    }
}

/// lseek whence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Whence {
    Set,
    Cur,
    End,
}

#[derive(Debug)]
struct OpenFile {
    ino: Ino,
    path: String,
    offset: u64,
    flags: OpenFlags,
    /// Bytes written since the last fsync (drives fsync cost).
    dirty_bytes: u64,
}

/// A simulated process handle onto a shared [`FileSystem`].
pub struct FsSession {
    fs: Arc<FileSystem>,
    pid: u32,
    user: String,
    program: String,
    clock: VirtualClock,
    dispatcher: Dispatcher,
    state: Mutex<SessionState>,
}

#[derive(Debug, Default)]
struct SessionState {
    fds: HashMap<u32, OpenFile>,
    next_fd: u32,
}

impl FsSession {
    pub fn new(
        fs: Arc<FileSystem>,
        pid: u32,
        user: impl Into<String>,
        program: impl Into<String>,
        clock: VirtualClock,
        dispatcher: Dispatcher,
    ) -> Self {
        FsSession {
            fs,
            pid,
            user: user.into(),
            program: program.into(),
            clock,
            dispatcher,
            state: Mutex::new(SessionState {
                fds: HashMap::new(),
                next_fd: 3, // 0,1,2 are "stdio"
            }),
        }
    }

    pub fn pid(&self) -> u32 {
        self.pid
    }

    pub fn user(&self) -> &str {
        &self.user
    }

    pub fn program(&self) -> &str {
        &self.program
    }

    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    pub fn fs(&self) -> &Arc<FileSystem> {
        &self.fs
    }

    pub fn dispatcher(&self) -> &Dispatcher {
        &self.dispatcher
    }

    /// Charge pure compute time (the workflow's own work between I/O calls).
    pub fn compute(&self, d: SimDuration) {
        self.clock.advance(d);
    }

    #[allow(clippy::too_many_arguments)]
    fn emit(
        &self,
        kind: SyscallKind,
        path: Option<&str>,
        path2: Option<&str>,
        fd: Option<Fd>,
        bytes: u64,
        attr_name: Option<&str>,
        ok: bool,
        duration: SimDuration,
    ) {
        self.clock.advance(duration);
        let event = SyscallEvent {
            pid: self.pid,
            user: self.user.clone(),
            program: self.program.clone(),
            kind,
            path: path.map(str::to_string),
            path2: path2.map(str::to_string),
            fd: fd.map(|f| f.0),
            bytes,
            attr_name: attr_name.map(str::to_string),
            ok,
            duration,
            timestamp: self.clock.now(),
        };
        self.dispatcher.dispatch(&event, &self.clock);
    }

    // --- the call surface -------------------------------------------------

    pub fn open(&self, path: &str, flags: OpenFlags) -> FsResult<Fd> {
        let cost = self.fs.config().meta_op();
        let now = self.clock.now();
        let result = (|| {
            let ino = if flags.create {
                self.fs.create_file(path, flags.excl, &self.user, now)?
            } else {
                let ino = self.fs.lookup(path)?;
                let md = self.fs.stat_ino(ino)?;
                if md.kind == crate::fs::FileKind::Directory && flags.write {
                    return Err(FsError::IsADirectory);
                }
                ino
            };
            if flags.truncate && flags.write {
                self.fs.truncate_ino(ino, 0, now)?;
            }
            let offset = if flags.append {
                self.fs.file_size(ino).unwrap_or(0)
            } else {
                0
            };
            let mut st = self.state.lock();
            let fd = st.next_fd;
            st.next_fd += 1;
            st.fds.insert(
                fd,
                OpenFile {
                    ino,
                    path: path.to_string(),
                    offset,
                    flags,
                    dirty_bytes: 0,
                },
            );
            Ok(Fd(fd))
        })();
        let kind = if flags.create {
            SyscallKind::Creat
        } else {
            SyscallKind::Open
        };
        self.emit(kind, Some(path), None, result.as_ref().ok().copied(), 0, None, result.is_ok(), cost);
        result
    }

    pub fn close(&self, fd: Fd) -> FsResult<()> {
        let cost = SimDuration::from_nanos(self.fs.config().client_overhead_ns);
        let (result, path) = {
            let mut st = self.state.lock();
            match st.fds.remove(&fd.0) {
                Some(of) => (Ok(()), Some(of.path)),
                None => (Err(FsError::BadFd), None),
            }
        };
        self.emit(
            SyscallKind::Close,
            path.as_deref(),
            None,
            Some(fd),
            0,
            None,
            result.is_ok(),
            cost,
        );
        result
    }

    fn with_fd<T>(
        &self,
        fd: Fd,
        f: impl FnOnce(&mut OpenFile) -> FsResult<T>,
    ) -> FsResult<(T, String)> {
        let mut st = self.state.lock();
        let of = st.fds.get_mut(&fd.0).ok_or(FsError::BadFd)?;
        let path = of.path.clone();
        f(of).map(|v| (v, path))
    }

    /// read(2): from the current offset.
    pub fn read(&self, fd: Fd, len: u64) -> FsResult<bytes::Bytes> {
        let fs = &self.fs;
        let result = self.with_fd(fd, |of| {
            if !of.flags.read {
                return Err(FsError::AccessDenied);
            }
            let data = fs.read_at(of.ino, of.offset, len)?;
            of.offset += data.len() as u64;
            Ok(data)
        });
        let (ok, nbytes, path) = match &result {
            Ok((d, p)) => (true, d.len() as u64, Some(p.clone())),
            Err(_) => (false, 0, None),
        };
        let cost = self.fs.config().data_op(nbytes);
        self.emit(SyscallKind::Read, path.as_deref(), None, Some(fd), nbytes, None, ok, cost);
        result.map(|(d, _)| d)
    }

    /// write(2): at the current offset (or EOF when O_APPEND).
    pub fn write(&self, fd: Fd, data: &[u8]) -> FsResult<u64> {
        self.write_impl(fd, WritePayload::Real(data), SyscallKind::Write, None)
    }

    /// A write of `len` synthetic bytes: charged and sized like write(2) but
    /// not materialized (see [`crate::content::FileContent`]).
    pub fn write_synthetic(&self, fd: Fd, len: u64) -> FsResult<u64> {
        self.write_impl(fd, WritePayload::Synthetic(len), SyscallKind::Write, None)
    }

    /// pread(2).
    pub fn pread(&self, fd: Fd, offset: u64, len: u64) -> FsResult<bytes::Bytes> {
        let fs = &self.fs;
        let result = self.with_fd(fd, |of| {
            if !of.flags.read {
                return Err(FsError::AccessDenied);
            }
            fs.read_at(of.ino, offset, len)
        });
        let (ok, nbytes, path) = match &result {
            Ok((d, p)) => (true, d.len() as u64, Some(p.clone())),
            Err(_) => (false, 0, None),
        };
        let cost = self.fs.config().data_op(nbytes);
        self.emit(SyscallKind::Pread, path.as_deref(), None, Some(fd), nbytes, None, ok, cost);
        result.map(|(d, _)| d)
    }

    /// pwrite(2).
    pub fn pwrite(&self, fd: Fd, offset: u64, data: &[u8]) -> FsResult<u64> {
        self.write_impl(fd, WritePayload::Real(data), SyscallKind::Pwrite, Some(offset))
    }

    fn write_impl(
        &self,
        fd: Fd,
        payload: WritePayload<'_>,
        kind: SyscallKind,
        offset: Option<u64>,
    ) -> FsResult<u64> {
        let len = payload.len();
        let fs = &self.fs;
        let now = self.clock.now();
        let result = self.with_fd(fd, |of| {
            if !of.flags.write {
                return Err(FsError::AccessDenied);
            }
            let at = match offset {
                Some(o) => o,
                None => {
                    if of.flags.append {
                        fs.file_size(of.ino)?
                    } else {
                        of.offset
                    }
                }
            };
            match payload {
                WritePayload::Real(data) => fs.write_at(of.ino, at, data, now)?,
                WritePayload::Synthetic(n) => fs.write_synthetic_at(of.ino, at, n, now)?,
            }
            if offset.is_none() {
                of.offset = at + len;
            }
            of.dirty_bytes += len;
            Ok(len)
        });
        let (ok, path) = match &result {
            Ok((_, p)) => (true, Some(p.clone())),
            Err(_) => (false, None),
        };
        let cost = self.fs.config().data_op(if ok { len } else { 0 });
        self.emit(kind, path.as_deref(), None, Some(fd), if ok { len } else { 0 }, None, ok, cost);
        result.map(|(n, _)| n)
    }

    pub fn lseek(&self, fd: Fd, offset: i64, whence: Whence) -> FsResult<u64> {
        let fs = &self.fs;
        let result = self.with_fd(fd, |of| {
            let base = match whence {
                Whence::Set => 0i64,
                Whence::Cur => of.offset as i64,
                Whence::End => fs.file_size(of.ino)? as i64,
            };
            let new = base + offset;
            if new < 0 {
                return Err(FsError::InvalidArgument);
            }
            of.offset = new as u64;
            Ok(of.offset)
        });
        let cost = SimDuration::from_nanos(self.fs.config().client_overhead_ns);
        let ok = result.is_ok();
        let path = result.as_ref().ok().map(|(_, p)| p.clone());
        self.emit(SyscallKind::Lseek, path.as_deref(), None, Some(fd), 0, None, ok, cost);
        result.map(|(o, _)| o)
    }

    pub fn fsync(&self, fd: Fd) -> FsResult<()> {
        let result = self.with_fd(fd, |of| {
            let dirty = of.dirty_bytes;
            of.dirty_bytes = 0;
            Ok(dirty)
        });
        let (ok, dirty, path) = match &result {
            Ok((d, p)) => (true, *d, Some(p.clone())),
            Err(_) => (false, 0, None),
        };
        let cost = self.fs.config().fsync_op(dirty);
        self.emit(SyscallKind::Fsync, path.as_deref(), None, Some(fd), dirty, None, ok, cost);
        result.map(|_| ())
    }

    /// One path-level metadata call: charge the metadata cost, emit the
    /// event for the completed call, hand its result back.
    fn meta<T>(
        &self,
        kind: SyscallKind,
        path: &str,
        path2: Option<&str>,
        bytes: u64,
        attr_name: Option<&str>,
        result: FsResult<T>,
    ) -> FsResult<T> {
        let cost = self.fs.config().meta_op();
        self.emit(kind, Some(path), path2, None, bytes, attr_name, result.is_ok(), cost);
        result
    }

    pub fn rename(&self, old: &str, new: &str) -> FsResult<()> {
        let result = self.fs.rename(old, new, self.clock.now());
        self.meta(SyscallKind::Rename, old, Some(new), 0, None, result)
    }

    pub fn unlink(&self, path: &str) -> FsResult<()> {
        self.meta(SyscallKind::Unlink, path, None, 0, None, self.fs.unlink(path))
    }

    pub fn mkdir(&self, path: &str) -> FsResult<()> {
        let result = self.fs.mkdir(path, &self.user, self.clock.now()).map(|_| ());
        self.meta(SyscallKind::Mkdir, path, None, 0, None, result)
    }

    pub fn rmdir(&self, path: &str) -> FsResult<()> {
        self.meta(SyscallKind::Rmdir, path, None, 0, None, self.fs.rmdir(path))
    }

    pub fn stat(&self, path: &str) -> FsResult<Metadata> {
        self.meta(SyscallKind::Stat, path, None, 0, None, self.fs.stat(path))
    }

    pub fn readdir(&self, path: &str) -> FsResult<Vec<String>> {
        self.meta(SyscallKind::Readdir, path, None, 0, None, self.fs.readdir(path))
    }

    pub fn link(&self, existing: &str, new: &str) -> FsResult<()> {
        let result = self.fs.link(existing, new, self.clock.now());
        self.meta(SyscallKind::Link, existing, Some(new), 0, None, result)
    }

    pub fn symlink(&self, target: &str, linkpath: &str) -> FsResult<()> {
        let result = self.fs.symlink(target, linkpath, &self.user, self.clock.now());
        self.meta(SyscallKind::Symlink, target, Some(linkpath), 0, None, result)
    }

    pub fn setxattr(&self, path: &str, name: &str, value: &[u8]) -> FsResult<()> {
        let result = self.fs.setxattr(path, name, value, self.clock.now());
        self.meta(SyscallKind::SetXattr, path, None, value.len() as u64, Some(name), result)
    }

    pub fn getxattr(&self, path: &str, name: &str) -> FsResult<Vec<u8>> {
        let result = self.fs.getxattr(path, name);
        let bytes = result.as_ref().map(|v| v.len() as u64).unwrap_or(0);
        self.meta(SyscallKind::GetXattr, path, None, bytes, Some(name), result)
    }

    pub fn listxattr(&self, path: &str) -> FsResult<Vec<String>> {
        self.meta(SyscallKind::ListXattr, path, None, 0, None, self.fs.listxattr(path))
    }

    pub fn truncate(&self, path: &str, size: u64) -> FsResult<()> {
        let result = self
            .fs
            .lookup(path)
            .and_then(|ino| self.fs.truncate_ino(ino, size, self.clock.now()));
        self.meta(SyscallKind::Truncate, path, None, size, None, result)
    }

    /// Convenience: read a whole file to a Vec.
    pub fn read_file(&self, path: &str) -> FsResult<Vec<u8>> {
        let fd = self.open(path, OpenFlags::rdonly())?;
        let size = self.fs.stat(path)?.size;
        let data = self.read(fd, size)?;
        self.close(fd)?;
        Ok(data.to_vec())
    }

    /// Convenience: create/truncate a file with the given contents.
    pub fn write_file(&self, path: &str, data: &[u8]) -> FsResult<()> {
        let fd = self.open(path, OpenFlags::wronly().with_create().with_truncate())?;
        self.write(fd, data)?;
        self.close(fd)?;
        Ok(())
    }

    /// Number of currently open descriptors (leak checks in tests).
    pub fn open_fd_count(&self) -> usize {
        self.state.lock().fds.len()
    }
}

enum WritePayload<'a> {
    Real(&'a [u8]),
    Synthetic(u64),
}

impl WritePayload<'_> {
    fn len(&self) -> u64 {
        match self {
            WritePayload::Real(d) => d.len() as u64,
            WritePayload::Synthetic(n) => *n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lustre::LustreConfig;
    use crate::syscall::SyscallHook;
    use parking_lot::Mutex as PlMutex;

    fn session() -> FsSession {
        let fs = FileSystem::new(LustreConfig::default());
        FsSession::new(
            fs,
            100,
            "alice",
            "decimate",
            VirtualClock::new(),
            Dispatcher::new(),
        )
    }

    #[test]
    fn open_write_read_close() {
        let s = session();
        let fd = s.open("/f", OpenFlags::rdwr().with_create()).unwrap();
        assert_eq!(s.write(fd, b"hello").unwrap(), 5);
        s.lseek(fd, 0, Whence::Set).unwrap();
        assert_eq!(&s.read(fd, 5).unwrap()[..], b"hello");
        s.close(fd).unwrap();
        assert_eq!(s.open_fd_count(), 0);
        assert!(s.close(fd).is_err(), "double close is EBADF");
    }

    #[test]
    fn offsets_advance_sequentially() {
        let s = session();
        let fd = s.open("/f", OpenFlags::rdwr().with_create()).unwrap();
        s.write(fd, b"abc").unwrap();
        s.write(fd, b"def").unwrap();
        s.lseek(fd, 0, Whence::Set).unwrap();
        assert_eq!(&s.read(fd, 6).unwrap()[..], b"abcdef");
        // Partial reads move the offset by the returned length.
        s.lseek(fd, 4, Whence::Set).unwrap();
        assert_eq!(&s.read(fd, 100).unwrap()[..], b"ef");
        assert!(s.read(fd, 10).unwrap().is_empty());
    }

    #[test]
    fn append_mode_writes_at_eof() {
        let s = session();
        s.write_file("/log", b"one").unwrap();
        let fd = s.open("/log", OpenFlags::wronly().with_append()).unwrap();
        s.write(fd, b"+two").unwrap();
        s.close(fd).unwrap();
        assert_eq!(s.read_file("/log").unwrap(), b"one+two");
    }

    #[test]
    fn access_mode_enforced() {
        let s = session();
        s.write_file("/f", b"x").unwrap();
        let fd = s.open("/f", OpenFlags::rdonly()).unwrap();
        assert_eq!(s.write(fd, b"y"), Err(FsError::AccessDenied));
        let fd2 = s.open("/f", OpenFlags::wronly()).unwrap();
        assert_eq!(s.read(fd2, 1), Err(FsError::AccessDenied));
    }

    #[test]
    fn clock_advances_with_io() {
        let s = session();
        let t0 = s.clock().now();
        s.write_file("/f", &vec![0u8; 1 << 20]).unwrap();
        let t1 = s.clock().now();
        assert!(t1 > t0, "I/O must cost virtual time");
        // A bigger write costs more.
        s.write_file("/g", &vec![0u8; 8 << 20]).unwrap();
        let t2 = s.clock().now();
        assert!(t2.elapsed_since(t1) > t1.elapsed_since(t0));
    }

    #[test]
    fn synthetic_write_sized_but_not_resident() {
        let s = session();
        let fd = s.open("/big", OpenFlags::wronly().with_create()).unwrap();
        s.write_synthetic(fd, 10 << 30).unwrap();
        s.close(fd).unwrap();
        assert_eq!(s.fs().stat("/big").unwrap().size, 10 << 30);
        assert_eq!(s.fs().total_resident_bytes(), 0);
    }

    #[test]
    fn pread_pwrite_do_not_move_offset() {
        let s = session();
        let fd = s.open("/f", OpenFlags::rdwr().with_create()).unwrap();
        s.write(fd, b"0123456789").unwrap();
        s.pwrite(fd, 2, b"XY").unwrap();
        assert_eq!(&s.pread(fd, 0, 10).unwrap()[..], b"01XY456789");
        // Sequential offset still at 10.
        assert_eq!(s.lseek(fd, 0, Whence::Cur).unwrap(), 10);
    }

    #[test]
    fn fsync_cost_scales_with_dirty_bytes() {
        let s = session();
        let fd = s.open("/f", OpenFlags::wronly().with_create()).unwrap();
        s.write_synthetic(fd, 64 << 20).unwrap();
        let before = s.clock().now();
        s.fsync(fd).unwrap();
        let big = s.clock().now().elapsed_since(before);
        // Second fsync with no new dirty bytes is cheap.
        let before = s.clock().now();
        s.fsync(fd).unwrap();
        let small = s.clock().now().elapsed_since(before);
        assert!(big > small, "{big} vs {small}");
    }

    #[test]
    fn events_reach_hooks_with_context() {
        struct Capture(PlMutex<Vec<SyscallEvent>>);
        impl SyscallHook for Capture {
            fn on_syscall(&self, e: &SyscallEvent, _c: &VirtualClock) {
                self.0.lock().push(e.clone());
            }
        }
        let s = session();
        let cap = Arc::new(Capture(PlMutex::new(Vec::new())));
        s.dispatcher().register(cap.clone());
        s.write_file("/traced", b"abc").unwrap();
        let events = cap.0.lock();
        let kinds: Vec<SyscallKind> = events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![SyscallKind::Creat, SyscallKind::Write, SyscallKind::Close]
        );
        let w = &events[1];
        assert_eq!(w.pid, 100);
        assert_eq!(w.user, "alice");
        assert_eq!(w.program, "decimate");
        assert_eq!(w.path.as_deref(), Some("/traced"));
        assert_eq!(w.bytes, 3);
        assert!(w.ok);
        assert!(w.duration.as_nanos() > 0);
    }

    #[test]
    fn failed_calls_emit_not_ok_events() {
        struct LastOk(PlMutex<Option<bool>>);
        impl SyscallHook for LastOk {
            fn on_syscall(&self, e: &SyscallEvent, _c: &VirtualClock) {
                *self.0.lock() = Some(e.ok);
            }
        }
        let s = session();
        let h = Arc::new(LastOk(PlMutex::new(None)));
        s.dispatcher().register(h.clone());
        assert!(s.open("/missing", OpenFlags::rdonly()).is_err());
        assert_eq!(*h.0.lock(), Some(false));
    }

    #[test]
    fn xattr_calls_surface_attr_name() {
        struct Names(PlMutex<Vec<String>>);
        impl SyscallHook for Names {
            fn on_syscall(&self, e: &SyscallEvent, _c: &VirtualClock) {
                if let Some(n) = &e.attr_name {
                    self.0.lock().push(n.clone());
                }
            }
        }
        let s = session();
        let h = Arc::new(Names(PlMutex::new(Vec::new())));
        s.dispatcher().register(h.clone());
        s.write_file("/f", b"").unwrap();
        s.setxattr("/f", "user.sample_rate", b"500").unwrap();
        s.getxattr("/f", "user.sample_rate").unwrap();
        assert_eq!(*h.0.lock(), vec!["user.sample_rate", "user.sample_rate"]);
    }

    #[test]
    fn rename_event_has_both_paths() {
        struct Paths(PlMutex<Option<(String, String)>>);
        impl SyscallHook for Paths {
            fn on_syscall(&self, e: &SyscallEvent, _c: &VirtualClock) {
                if e.kind == SyscallKind::Rename {
                    *self.0.lock() =
                        Some((e.path.clone().unwrap(), e.path2.clone().unwrap()));
                }
            }
        }
        let s = session();
        let h = Arc::new(Paths(PlMutex::new(None)));
        s.dispatcher().register(h.clone());
        s.write_file("/old", b"").unwrap();
        s.rename("/old", "/new").unwrap();
        assert_eq!(*h.0.lock(), Some(("/old".into(), "/new".into())));
    }
}
