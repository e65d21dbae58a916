//! The in-memory POSIX-like file system.
//!
//! `FileSystem` owns the namespace and inode table behind one
//! `parking_lot::RwLock`; all path-level operations are short and
//! lock-scoped, so many simulated processes can share one instance. Modeled
//! I/O *time* is charged by the [`crate::session::FsSession`] layer, not
//! here — this module is pure semantics.

use crate::content::FileContent;
use crate::error::{FsError, FsResult};
use crate::fault::{CorruptKind, FaultAction, FaultOp, FaultPlan, TamperKind};
use crate::lustre::LustreConfig;
use crate::trace::{OpTrace, TraceOp};
use parking_lot::{Mutex, RwLock};
use provio_simrt::{DetRng, SimDuration, SimTime, VirtualClock};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

pub type Ino = u64;

const SYMLINK_LIMIT: usize = 40;

/// RNG stream for [`FileSystem::corrupt_at_rest`], distinct from the fault
/// plan's own stream so rest-time damage never perturbs scheduled faults.
const REST_CORRUPTION_STREAM: u64 = 0xB172;

/// Stream id for [`FileSystem::tamper_at_rest`] draws, separate from the
/// rot stream so a tamper schedule never perturbs a corruption schedule
/// under the same seed.
const REST_TAMPER_STREAM: u64 = 0x7A3F;

/// What kind of object an inode is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    File,
    Directory,
    Symlink,
}

#[derive(Debug)]
enum Node {
    File(FileContent),
    Dir(BTreeMap<String, Ino>),
    Symlink(String),
}

#[derive(Debug)]
struct Inode {
    node: Node,
    nlink: u32,
    xattrs: BTreeMap<String, Vec<u8>>,
    owner: String,
    mtime: SimTime,
    ctime: SimTime,
}

impl Inode {
    fn kind(&self) -> FileKind {
        match self.node {
            Node::File(_) => FileKind::File,
            Node::Dir(_) => FileKind::Directory,
            Node::Symlink(_) => FileKind::Symlink,
        }
    }

    fn as_dir(&self) -> FsResult<&BTreeMap<String, Ino>> {
        match &self.node {
            Node::Dir(d) => Ok(d),
            _ => Err(FsError::NotADirectory),
        }
    }

    fn as_dir_mut(&mut self) -> FsResult<&mut BTreeMap<String, Ino>> {
        match &mut self.node {
            Node::Dir(d) => Ok(d),
            _ => Err(FsError::NotADirectory),
        }
    }

    fn as_file(&self) -> FsResult<&FileContent> {
        match &self.node {
            Node::File(f) => Ok(f),
            Node::Dir(_) => Err(FsError::IsADirectory),
            Node::Symlink(_) => Err(FsError::InvalidArgument),
        }
    }

    fn as_file_mut(&mut self) -> FsResult<&mut FileContent> {
        match &mut self.node {
            Node::File(f) => Ok(f),
            Node::Dir(_) => Err(FsError::IsADirectory),
            Node::Symlink(_) => Err(FsError::InvalidArgument),
        }
    }
}

/// stat(2)-style metadata snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Metadata {
    pub ino: Ino,
    pub kind: FileKind,
    pub size: u64,
    pub nlink: u32,
    pub owner: String,
    pub mtime: SimTime,
    pub ctime: SimTime,
}

struct FsInner {
    inodes: HashMap<Ino, Inode>,
    next_ino: Ino,
    root: Ino,
}

/// A shareable simulated file system with a Lustre cost model attached.
pub struct FileSystem {
    inner: RwLock<FsInner>,
    config: LustreConfig,
    /// Installed fault schedule, if any (see [`crate::fault`]).
    faults: RwLock<Option<Arc<FaultPlan>>>,
    /// ino → last-created/renamed path, so ino-level ops (`write_at`,
    /// `truncate_ino`) can be matched by path-filtered fault rules.
    ino_paths: Mutex<HashMap<Ino, String>>,
    /// Clock that [`FaultAction::Delay`] stalls are charged to, when one is
    /// attached. Time charging otherwise stays in the session layer.
    clock: RwLock<Option<VirtualClock>>,
    /// Attached syscall trace for crashcheck, if any (see [`crate::trace`]).
    /// Successful mutating operations are recorded in issue order.
    tracer: RwLock<Option<Arc<OpTrace>>>,
}

impl FileSystem {
    /// An empty file system with the given Lustre configuration.
    pub fn new(config: LustreConfig) -> Arc<Self> {
        let root = Inode {
            node: Node::Dir(BTreeMap::new()),
            nlink: 2,
            xattrs: BTreeMap::new(),
            owner: "root".to_string(),
            mtime: SimTime::ZERO,
            ctime: SimTime::ZERO,
        };
        let mut inodes = HashMap::new();
        inodes.insert(1, root);
        Arc::new(FileSystem {
            inner: RwLock::new(FsInner {
                inodes,
                next_ino: 2,
                root: 1,
            }),
            config,
            faults: RwLock::new(None),
            ino_paths: Mutex::new(HashMap::new()),
            clock: RwLock::new(None),
            tracer: RwLock::new(None),
        })
    }

    /// The cost model used for this file system.
    pub fn config(&self) -> &LustreConfig {
        &self.config
    }

    // --- fault injection -------------------------------------------------

    /// Install a fault schedule, replacing any existing one.
    pub fn install_faults(&self, plan: Arc<FaultPlan>) {
        *self.faults.write() = Some(plan);
    }

    /// Remove the installed fault schedule.
    pub fn clear_faults(&self) {
        *self.faults.write() = None;
    }

    fn fault_decision(&self, op: FaultOp, path: &str) -> Option<FaultAction> {
        self.faults.read().as_ref().and_then(|p| p.decide(op, path))
    }

    /// Serve the decision for an operation that moves no data (create,
    /// unlink, rename, truncate): there is nothing to tear or flip, so
    /// `TornWrite` and `Corrupt` degrade to a media error; `Delay` stalls
    /// and lets the operation proceed.
    fn gate(&self, decision: Option<FaultAction>) -> FsResult<()> {
        match decision {
            Some(FaultAction::Fail(e)) => Err(e),
            Some(FaultAction::TornWrite { .. } | FaultAction::Corrupt(_)) => Err(FsError::Io),
            Some(FaultAction::Crash { .. }) => Err(FsError::Crashed),
            Some(FaultAction::Delay { ns }) => {
                self.stall(ns);
                Ok(())
            }
            None => Ok(()),
        }
    }

    /// Attach the clock [`FaultAction::Delay`] stalls are charged to.
    /// Virtual clocks share state through their handles, so the caller
    /// keeps observing the injected latency on its own copy.
    pub fn attach_clock(&self, clock: VirtualClock) {
        *self.clock.write() = Some(clock);
    }

    /// Detach the delay clock; stalls become counted no-ops again.
    pub fn detach_clock(&self) {
        *self.clock.write() = None;
    }

    // --- syscall tracing -------------------------------------------------

    /// Attach an operation trace; every subsequent successful mutating
    /// operation (create/write/rename/unlink/truncate) is recorded for
    /// crash-state enumeration (see [`crate::trace`]).
    pub fn attach_tracer(&self, trace: Arc<OpTrace>) {
        *self.tracer.write() = Some(trace);
    }

    /// Detach the operation trace; recording stops.
    pub fn detach_tracer(&self) {
        *self.tracer.write() = None;
    }

    /// Record `op` on the attached trace, if any. Called only after the
    /// operation has fully succeeded, so the trace replays cleanly.
    fn trace_op(&self, op: impl FnOnce() -> TraceOp) {
        if let Some(t) = self.tracer.read().as_ref() {
            t.record(op());
        }
    }

    /// Serve a fired [`FaultAction::Delay`]: advance the attached clock (if
    /// any) and let the caller proceed to the real operation.
    fn stall(&self, ns: u64) {
        if let Some(clock) = self.clock.read().as_ref() {
            clock.advance(SimDuration::from_nanos(ns));
        }
    }

    fn ino_path(&self, ino: Ino) -> String {
        self.ino_paths.lock().get(&ino).cloned().unwrap_or_default()
    }

    // --- path machinery ------------------------------------------------

    fn split_path(path: &str) -> FsResult<Vec<&str>> {
        if !path.starts_with('/') {
            return Err(FsError::BadPath);
        }
        Ok(path.split('/').filter(|c| !c.is_empty() && *c != ".").collect())
    }

    fn resolve_in(inner: &FsInner, path: &str, follow_last: bool) -> FsResult<Ino> {
        Self::resolve_rec(inner, path, follow_last, 0)
    }

    fn resolve_rec(
        inner: &FsInner,
        path: &str,
        follow_last: bool,
        depth: usize,
    ) -> FsResult<Ino> {
        if depth > SYMLINK_LIMIT {
            return Err(FsError::TooManySymlinks);
        }
        let comps = Self::split_path(path)?;
        let mut cur = inner.root;
        let mut stack: Vec<Ino> = vec![inner.root];
        for (i, comp) in comps.iter().enumerate() {
            if *comp == ".." {
                stack.pop();
                cur = *stack.last().unwrap_or(&inner.root);
                continue;
            }
            let inode = inner.inodes.get(&cur).ok_or(FsError::NotFound)?;
            let dir = inode.as_dir()?;
            let &child = dir.get(*comp).ok_or(FsError::NotFound)?;
            let child_inode = inner.inodes.get(&child).ok_or(FsError::NotFound)?;
            let is_last = i + 1 == comps.len();
            if let Node::Symlink(target) = &child_inode.node {
                if !is_last || follow_last {
                    // Resolve the symlink target, then continue with the
                    // remaining components appended.
                    let rest: String = comps[i + 1..].join("/");
                    let full = if rest.is_empty() {
                        target.clone()
                    } else {
                        format!("{}/{}", target.trim_end_matches('/'), rest)
                    };
                    return Self::resolve_rec(inner, &full, follow_last, depth + 1);
                }
            }
            cur = child;
            stack.push(child);
        }
        Ok(cur)
    }

    /// Resolve parent directory + final component of `path`.
    fn resolve_parent<'p>(inner: &FsInner, path: &'p str) -> FsResult<(Ino, &'p str)> {
        let comps = Self::split_path(path)?;
        let Some((&name, parents)) = comps.split_last() else {
            return Err(FsError::InvalidArgument); // operating on "/"
        };
        if name == ".." {
            return Err(FsError::InvalidArgument);
        }
        let parent_path = format!("/{}", parents.join("/"));
        let parent = Self::resolve_in(inner, &parent_path, true)?;
        Ok((parent, name))
    }

    // --- namespace operations -------------------------------------------

    /// Look up `path`, following symlinks.
    pub fn lookup(&self, path: &str) -> FsResult<Ino> {
        let inner = self.inner.read();
        Self::resolve_in(&inner, path, true)
    }

    pub fn exists(&self, path: &str) -> bool {
        self.lookup(path).is_ok()
    }

    /// Create a regular file. `excl` makes an existing file an error;
    /// otherwise an existing regular file is reused (open(O_CREAT)).
    pub fn create_file(
        &self,
        path: &str,
        excl: bool,
        owner: &str,
        now: SimTime,
    ) -> FsResult<Ino> {
        self.gate(self.fault_decision(FaultOp::CreateFile, path))?;
        let ino = self.create_file_inner(path, excl, owner, now)?;
        self.ino_paths.lock().insert(ino, path.to_string());
        self.trace_op(|| TraceOp::Create { path: path.to_string() });
        Ok(ino)
    }

    fn create_file_inner(
        &self,
        path: &str,
        excl: bool,
        owner: &str,
        now: SimTime,
    ) -> FsResult<Ino> {
        let mut inner = self.inner.write();
        let (parent, name) = Self::resolve_parent(&inner, path)?;
        let pdir = inner
            .inodes
            .get(&parent)
            .ok_or(FsError::NotFound)?
            .as_dir()?;
        if let Some(&existing) = pdir.get(name) {
            if excl {
                return Err(FsError::AlreadyExists);
            }
            let node = inner.inodes.get(&existing).ok_or(FsError::NotFound)?;
            return match node.kind() {
                FileKind::File => Ok(existing),
                FileKind::Directory => Err(FsError::IsADirectory),
                FileKind::Symlink => {
                    // Follow to the target (which must exist).
                    Self::resolve_in(&inner, path, true)
                }
            };
        }
        let ino = inner.next_ino;
        inner.next_ino += 1;
        inner.inodes.insert(
            ino,
            Inode {
                node: Node::File(FileContent::new()),
                nlink: 1,
                xattrs: BTreeMap::new(),
                owner: owner.to_string(),
                mtime: now,
                ctime: now,
            },
        );
        inner
            .inodes
            .get_mut(&parent)
            .expect("parent exists")
            .as_dir_mut()?
            .insert(name.to_string(), ino);
        Ok(ino)
    }

    pub fn mkdir(&self, path: &str, owner: &str, now: SimTime) -> FsResult<Ino> {
        let mut inner = self.inner.write();
        let (parent, name) = Self::resolve_parent(&inner, path)?;
        let pdir = inner
            .inodes
            .get(&parent)
            .ok_or(FsError::NotFound)?
            .as_dir()?;
        if pdir.contains_key(name) {
            return Err(FsError::AlreadyExists);
        }
        let ino = inner.next_ino;
        inner.next_ino += 1;
        inner.inodes.insert(
            ino,
            Inode {
                node: Node::Dir(BTreeMap::new()),
                nlink: 2,
                xattrs: BTreeMap::new(),
                owner: owner.to_string(),
                mtime: now,
                ctime: now,
            },
        );
        inner
            .inodes
            .get_mut(&parent)
            .expect("parent exists")
            .as_dir_mut()?
            .insert(name.to_string(), ino);
        Ok(ino)
    }

    /// `mkdir -p`.
    pub fn mkdir_all(&self, path: &str, owner: &str, now: SimTime) -> FsResult<()> {
        let comps: Vec<&str> = {
            // Validate syntax up front.
            Self::split_path(path)?
        };
        let mut cur = String::new();
        for c in comps {
            cur.push('/');
            cur.push_str(c);
            match self.mkdir(&cur, owner, now) {
                Ok(_) | Err(FsError::AlreadyExists) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    pub fn unlink(&self, path: &str) -> FsResult<()> {
        self.gate(self.fault_decision(FaultOp::Unlink, path))?;
        self.unlink_inner(path)?;
        self.trace_op(|| TraceOp::Unlink { path: path.to_string() });
        Ok(())
    }

    fn unlink_inner(&self, path: &str) -> FsResult<()> {
        let mut inner = self.inner.write();
        let (parent, name) = Self::resolve_parent(&inner, path)?;
        let pdir = inner
            .inodes
            .get(&parent)
            .ok_or(FsError::NotFound)?
            .as_dir()?;
        let &ino = pdir.get(name).ok_or(FsError::NotFound)?;
        if inner.inodes[&ino].kind() == FileKind::Directory {
            return Err(FsError::IsADirectory);
        }
        inner
            .inodes
            .get_mut(&parent)
            .expect("parent exists")
            .as_dir_mut()?
            .remove(name);
        let drop_inode = {
            let node = inner.inodes.get_mut(&ino).expect("linked inode");
            node.nlink -= 1;
            node.nlink == 0
        };
        if drop_inode {
            inner.inodes.remove(&ino);
        }
        Ok(())
    }

    pub fn rmdir(&self, path: &str) -> FsResult<()> {
        let mut inner = self.inner.write();
        let (parent, name) = Self::resolve_parent(&inner, path)?;
        let pdir = inner
            .inodes
            .get(&parent)
            .ok_or(FsError::NotFound)?
            .as_dir()?;
        let &ino = pdir.get(name).ok_or(FsError::NotFound)?;
        let dir = inner.inodes[&ino].as_dir()?;
        if !dir.is_empty() {
            return Err(FsError::NotEmpty);
        }
        inner
            .inodes
            .get_mut(&parent)
            .expect("parent exists")
            .as_dir_mut()?
            .remove(name);
        inner.inodes.remove(&ino);
        Ok(())
    }

    /// rename(2): atomically move `old` to `new`, replacing a non-directory
    /// target.
    pub fn rename(&self, old: &str, new: &str, now: SimTime) -> FsResult<()> {
        let decision = self
            .fault_decision(FaultOp::Rename, old)
            .or_else(|| self.fault_decision(FaultOp::Rename, new));
        self.gate(decision)?;
        let ino = self.rename_inner(old, new, now)?;
        self.ino_paths.lock().insert(ino, new.to_string());
        self.trace_op(|| TraceOp::Rename {
            old: old.to_string(),
            new: new.to_string(),
        });
        Ok(())
    }

    fn rename_inner(&self, old: &str, new: &str, now: SimTime) -> FsResult<Ino> {
        let mut inner = self.inner.write();
        let (old_parent, old_name) = Self::resolve_parent(&inner, old)?;
        let (new_parent, new_name) = Self::resolve_parent(&inner, new)?;
        let &ino = inner
            .inodes
            .get(&old_parent)
            .ok_or(FsError::NotFound)?
            .as_dir()?
            .get(old_name)
            .ok_or(FsError::NotFound)?;
        // Replacing an existing target?
        if let Some(&target) = inner
            .inodes
            .get(&new_parent)
            .ok_or(FsError::NotFound)?
            .as_dir()?
            .get(new_name)
        {
            if target == ino {
                return Ok(ino); // rename to itself
            }
            match inner.inodes[&target].kind() {
                FileKind::Directory => {
                    if !inner.inodes[&target].as_dir()?.is_empty() {
                        return Err(FsError::NotEmpty);
                    }
                    if inner.inodes[&ino].kind() != FileKind::Directory {
                        return Err(FsError::IsADirectory);
                    }
                    inner.inodes.remove(&target);
                }
                _ => {
                    let drop_inode = {
                        let t = inner.inodes.get_mut(&target).expect("target exists");
                        t.nlink -= 1;
                        t.nlink == 0
                    };
                    if drop_inode {
                        inner.inodes.remove(&target);
                    }
                }
            }
        }
        inner
            .inodes
            .get_mut(&old_parent)
            .expect("resolved")
            .as_dir_mut()?
            .remove(old_name);
        inner
            .inodes
            .get_mut(&new_parent)
            .expect("resolved")
            .as_dir_mut()?
            .insert(new_name.to_string(), ino);
        if let Some(n) = inner.inodes.get_mut(&ino) {
            n.ctime = now;
        }
        Ok(ino)
    }

    /// Hard link `existing` at `new`.
    pub fn link(&self, existing: &str, new: &str, now: SimTime) -> FsResult<()> {
        let mut inner = self.inner.write();
        let ino = Self::resolve_in(&inner, existing, true)?;
        if inner.inodes[&ino].kind() == FileKind::Directory {
            return Err(FsError::IsADirectory);
        }
        let (parent, name) = Self::resolve_parent(&inner, new)?;
        let pdir = inner
            .inodes
            .get(&parent)
            .ok_or(FsError::NotFound)?
            .as_dir()?;
        if pdir.contains_key(name) {
            return Err(FsError::AlreadyExists);
        }
        inner
            .inodes
            .get_mut(&parent)
            .expect("parent exists")
            .as_dir_mut()?
            .insert(name.to_string(), ino);
        let n = inner.inodes.get_mut(&ino).expect("linked inode");
        n.nlink += 1;
        n.ctime = now;
        Ok(())
    }

    /// Symlink at `linkpath` pointing at `target` (not required to exist).
    pub fn symlink(
        &self,
        target: &str,
        linkpath: &str,
        owner: &str,
        now: SimTime,
    ) -> FsResult<()> {
        let mut inner = self.inner.write();
        let (parent, name) = Self::resolve_parent(&inner, linkpath)?;
        let pdir = inner
            .inodes
            .get(&parent)
            .ok_or(FsError::NotFound)?
            .as_dir()?;
        if pdir.contains_key(name) {
            return Err(FsError::AlreadyExists);
        }
        let ino = inner.next_ino;
        inner.next_ino += 1;
        inner.inodes.insert(
            ino,
            Inode {
                node: Node::Symlink(target.to_string()),
                nlink: 1,
                xattrs: BTreeMap::new(),
                owner: owner.to_string(),
                mtime: now,
                ctime: now,
            },
        );
        inner
            .inodes
            .get_mut(&parent)
            .expect("parent exists")
            .as_dir_mut()?
            .insert(name.to_string(), ino);
        Ok(())
    }

    pub fn readdir(&self, path: &str) -> FsResult<Vec<String>> {
        let inner = self.inner.read();
        let ino = Self::resolve_in(&inner, path, true)?;
        Ok(inner.inodes[&ino].as_dir()?.keys().cloned().collect())
    }

    pub fn stat(&self, path: &str) -> FsResult<Metadata> {
        let inner = self.inner.read();
        let ino = Self::resolve_in(&inner, path, true)?;
        Ok(Self::stat_ino_in(&inner, ino))
    }

    /// lstat(2): do not follow a final symlink.
    pub fn lstat(&self, path: &str) -> FsResult<Metadata> {
        let inner = self.inner.read();
        let ino = Self::resolve_in(&inner, path, false)?;
        Ok(Self::stat_ino_in(&inner, ino))
    }

    pub fn stat_ino(&self, ino: Ino) -> FsResult<Metadata> {
        let inner = self.inner.read();
        if !inner.inodes.contains_key(&ino) {
            return Err(FsError::NotFound);
        }
        Ok(Self::stat_ino_in(&inner, ino))
    }

    fn stat_ino_in(inner: &FsInner, ino: Ino) -> Metadata {
        let n = &inner.inodes[&ino];
        let size = match &n.node {
            Node::File(f) => f.len(),
            Node::Dir(d) => d.len() as u64,
            Node::Symlink(t) => t.len() as u64,
        };
        Metadata {
            ino,
            kind: n.kind(),
            size,
            nlink: n.nlink,
            owner: n.owner.clone(),
            mtime: n.mtime,
            ctime: n.ctime,
        }
    }

    // --- file data -------------------------------------------------------

    pub fn read_at(&self, ino: Ino, offset: u64, len: u64) -> FsResult<bytes::Bytes> {
        let plan = self.faults.read().clone();
        if let Some(p) = &plan {
            match p.decide(FaultOp::ReadAt, &self.ino_path(ino)) {
                Some(FaultAction::Fail(e)) => return Err(e),
                Some(FaultAction::TornWrite { .. }) => return Err(FsError::Io),
                Some(FaultAction::Crash { .. }) => return Err(FsError::Crashed),
                Some(FaultAction::Corrupt(kind)) => {
                    // Corrupt only the returned copy: the media stays intact,
                    // modeling a transient read-path (network/cache) flip.
                    let mut buf = {
                        let inner = self.inner.read();
                        let n = inner.inodes.get(&ino).ok_or(FsError::BadFd)?;
                        n.as_file()?.read(offset, len).to_vec()
                    };
                    p.apply_corruption(&kind, &mut buf);
                    return Ok(bytes::Bytes::from(buf));
                }
                Some(FaultAction::Delay { ns }) => self.stall(ns),
                None => {}
            }
        }
        let inner = self.inner.read();
        let n = inner.inodes.get(&ino).ok_or(FsError::BadFd)?;
        Ok(n.as_file()?.read(offset, len))
    }

    pub fn write_at(&self, ino: Ino, offset: u64, data: &[u8], now: SimTime) -> FsResult<()> {
        let plan = self.faults.read().clone();
        let decision = plan
            .as_ref()
            .and_then(|p| p.decide(FaultOp::WriteAt, &self.ino_path(ino)));
        match decision {
            Some(FaultAction::Fail(e)) => return Err(e),
            Some(FaultAction::TornWrite { keep }) => {
                // Persist only a prefix, then report the media error.
                let keep = keep.min(data.len() as u64) as usize;
                if keep > 0 {
                    self.write_at_inner(ino, offset, &data[..keep], now)?;
                }
                return Err(FsError::Io);
            }
            Some(FaultAction::Crash { torn_keep }) => {
                if let Some(keep) = torn_keep {
                    let keep = keep.min(data.len() as u64) as usize;
                    if keep > 0 {
                        let _ = self.write_at_inner(ino, offset, &data[..keep], now);
                    }
                }
                return Err(FsError::Crashed);
            }
            Some(FaultAction::Corrupt(kind)) => {
                // Silent corruption: the damaged buffer lands on media and
                // the write reports success, as a failing disk would.
                let mut buf = data.to_vec();
                plan.as_ref()
                    .expect("decision implies a plan")
                    .apply_corruption(&kind, &mut buf);
                return self.write_at_inner(ino, offset, &buf, now);
            }
            Some(FaultAction::Delay { ns }) => self.stall(ns),
            None => {}
        }
        self.write_at_inner(ino, offset, data, now)?;
        self.trace_op(|| TraceOp::WriteAt {
            path: self.ino_path(ino),
            offset,
            data: data.to_vec(),
        });
        Ok(())
    }

    fn write_at_inner(&self, ino: Ino, offset: u64, data: &[u8], now: SimTime) -> FsResult<()> {
        let mut inner = self.inner.write();
        let n = inner.inodes.get_mut(&ino).ok_or(FsError::BadFd)?;
        n.as_file_mut()?.write(offset, data);
        n.mtime = now;
        Ok(())
    }

    pub fn write_synthetic_at(
        &self,
        ino: Ino,
        offset: u64,
        len: u64,
        now: SimTime,
    ) -> FsResult<()> {
        let mut inner = self.inner.write();
        let n = inner.inodes.get_mut(&ino).ok_or(FsError::BadFd)?;
        n.as_file_mut()?.write_synthetic(offset, len);
        n.mtime = now;
        Ok(())
    }

    pub fn truncate_ino(&self, ino: Ino, size: u64, now: SimTime) -> FsResult<()> {
        // The path is resolved only under an installed plan, as in
        // `read_at` / `write_at`: every atomic commit truncates once.
        let decision = self
            .faults
            .read()
            .as_ref()
            .and_then(|p| p.decide(FaultOp::TruncateIno, &self.ino_path(ino)));
        self.gate(decision)?;
        {
            let mut inner = self.inner.write();
            let n = inner.inodes.get_mut(&ino).ok_or(FsError::BadFd)?;
            n.as_file_mut()?.truncate(size);
            n.mtime = now;
        }
        self.trace_op(|| TraceOp::Truncate {
            path: self.ino_path(ino),
            size,
        });
        Ok(())
    }

    /// Damage the committed bytes of `path` in place, as bit rot at rest
    /// would: no fault rule needs to be armed, no mtime/ctime changes, and
    /// the next reader sees the corrupted bytes with no error. `seed` makes
    /// the damage reproducible independently of any installed [`FaultPlan`].
    /// Returns the number of bytes affected.
    pub fn corrupt_at_rest(&self, path: &str, kind: &CorruptKind, seed: u64) -> FsResult<u64> {
        let mut inner = self.inner.write();
        let ino = Self::resolve_in(&inner, path, true)?;
        let file = inner
            .inodes
            .get_mut(&ino)
            .ok_or(FsError::NotFound)?
            .as_file_mut()?;
        let mut data = file.to_vec();
        let mut rng = DetRng::with_stream(seed, REST_CORRUPTION_STREAM);
        let affected = kind.apply(&mut data, &mut rng);
        file.truncate(0);
        file.write(0, &data);
        Ok(affected)
    }

    /// Adversarially mutate the committed bytes of `path` in place — the
    /// tamper counterpart of [`Self::corrupt_at_rest`]: no armed rule, no
    /// mtime/ctime change, no error for the next reader. The mutation is
    /// format-aware (see [`TamperKind`]) and seeded, so a tamper schedule
    /// replays bit-for-bit. Returns bytes affected; 0 means the file was
    /// not a valid target for this mutation and was left untouched.
    pub fn tamper_at_rest(&self, path: &str, kind: &TamperKind, seed: u64) -> FsResult<u64> {
        let mut inner = self.inner.write();
        let ino = Self::resolve_in(&inner, path, true)?;
        let file = inner
            .inodes
            .get_mut(&ino)
            .ok_or(FsError::NotFound)?
            .as_file_mut()?;
        let mut data = file.to_vec();
        let mut rng = DetRng::with_stream(seed, REST_TAMPER_STREAM);
        let affected = kind.apply(&mut data, &mut rng);
        if affected > 0 {
            file.truncate(0);
            file.write(0, &data);
        }
        Ok(affected)
    }

    /// Does `[offset, offset+len)` of a regular file overlap real bytes?
    /// (Sparse/synthetic regions read back as zeros without materializing.)
    pub fn materialized(&self, ino: Ino, offset: u64, len: u64) -> FsResult<bool> {
        let inner = self.inner.read();
        let n = inner.inodes.get(&ino).ok_or(FsError::BadFd)?;
        Ok(n.as_file()?.is_materialized(offset, len))
    }

    pub fn file_size(&self, ino: Ino) -> FsResult<u64> {
        let inner = self.inner.read();
        let n = inner.inodes.get(&ino).ok_or(FsError::BadFd)?;
        Ok(n.as_file()?.len())
    }

    // --- extended attributes ----------------------------------------------

    pub fn setxattr(&self, path: &str, name: &str, value: &[u8], now: SimTime) -> FsResult<()> {
        let mut inner = self.inner.write();
        let ino = Self::resolve_in(&inner, path, true)?;
        let n = inner.inodes.get_mut(&ino).expect("resolved");
        n.xattrs.insert(name.to_string(), value.to_vec());
        n.ctime = now;
        Ok(())
    }

    pub fn getxattr(&self, path: &str, name: &str) -> FsResult<Vec<u8>> {
        let inner = self.inner.read();
        let ino = Self::resolve_in(&inner, path, true)?;
        inner.inodes[&ino]
            .xattrs
            .get(name)
            .cloned()
            .ok_or(FsError::NoAttr)
    }

    pub fn listxattr(&self, path: &str) -> FsResult<Vec<String>> {
        let inner = self.inner.read();
        let ino = Self::resolve_in(&inner, path, true)?;
        Ok(inner.inodes[&ino].xattrs.keys().cloned().collect())
    }

    pub fn removexattr(&self, path: &str, name: &str, now: SimTime) -> FsResult<()> {
        let mut inner = self.inner.write();
        let ino = Self::resolve_in(&inner, path, true)?;
        let n = inner.inodes.get_mut(&ino).expect("resolved");
        if n.xattrs.remove(name).is_none() {
            return Err(FsError::NoAttr);
        }
        n.ctime = now;
        Ok(())
    }

    // --- accounting --------------------------------------------------------

    /// Total logical bytes of all regular files.
    pub fn total_file_bytes(&self) -> u64 {
        let inner = self.inner.read();
        inner
            .inodes
            .values()
            .filter_map(|n| match &n.node {
                Node::File(f) => Some(f.len()),
                _ => None,
            })
            .sum()
    }

    /// Total bytes actually resident in host memory.
    pub fn total_resident_bytes(&self) -> u64 {
        let inner = self.inner.read();
        inner
            .inodes
            .values()
            .filter_map(|n| match &n.node {
                Node::File(f) => Some(f.resident_bytes()),
                _ => None,
            })
            .sum()
    }

    /// Number of inodes (files + dirs + symlinks).
    pub fn inode_count(&self) -> usize {
        self.inner.read().inodes.len()
    }

    /// Recursively list all regular-file paths under `dir` (sorted).
    pub fn walk_files(&self, dir: &str) -> FsResult<Vec<String>> {
        let mut out = Vec::new();
        let mut stack = vec![dir.trim_end_matches('/').to_string()];
        if stack[0].is_empty() {
            stack[0] = "/".into();
        }
        while let Some(d) = stack.pop() {
            for name in self.readdir(&d)? {
                let full = if d == "/" {
                    format!("/{name}")
                } else {
                    format!("{d}/{name}")
                };
                match self.lstat(&full)?.kind {
                    FileKind::Directory => stack.push(full),
                    FileKind::File => out.push(full),
                    FileKind::Symlink => {}
                }
            }
        }
        out.sort();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs() -> Arc<FileSystem> {
        FileSystem::new(LustreConfig::default())
    }

    const T0: SimTime = SimTime(1_000);

    #[test]
    fn create_write_read() {
        let fs = fs();
        fs.mkdir("/data", "alice", T0).unwrap();
        let ino = fs.create_file("/data/a.txt", false, "alice", T0).unwrap();
        fs.write_at(ino, 0, b"hello", T0).unwrap();
        assert_eq!(&fs.read_at(ino, 0, 5).unwrap()[..], b"hello");
        let md = fs.stat("/data/a.txt").unwrap();
        assert_eq!(md.size, 5);
        assert_eq!(md.kind, FileKind::File);
        assert_eq!(md.owner, "alice");
    }

    #[test]
    fn create_excl_conflicts() {
        let fs = fs();
        fs.create_file("/a", true, "u", T0).unwrap();
        assert_eq!(fs.create_file("/a", true, "u", T0), Err(FsError::AlreadyExists));
        // Non-exclusive create reuses.
        let ino = fs.create_file("/a", false, "u", T0).unwrap();
        assert_eq!(fs.lookup("/a").unwrap(), ino);
    }

    #[test]
    fn missing_parent_is_enoent() {
        let fs = fs();
        assert_eq!(
            fs.create_file("/no/such/file", false, "u", T0),
            Err(FsError::NotFound)
        );
    }

    #[test]
    fn relative_paths_rejected() {
        let fs = fs();
        assert_eq!(fs.lookup("a/b"), Err(FsError::BadPath));
    }

    #[test]
    fn mkdir_all_idempotent() {
        let fs = fs();
        fs.mkdir_all("/a/b/c", "u", T0).unwrap();
        fs.mkdir_all("/a/b/c", "u", T0).unwrap();
        assert!(fs.exists("/a/b/c"));
        assert_eq!(fs.readdir("/a").unwrap(), vec!["b"]);
    }

    #[test]
    fn unlink_removes_and_rmdir_requires_empty() {
        let fs = fs();
        fs.mkdir("/d", "u", T0).unwrap();
        fs.create_file("/d/f", false, "u", T0).unwrap();
        assert_eq!(fs.rmdir("/d"), Err(FsError::NotEmpty));
        fs.unlink("/d/f").unwrap();
        assert!(!fs.exists("/d/f"));
        fs.rmdir("/d").unwrap();
        assert!(!fs.exists("/d"));
    }

    #[test]
    fn unlink_dir_is_eisdir() {
        let fs = fs();
        fs.mkdir("/d", "u", T0).unwrap();
        assert_eq!(fs.unlink("/d"), Err(FsError::IsADirectory));
    }

    #[test]
    fn rename_moves_and_replaces() {
        let fs = fs();
        fs.mkdir("/a", "u", T0).unwrap();
        fs.mkdir("/b", "u", T0).unwrap();
        let ino = fs.create_file("/a/f", false, "u", T0).unwrap();
        fs.write_at(ino, 0, b"x", T0).unwrap();
        // Replace an existing target.
        fs.create_file("/b/g", false, "u", T0).unwrap();
        fs.rename("/a/f", "/b/g", T0).unwrap();
        assert!(!fs.exists("/a/f"));
        let md = fs.stat("/b/g").unwrap();
        assert_eq!(md.ino, ino);
        assert_eq!(md.size, 1);
    }

    #[test]
    fn rename_to_self_is_noop() {
        let fs = fs();
        fs.create_file("/f", false, "u", T0).unwrap();
        fs.rename("/f", "/f", T0).unwrap();
        assert!(fs.exists("/f"));
    }

    #[test]
    fn hard_links_share_content() {
        let fs = fs();
        let ino = fs.create_file("/f", false, "u", T0).unwrap();
        fs.link("/f", "/g", T0).unwrap();
        fs.write_at(ino, 0, b"shared", T0).unwrap();
        assert_eq!(fs.stat("/g").unwrap().size, 6);
        assert_eq!(fs.stat("/g").unwrap().nlink, 2);
        fs.unlink("/f").unwrap();
        // Content persists through the other link.
        assert_eq!(fs.stat("/g").unwrap().size, 6);
        assert_eq!(fs.stat("/g").unwrap().nlink, 1);
        fs.unlink("/g").unwrap();
        assert_eq!(fs.inode_count(), 1); // only root remains
    }

    #[test]
    fn symlinks_resolve_transitively() {
        let fs = fs();
        fs.mkdir("/data", "u", T0).unwrap();
        fs.create_file("/data/real", false, "u", T0).unwrap();
        fs.symlink("/data/real", "/link1", "u", T0).unwrap();
        fs.symlink("/link1", "/link2", "u", T0).unwrap();
        assert_eq!(
            fs.stat("/link2").unwrap().ino,
            fs.stat("/data/real").unwrap().ino
        );
        assert_eq!(fs.lstat("/link2").unwrap().kind, FileKind::Symlink);
    }

    #[test]
    fn symlink_loop_detected() {
        let fs = fs();
        fs.symlink("/b", "/a", "u", T0).unwrap();
        fs.symlink("/a", "/b", "u", T0).unwrap();
        assert_eq!(fs.lookup("/a"), Err(FsError::TooManySymlinks));
    }

    #[test]
    fn dotdot_resolution() {
        let fs = fs();
        fs.mkdir_all("/a/b", "u", T0).unwrap();
        fs.create_file("/a/f", false, "u", T0).unwrap();
        assert_eq!(
            fs.lookup("/a/b/../f").unwrap(),
            fs.lookup("/a/f").unwrap()
        );
        // ".." above root stays at root.
        assert_eq!(fs.lookup("/../../a/f").unwrap(), fs.lookup("/a/f").unwrap());
    }

    #[test]
    fn xattrs_set_get_list_remove() {
        let fs = fs();
        fs.create_file("/f", false, "u", T0).unwrap();
        fs.setxattr("/f", "user.units", b"m/s", T0).unwrap();
        fs.setxattr("/f", "user.origin", b"DAS", T0).unwrap();
        assert_eq!(fs.getxattr("/f", "user.units").unwrap(), b"m/s");
        assert_eq!(
            fs.listxattr("/f").unwrap(),
            vec!["user.origin", "user.units"]
        );
        fs.removexattr("/f", "user.units", T0).unwrap();
        assert_eq!(fs.getxattr("/f", "user.units"), Err(FsError::NoAttr));
        assert_eq!(fs.removexattr("/f", "user.units", T0), Err(FsError::NoAttr));
    }

    #[test]
    fn accounting_counts_logical_bytes() {
        let fs = fs();
        let a = fs.create_file("/a", false, "u", T0).unwrap();
        fs.write_at(a, 0, b"12345", T0).unwrap();
        let b = fs.create_file("/b", false, "u", T0).unwrap();
        fs.write_synthetic_at(b, 0, 1 << 30, T0).unwrap();
        assert_eq!(fs.total_file_bytes(), 5 + (1 << 30));
        assert_eq!(fs.total_resident_bytes(), 5);
    }

    #[test]
    fn walk_files_recurses_sorted() {
        let fs = fs();
        fs.mkdir_all("/x/y", "u", T0).unwrap();
        fs.create_file("/x/b", false, "u", T0).unwrap();
        fs.create_file("/x/a", false, "u", T0).unwrap();
        fs.create_file("/x/y/c", false, "u", T0).unwrap();
        assert_eq!(fs.walk_files("/x").unwrap(), vec!["/x/a", "/x/b", "/x/y/c"]);
    }

    #[test]
    fn corrupt_at_rest_flips_committed_bytes_deterministically() {
        let run = |seed: u64| -> Vec<u8> {
            let fs = fs();
            let ino = fs.create_file("/snap.ttl", false, "u", T0).unwrap();
            fs.write_at(ino, 0, b"committed provenance bytes", T0).unwrap();
            let n = fs
                .corrupt_at_rest("/snap.ttl", &CorruptKind::BitFlips { count: 2 }, seed)
                .unwrap();
            assert_eq!(n, 2);
            fs.read_at(ino, 0, 1 << 16).unwrap().to_vec()
        };
        assert_ne!(run(1), b"committed provenance bytes".to_vec());
        assert_eq!(run(1), run(1), "same seed, same damage");
        assert_ne!(run(1), run(2));
        // mtime untouched: bit rot is invisible to metadata.
        let fs = fs();
        let ino = fs.create_file("/f", false, "u", T0).unwrap();
        fs.write_at(ino, 0, b"x", T0).unwrap();
        let before = fs.stat("/f").unwrap();
        fs.corrupt_at_rest("/f", &CorruptKind::ZeroFill, 3).unwrap();
        assert_eq!(fs.stat("/f").unwrap(), before);
    }

    #[test]
    fn read_time_corruption_leaves_media_intact() {
        use crate::fault::{FaultPlan, FaultRule};
        let fs = fs();
        let ino = fs.create_file("/seg.nt", false, "u", T0).unwrap();
        fs.write_at(ino, 0, b"<urn:s> <urn:p> <urn:o> .\n", T0).unwrap();
        let plan = FaultPlan::new(7);
        plan.add_rule(
            FaultRule::corrupt_reads(CorruptKind::BitFlips { count: 1 }).times(1),
        );
        fs.install_faults(plan);
        let clean = b"<urn:s> <urn:p> <urn:o> .\n".to_vec();
        let first = fs.read_at(ino, 0, 1 << 16).unwrap().to_vec();
        assert_ne!(first, clean, "armed read returns flipped bytes");
        // The rule fired once; the next read sees the untouched media.
        assert_eq!(fs.read_at(ino, 0, 1 << 16).unwrap().to_vec(), clean);
    }

    #[test]
    fn write_time_corruption_is_silent_and_persists() {
        use crate::fault::{FaultPlan, FaultRule, FaultOp};
        let fs = fs();
        let ino = fs.create_file("/out.nt", false, "u", T0).unwrap();
        let plan = FaultPlan::new(11);
        plan.add_rule(
            FaultRule::corrupt(FaultOp::WriteAt, CorruptKind::ZeroFill).times(1),
        );
        fs.install_faults(plan);
        // The corrupted write still reports success.
        fs.write_at(ino, 0, b"abcdef", T0).unwrap();
        fs.clear_faults();
        assert_eq!(fs.read_at(ino, 0, 6).unwrap().to_vec(), vec![0u8; 6]);
    }

    #[test]
    fn delay_fault_stalls_the_attached_clock_and_persists_exact_bytes() {
        use crate::fault::{FaultOp, FaultPlan, FaultRule};
        let fs = fs();
        let clock = VirtualClock::new();
        fs.attach_clock(clock.clone());
        let plan = FaultPlan::new(13);
        plan.add_rule(FaultRule::delay(FaultOp::WriteAt, 2_000_000).times(1));
        plan.add_rule(FaultRule::delay(FaultOp::ReadAt, 500_000).times(1));
        fs.install_faults(Arc::clone(&plan));
        let ino = fs.create_file("/slow.nt", false, "u", T0).unwrap();
        // The delayed write succeeds and lands byte-for-byte.
        fs.write_at(ino, 0, b"<urn:s> <urn:p> <urn:o> .\n", T0).unwrap();
        assert_eq!(clock.now().as_nanos(), 2_000_000, "stall charged to the clock");
        // The delayed read succeeds and returns the untouched media.
        let back = fs.read_at(ino, 0, 1 << 16).unwrap();
        assert_eq!(back.as_ref(), b"<urn:s> <urn:p> <urn:o> .\n");
        assert_eq!(clock.now().as_nanos(), 2_500_000);
        assert_eq!(plan.injected(), 2);
        // Rules exhausted: later ops run at full speed.
        fs.write_at(ino, 0, b"x", T0).unwrap();
        assert_eq!(clock.now().as_nanos(), 2_500_000);
        // With no clock attached a stall is a counted no-op, never an error.
        fs.detach_clock();
        let plan2 = FaultPlan::new(14);
        plan2.add_rule(FaultRule::delay(FaultOp::Rename, 1_000));
        fs.install_faults(Arc::clone(&plan2));
        fs.rename("/slow.nt", "/fast.nt", T0).unwrap();
        assert_eq!(plan2.injected(), 1);
        assert!(fs.lookup("/fast.nt").is_ok());
    }

    #[test]
    fn concurrent_creates_distinct_inodes() {
        let fs = fs();
        fs.mkdir("/p", "u", T0).unwrap();
        std::thread::scope(|s| {
            for i in 0..8 {
                let fs = Arc::clone(&fs);
                s.spawn(move || {
                    for j in 0..50 {
                        fs.create_file(&format!("/p/f-{i}-{j}"), true, "u", T0).unwrap();
                    }
                });
            }
        });
        assert_eq!(fs.readdir("/p").unwrap().len(), 400);
    }
}
