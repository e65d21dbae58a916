//! The terminal (native) VOL connector: executes object operations against
//! shared in-memory file state and performs the corresponding byte I/O on
//! the `provio-hpcfs` substrate.
//!
//! Layout model: each `.h5` file is one hpcfs file. Metadata (superblock,
//! object headers, attribute messages) is appended as real bytes at an EOF
//! allocation cursor, sized like the real format's messages; dataset raw
//! data is allocated in per-extent chunks at EOF (a chunked layout), so
//! extendable datasets grow without relocation and unallocated regions read
//! back as the fill value (zeros) — both real HDF5 behaviors.
//!
//! Data I/O goes through [`provio_hpcfs::FileSystem`] directly — *not*
//! through the session's syscall surface — and charges the Lustre cost to
//! the calling session's clock. This keeps the two tracking layers of the
//! paper distinct: HDF5 operations are observed at the VOL, POSIX
//! operations at the syscall wrapper, and nothing is double-counted.

use crate::data::Data;
use crate::dataspace::{Dataspace, Hyperslab};
use crate::datatype::Datatype;
use crate::error::{H5Error, H5Result};
use crate::vol::{Handle, ObjectInfo, ObjectKind, VolConnector};
use parking_lot::RwLock;
use provio_hpcfs::{FileSystem, FsSession};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Modeled metadata footprints (bytes), approximating HDF5's format costs.
const SUPERBLOCK_BYTES: u64 = 96;
const OBJECT_HEADER_BYTES: u64 = 128;
const ATTR_MESSAGE_BYTES: u64 = 64;
const LINK_MESSAGE_BYTES: u64 = 40;

type ObjId = u64;

#[derive(Debug, Clone)]
enum Link {
    Hard(ObjId),
    Soft(String),
}

#[derive(Debug, Clone)]
struct AttrState {
    dtype: Datatype,
    value: Vec<u8>,
}

#[derive(Debug)]
enum ObjState {
    Group {
        links: BTreeMap<String, Link>,
    },
    Dataset {
        dtype: Datatype,
        space: Dataspace,
        /// Allocated chunks: element offset → (element count, file offset).
        chunks: BTreeMap<u64, (u64, u64)>,
    },
    NamedDatatype {
        dtype: Datatype,
    },
}

impl ObjState {
    fn kind(&self) -> ObjectKind {
        match self {
            ObjState::Group { .. } => ObjectKind::Group,
            ObjState::Dataset { .. } => ObjectKind::Dataset,
            ObjState::NamedDatatype { .. } => ObjectKind::NamedDatatype,
        }
    }
}

#[derive(Debug)]
struct H5Object {
    /// Slash path within the file.
    path: String,
    state: ObjState,
    attrs: BTreeMap<String, AttrState>,
}

#[derive(Debug)]
struct H5File {
    /// Path of the backing file on hpcfs.
    fs_path: String,
    /// Backing inode.
    ino: provio_hpcfs::fs::Ino,
    objects: HashMap<ObjId, H5Object>,
    next_obj: ObjId,
    root: ObjId,
    /// EOF allocation cursor in the backing file.
    eof: u64,
    /// Bytes written since the last flush (drives flush cost).
    dirty_bytes: u64,
    open_count: usize,
}

impl H5File {
    fn object(&self, id: ObjId) -> H5Result<&H5Object> {
        self.objects.get(&id).ok_or(H5Error::BadHandle)
    }

    fn object_mut(&mut self, id: ObjId) -> H5Result<&mut H5Object> {
        self.objects.get_mut(&id).ok_or(H5Error::BadHandle)
    }

    /// The links of group `id`.
    fn links(&self, id: ObjId) -> H5Result<&BTreeMap<String, Link>> {
        match &self.object(id)?.state {
            ObjState::Group { links } => Ok(links),
            _ => Err(H5Error::WrongKind { expected: "group" }),
        }
    }

    fn links_mut(&mut self, id: ObjId) -> H5Result<&mut BTreeMap<String, Link>> {
        match &mut self.object_mut(id)?.state {
            ObjState::Group { links } => Ok(links),
            _ => Err(H5Error::WrongKind { expected: "group" }),
        }
    }

    /// Resolve a slash path (optionally relative to `base`) to an object id,
    /// following soft links.
    fn resolve(&self, base: ObjId, path: &str, depth: usize) -> H5Result<ObjId> {
        if depth > 16 {
            return Err(H5Error::NotFound(path.to_string()));
        }
        let mut cur = if path.starts_with('/') { self.root } else { base };
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            let obj = self.object(cur)?;
            let ObjState::Group { links } = &obj.state else {
                return Err(H5Error::NotFound(path.to_string()));
            };
            match links.get(comp) {
                Some(Link::Hard(id)) => cur = *id,
                Some(Link::Soft(target)) => {
                    cur = self.resolve(cur, &target.clone(), depth + 1)?;
                }
                None => return Err(H5Error::NotFound(format!("{path} ({comp})"))),
            }
        }
        Ok(cur)
    }

    fn alloc(&mut self, bytes: u64) -> u64 {
        let off = self.eof;
        self.eof += bytes;
        self.dirty_bytes += bytes;
        off
    }

    fn child_path(&self, parent: ObjId, name: &str) -> H5Result<String> {
        let p = &self.object(parent)?.path;
        Ok(if p == "/" {
            format!("/{name}")
        } else {
            format!("{p}/{name}")
        })
    }
}

/// Walk elements `from..to` of a dataset against its allocated `chunks`,
/// as `(element start, element count, file offset)` spans. A covered span
/// ends at its chunk's end or `to`; an unallocated gap (offset `None`)
/// runs to the next chunk start or `to`, so a chunk allocated for it never
/// overlaps another.
fn spans(
    chunks: &BTreeMap<u64, (u64, u64)>,
    elem_size: u64,
    from: u64,
    to: u64,
) -> Vec<(u64, u64, Option<u64>)> {
    let mut out = Vec::new();
    let mut cur = from;
    while cur < to {
        let covering = chunks
            .range(..=cur)
            .next_back()
            .filter(|(&start, &(count, _))| cur < start + count);
        let (take, at) = match covering {
            Some((&start, &(count, foff))) => {
                ((start + count).min(to) - cur, Some(foff + (cur - start) * elem_size))
            }
            None => {
                let next = chunks.range(cur + 1..).next().map_or(to, |(&st, _)| st.min(to));
                (next - cur, None)
            }
        };
        out.push((cur, take, at));
        cur += take;
    }
    out
}

#[derive(Debug, Clone)]
struct HandleEntry {
    file_key: String,
    object: ObjId,
    /// Set for attribute handles.
    attr: Option<String>,
    kind: ObjectKind,
}

#[derive(Default)]
struct VolState {
    /// Canonical per-path file state. Retained across close so the same
    /// process tree can reopen (real HDF5 re-parses the file from disk; our
    /// canonical structure lives with the connector).
    files: HashMap<String, Arc<RwLock<H5File>>>,
    handles: HashMap<u64, HandleEntry>,
    next_handle: u64,
}

/// The native VOL connector.
pub struct NativeVol {
    fs: Arc<FileSystem>,
    state: RwLock<VolState>,
}

impl NativeVol {
    pub fn new(fs: Arc<FileSystem>) -> Self {
        NativeVol {
            fs,
            state: RwLock::new(VolState {
                next_handle: 1,
                ..Default::default()
            }),
        }
    }

    fn charge_meta(&self, s: &FsSession) {
        s.clock().advance(self.fs.config().meta_op());
    }

    fn charge_data(&self, s: &FsSession, bytes: u64) {
        s.clock().advance(self.fs.config().data_op(bytes));
    }

    fn mint(
        &self,
        file_key: String,
        object: ObjId,
        attr: Option<String>,
        kind: ObjectKind,
    ) -> Handle {
        let mut st = self.state.write();
        let id = st.next_handle;
        st.next_handle += 1;
        st.handles.insert(
            id,
            HandleEntry {
                file_key,
                object,
                attr,
                kind,
            },
        );
        Handle(id)
    }

    fn entry(&self, h: Handle) -> H5Result<HandleEntry> {
        self.state
            .read()
            .handles
            .get(&h.0)
            .cloned()
            .ok_or(H5Error::BadHandle)
    }

    fn file_of(&self, key: &str) -> H5Result<Arc<RwLock<H5File>>> {
        self.state
            .read()
            .files
            .get(key)
            .cloned()
            .ok_or_else(|| H5Error::NotFound(key.to_string()))
    }

    fn drop_handle(&self, h: Handle) -> H5Result<HandleEntry> {
        self.state
            .write()
            .handles
            .remove(&h.0)
            .ok_or(H5Error::BadHandle)
    }

    /// Write `data` into the backing file on behalf of `s`, charging cost.
    fn backing_write(
        &self,
        s: &FsSession,
        ino: provio_hpcfs::fs::Ino,
        offset: u64,
        data: &Data,
    ) -> H5Result<()> {
        let now = s.clock().now();
        match data {
            Data::Real(b) => self.fs.write_at(ino, offset, b, now)?,
            Data::Synthetic(n) => self.fs.write_synthetic_at(ino, offset, *n, now)?,
        }
        self.charge_data(s, data.len());
        Ok(())
    }

    /// Resolve a location handle to (file, base object), requiring it to be
    /// a file or group handle.
    fn location(&self, loc: Handle) -> H5Result<(Arc<RwLock<H5File>>, ObjId)> {
        let e = self.entry(loc)?;
        match e.kind {
            ObjectKind::File | ObjectKind::Group => {
                Ok((self.file_of(&e.file_key)?, e.object))
            }
            _ => Err(H5Error::WrongKind { expected: "file or group" }),
        }
    }

    fn dataset_entry(&self, h: Handle) -> H5Result<(Arc<RwLock<H5File>>, ObjId)> {
        let e = self.entry(h)?;
        if e.kind != ObjectKind::Dataset {
            return Err(H5Error::WrongKind { expected: "dataset" });
        }
        Ok((self.file_of(&e.file_key)?, e.object))
    }

    fn attr_entry(&self, h: Handle) -> H5Result<(Arc<RwLock<H5File>>, ObjId, String)> {
        let e = self.entry(h)?;
        let Some(name) = e.attr else {
            return Err(H5Error::WrongKind { expected: "attribute" });
        };
        Ok((self.file_of(&e.file_key)?, e.object, name))
    }

    /// Link a new object named `name` into the group at `loc` and write its
    /// header, `tag` bytes sized like the real object header message.
    fn create_object(
        &self,
        s: &FsSession,
        loc: Handle,
        name: &str,
        state: ObjState,
        tag: u8,
    ) -> H5Result<Handle> {
        self.charge_meta(s);
        check_name(name)?;
        let (file, parent) = self.location(loc)?;
        let kind = state.kind();
        let (ino, off, key, id) = {
            let mut f = file.write();
            let path = f.child_path(parent, name)?;
            if f.links(parent)?.contains_key(name) {
                return Err(H5Error::AlreadyExists(path));
            }
            let id = f.next_obj;
            f.next_obj += 1;
            let attrs = BTreeMap::new();
            f.objects.insert(id, H5Object { path, state, attrs });
            f.links_mut(parent)?.insert(name.to_string(), Link::Hard(id));
            let off = f.alloc(OBJECT_HEADER_BYTES + name.len() as u64);
            (f.ino, off, f.fs_path.clone(), id)
        };
        let header = vec![tag; OBJECT_HEADER_BYTES as usize + name.len()];
        self.backing_write(s, ino, off, &Data::real(header))?;
        Ok(self.mint(key, id, None, kind))
    }

    /// Open the object at `name` under `loc`, which must be of `kind`.
    fn open_object(
        &self,
        s: &FsSession,
        loc: Handle,
        name: &str,
        kind: ObjectKind,
    ) -> H5Result<Handle> {
        self.charge_meta(s);
        let (file, base) = self.location(loc)?;
        let (key, id) = {
            let f = file.read();
            let id = f.resolve(base, name, 0)?;
            if f.object(id)?.state.kind() != kind {
                return Err(H5Error::WrongKind { expected: kind.name() });
            }
            (f.fs_path.clone(), id)
        };
        Ok(self.mint(key, id, None, kind))
    }

    fn close_object(&self, s: &FsSession, h: Handle, kind: ObjectKind) -> H5Result<()> {
        self.charge_meta(s);
        if self.drop_handle(h)?.kind != kind {
            return Err(H5Error::BadHandle);
        }
        Ok(())
    }
}

impl VolConnector for NativeVol {
    fn name(&self) -> &str {
        "native"
    }

    fn file_create(&self, s: &FsSession, path: &str, truncate: bool) -> H5Result<Handle> {
        self.charge_meta(s);
        let now = s.clock().now();
        let exists_in_vol = self.state.read().files.contains_key(path);
        if exists_in_vol && !truncate {
            return Err(H5Error::AlreadyExists(path.to_string()));
        }
        let ino = self.fs.create_file(path, false, s.user(), now)?;
        self.fs.truncate_ino(ino, 0, now)?;

        let root = 1;
        let mut objects = HashMap::new();
        objects.insert(
            root,
            H5Object {
                path: "/".to_string(),
                state: ObjState::Group {
                    links: BTreeMap::new(),
                },
                attrs: BTreeMap::new(),
            },
        );
        let mut file = H5File {
            fs_path: path.to_string(),
            ino,
            objects,
            next_obj: 2,
            root,
            eof: 0,
            dirty_bytes: 0,
            open_count: 1,
        };
        let off = file.alloc(SUPERBLOCK_BYTES);
        let file = Arc::new(RwLock::new(file));
        self.state
            .write()
            .files
            .insert(path.to_string(), Arc::clone(&file));
        // Write the superblock.
        self.backing_write(
            s,
            ino,
            off,
            &Data::real(vec![0x89u8; SUPERBLOCK_BYTES as usize]),
        )?;
        Ok(self.mint(path.to_string(), root, None, ObjectKind::File))
    }

    fn file_open(&self, s: &FsSession, path: &str, _write: bool) -> H5Result<Handle> {
        self.charge_meta(s);
        if !self.fs.exists(path) {
            return Err(H5Error::NotFound(path.to_string()));
        }
        let file = self.file_of(path)?;
        // Read the superblock (what the real library does at open).
        let ino = {
            let mut f = file.write();
            f.open_count += 1;
            f.ino
        };
        let _ = self.fs.read_at(ino, 0, SUPERBLOCK_BYTES)?;
        self.charge_data(s, SUPERBLOCK_BYTES);
        let root = file.read().root;
        Ok(self.mint(path.to_string(), root, None, ObjectKind::File))
    }

    fn file_flush(&self, s: &FsSession, file: Handle) -> H5Result<()> {
        let e = self.entry(file)?;
        if e.kind != ObjectKind::File {
            return Err(H5Error::WrongKind { expected: "file" });
        }
        let f = self.file_of(&e.file_key)?;
        let dirty = {
            let mut f = f.write();
            std::mem::take(&mut f.dirty_bytes)
        };
        s.clock().advance(self.fs.config().fsync_op(dirty));
        Ok(())
    }

    fn file_close(&self, s: &FsSession, file: Handle) -> H5Result<()> {
        let e = self.drop_handle(file)?;
        if e.kind != ObjectKind::File {
            return Err(H5Error::BadHandle);
        }
        let f = self.file_of(&e.file_key)?;
        {
            let mut g = f.write();
            g.open_count = g.open_count.saturating_sub(1);
        }
        self.charge_meta(s);
        Ok(())
    }

    fn group_create(&self, s: &FsSession, loc: Handle, name: &str) -> H5Result<Handle> {
        let links = BTreeMap::new();
        self.create_object(s, loc, name, ObjState::Group { links }, 0x47)
    }

    fn group_open(&self, s: &FsSession, loc: Handle, name: &str) -> H5Result<Handle> {
        self.open_object(s, loc, name, ObjectKind::Group)
    }

    fn group_close(&self, s: &FsSession, group: Handle) -> H5Result<()> {
        self.close_object(s, group, ObjectKind::Group)
    }

    fn dataset_create(
        &self,
        s: &FsSession,
        loc: Handle,
        name: &str,
        dtype: Datatype,
        space: Dataspace,
    ) -> H5Result<Handle> {
        let chunks = BTreeMap::new();
        let state = ObjState::Dataset { dtype, space, chunks };
        self.create_object(s, loc, name, state, 0x44)
    }

    fn dataset_open(&self, s: &FsSession, loc: Handle, name: &str) -> H5Result<Handle> {
        self.open_object(s, loc, name, ObjectKind::Dataset)
    }

    fn dataset_extend(&self, s: &FsSession, dset: Handle, new_dims: &[u64]) -> H5Result<()> {
        self.charge_meta(s);
        let (file, id) = self.dataset_entry(dset)?;
        let mut f = file.write();
        let obj = f.object_mut(id)?;
        let ObjState::Dataset { space, .. } = &mut obj.state else {
            return Err(H5Error::WrongKind { expected: "dataset" });
        };
        space.set_extent(new_dims)
    }

    fn dataset_write(
        &self,
        s: &FsSession,
        dset: Handle,
        sel: &Hyperslab,
        data: &Data,
    ) -> H5Result<()> {
        let (file, id) = self.dataset_entry(dset)?;
        let mut writes: Vec<(u64, Data)> = Vec::new(); // (file offset, payload)
        let ino = {
            let mut f = file.write();
            let mut eof = f.eof;
            let ObjState::Dataset { dtype, space, chunks } = &mut f.object_mut(id)?.state else {
                return Err(H5Error::WrongKind { expected: "dataset" });
            };
            let elem_size = dtype.size();
            let expected = sel.npoints() * elem_size;
            if data.len() != expected {
                return Err(H5Error::SizeMismatch {
                    expected,
                    got: data.len(),
                });
            }
            // Covered spans write in place; each gap gets a fresh chunk at
            // EOF, in walk order.
            let mut payload_cursor = 0u64;
            for (elem_off, elem_len) in sel.runs(space)? {
                for (start, count, at) in spans(chunks, elem_size, elem_off, elem_off + elem_len) {
                    let bytes = count * elem_size;
                    let at = at.unwrap_or_else(|| {
                        chunks.insert(start, (count, eof));
                        eof += bytes;
                        eof - bytes
                    });
                    writes.push((at, data.slice(payload_cursor, bytes)));
                    payload_cursor += bytes;
                }
            }
            // The fresh chunks' bytes, as `alloc` would have counted them.
            let grown = eof - f.eof;
            f.alloc(grown);
            f.dirty_bytes += data.len();
            f.ino
        };
        for (off, payload) in writes {
            self.backing_write(s, ino, off, &payload)?;
        }
        Ok(())
    }

    fn dataset_read(&self, s: &FsSession, dset: Handle, sel: &Hyperslab) -> H5Result<Data> {
        let (file, id) = self.dataset_entry(dset)?;
        let mut reads: Vec<(Option<u64>, u64)> = Vec::new(); // (file offset or fill, byte len)
        let (ino, total_bytes, any_real);
        {
            let f = file.read();
            let obj = f.object(id)?;
            let ObjState::Dataset { dtype, space, chunks } = &obj.state else {
                return Err(H5Error::WrongKind { expected: "dataset" });
            };
            let elem_size = dtype.size();
            for (elem_off, elem_len) in sel.runs(space)? {
                // Unallocated spans read back as the fill value.
                for (_, count, at) in spans(chunks, elem_size, elem_off, elem_off + elem_len) {
                    reads.push((at, count * elem_size));
                }
            }
            total_bytes = sel.npoints() * elem_size;
            ino = f.ino;
            // Only materialize if some covered region holds real bytes —
            // synthetic payloads round-trip as synthetic with zero copies.
            any_real = reads.iter().any(|(o, l)| {
                o.is_some_and(|off| self.fs.materialized(ino, off, *l).unwrap_or(false))
            });
        }

        self.charge_data(s, total_bytes);
        if !any_real {
            return Ok(Data::synthetic(total_bytes));
        }
        // Materialize: mixes of fill + stored bytes.
        let mut out = Vec::with_capacity(total_bytes.min(1 << 26) as usize);
        let mut synthetic_only = true;
        for (src, len) in &reads {
            match src {
                Some(off) => {
                    let b = self.fs.read_at(ino, *off, *len)?;
                    // read_at may return short if file sparse-extended; pad.
                    synthetic_only = false;
                    out.extend_from_slice(&b);
                    out.resize(out.len() + (*len as usize - b.len()), 0);
                }
                None => out.resize(out.len() + *len as usize, 0),
            }
        }
        if synthetic_only {
            Ok(Data::synthetic(total_bytes))
        } else {
            Ok(Data::real(out))
        }
    }

    fn dataset_close(&self, s: &FsSession, dset: Handle) -> H5Result<()> {
        self.close_object(s, dset, ObjectKind::Dataset)
    }

    fn attr_create(
        &self,
        s: &FsSession,
        loc: Handle,
        name: &str,
        dtype: Datatype,
        value: &[u8],
    ) -> H5Result<Handle> {
        self.charge_meta(s);
        check_name(name)?;
        let e = self.entry(loc)?;
        if e.kind == ObjectKind::Attribute {
            return Err(H5Error::WrongKind { expected: "non-attribute" });
        }
        let file = self.file_of(&e.file_key)?;
        let (ino, off) = {
            let mut f = file.write();
            let obj = f.object(e.object)?;
            if obj.attrs.contains_key(name) {
                return Err(H5Error::AlreadyExists(format!("{}#{}", obj.path, name)));
            }
            let off = f.alloc(ATTR_MESSAGE_BYTES + name.len() as u64 + value.len() as u64);
            let obj = f.object_mut(e.object)?;
            obj.attrs.insert(
                name.to_string(),
                AttrState {
                    dtype,
                    value: value.to_vec(),
                },
            );
            (f.ino, off)
        };
        let mut blob = vec![0x41u8; ATTR_MESSAGE_BYTES as usize + name.len()];
        blob.extend_from_slice(value);
        self.backing_write(s, ino, off, &Data::real(blob))?;
        Ok(self.mint(e.file_key, e.object, Some(name.to_string()), ObjectKind::Attribute))
    }

    fn attr_open(&self, s: &FsSession, loc: Handle, name: &str) -> H5Result<Handle> {
        self.charge_meta(s);
        let e = self.entry(loc)?;
        let file = self.file_of(&e.file_key)?;
        {
            let f = file.read();
            let obj = f.object(e.object)?;
            if !obj.attrs.contains_key(name) {
                return Err(H5Error::NotFound(format!("{}#{}", obj.path, name)));
            }
        }
        Ok(self.mint(e.file_key, e.object, Some(name.to_string()), ObjectKind::Attribute))
    }

    fn attr_read(&self, s: &FsSession, attr: Handle) -> H5Result<Vec<u8>> {
        let (file, id, name) = self.attr_entry(attr)?;
        let f = file.read();
        let a = f
            .object(id)?
            .attrs
            .get(&name)
            .ok_or_else(|| H5Error::NotFound(name.clone()))?;
        self.charge_data(s, a.value.len() as u64);
        Ok(a.value.clone())
    }

    fn attr_write(&self, s: &FsSession, attr: Handle, value: &[u8]) -> H5Result<()> {
        let (file, id, name) = self.attr_entry(attr)?;
        let (ino, off) = {
            let mut f = file.write();
            let off = f.alloc(value.len() as u64);
            let a = f
                .object_mut(id)?
                .attrs
                .get_mut(&name)
                .ok_or_else(|| H5Error::NotFound(name.clone()))?;
            a.value = value.to_vec();
            (f.ino, off)
        };
        self.backing_write(s, ino, off, &Data::real(value.to_vec()))?;
        Ok(())
    }

    fn attr_close(&self, s: &FsSession, attr: Handle) -> H5Result<()> {
        self.close_object(s, attr, ObjectKind::Attribute)
    }

    fn attr_list(&self, s: &FsSession, loc: Handle) -> H5Result<Vec<String>> {
        self.charge_meta(s);
        let e = self.entry(loc)?;
        let file = self.file_of(&e.file_key)?;
        let f = file.read();
        Ok(f.object(e.object)?.attrs.keys().cloned().collect())
    }

    fn datatype_commit(
        &self,
        s: &FsSession,
        loc: Handle,
        name: &str,
        dtype: Datatype,
    ) -> H5Result<Handle> {
        self.create_object(s, loc, name, ObjState::NamedDatatype { dtype }, 0x54)
    }

    fn datatype_open(&self, s: &FsSession, loc: Handle, name: &str) -> H5Result<Handle> {
        self.open_object(s, loc, name, ObjectKind::NamedDatatype)
    }

    fn datatype_close(&self, s: &FsSession, dtype: Handle) -> H5Result<()> {
        self.close_object(s, dtype, ObjectKind::NamedDatatype)
    }

    fn link_create_soft(
        &self,
        s: &FsSession,
        loc: Handle,
        target: &str,
        name: &str,
    ) -> H5Result<()> {
        self.charge_meta(s);
        check_name(name)?;
        let (file, parent) = self.location(loc)?;
        let (ino, off) = {
            let mut f = file.write();
            if f.links(parent)?.contains_key(name) {
                return Err(H5Error::AlreadyExists(name.to_string()));
            }
            let off = f.alloc(LINK_MESSAGE_BYTES + name.len() as u64 + target.len() as u64);
            f.links_mut(parent)?
                .insert(name.to_string(), Link::Soft(target.to_string()));
            (f.ino, off)
        };
        self.backing_write(
            s,
            ino,
            off,
            &Data::real(vec![0x4Cu8; LINK_MESSAGE_BYTES as usize + name.len() + target.len()]),
        )?;
        Ok(())
    }

    fn link_delete(&self, s: &FsSession, loc: Handle, name: &str) -> H5Result<()> {
        self.charge_meta(s);
        let (file, parent) = self.location(loc)?;
        let mut f = file.write();
        match f.links_mut(parent)?.remove(name) {
            Some(_) => Ok(()),
            None => Err(H5Error::NotFound(name.to_string())),
        }
    }

    fn link_exists(&self, s: &FsSession, loc: Handle, name: &str) -> H5Result<bool> {
        self.charge_meta(s);
        let (file, base) = self.location(loc)?;
        let f = file.read();
        Ok(f.resolve(base, name, 0).is_ok())
    }

    fn link_list(&self, s: &FsSession, loc: Handle) -> H5Result<Vec<String>> {
        self.charge_meta(s);
        let (file, base) = self.location(loc)?;
        let f = file.read();
        Ok(f.links(base)?.keys().cloned().collect())
    }

    fn object_info(&self, handle: Handle) -> H5Result<ObjectInfo> {
        let e = self.entry(handle)?;
        let file = self.file_of(&e.file_key)?;
        let f = file.read();
        let obj = f.object(e.object)?;
        let (object_path, dims, datatype) = match (&e.attr, &obj.state) {
            (Some(attr), _) => {
                let a = obj
                    .attrs
                    .get(attr)
                    .ok_or_else(|| H5Error::NotFound(attr.clone()))?;
                (
                    format!("{}#{}", obj.path, attr),
                    None,
                    Some(a.dtype.clone()),
                )
            }
            (None, ObjState::Dataset { dtype, space, .. }) => (
                obj.path.clone(),
                Some(space.dims().to_vec()),
                Some(dtype.clone()),
            ),
            (None, ObjState::NamedDatatype { dtype }) => {
                (obj.path.clone(), None, Some(dtype.clone()))
            }
            (None, ObjState::Group { .. }) => (obj.path.clone(), None, None),
        };
        Ok(ObjectInfo {
            file_path: f.fs_path.clone(),
            object_path,
            kind: e.kind,
            dims,
            datatype,
        })
    }
}

fn check_name(name: &str) -> H5Result<()> {
    if name.is_empty() || name.contains('/') {
        return Err(H5Error::BadName(name.to_string()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use provio_hpcfs::{Dispatcher, LustreConfig};
    use provio_simrt::VirtualClock;

    fn setup() -> (Arc<NativeVol>, FsSession) {
        let fs = FileSystem::new(LustreConfig::default());
        let vol = Arc::new(NativeVol::new(Arc::clone(&fs)));
        let s = FsSession::new(
            fs,
            1,
            "alice",
            "vpicio_uni_h5",
            VirtualClock::new(),
            Dispatcher::new(),
        );
        (vol, s)
    }

    #[test]
    fn file_create_open_close() {
        let (vol, s) = setup();
        let f = vol.file_create(&s, "/out.h5", true).unwrap();
        vol.file_close(&s, f).unwrap();
        let f2 = vol.file_open(&s, "/out.h5", false).unwrap();
        let info = vol.object_info(f2).unwrap();
        assert_eq!(info.file_path, "/out.h5");
        assert_eq!(info.object_path, "/");
        assert_eq!(info.kind, ObjectKind::File);
        vol.file_close(&s, f2).unwrap();
        assert!(vol.file_open(&s, "/nope.h5", false).is_err());
    }

    #[test]
    fn group_hierarchy_and_paths() {
        let (vol, s) = setup();
        let f = vol.file_create(&s, "/x.h5", true).unwrap();
        let g = vol.group_create(&s, f, "Timestep_0").unwrap();
        let sub = vol.group_create(&s, g, "fields").unwrap();
        assert_eq!(vol.object_info(sub).unwrap().object_path, "/Timestep_0/fields");
        // Open by multi-component path from the file root.
        let again = vol.group_open(&s, f, "Timestep_0/fields").unwrap();
        assert_eq!(vol.object_info(again).unwrap().object_path, "/Timestep_0/fields");
        assert_eq!(
            vol.group_create(&s, f, "Timestep_0").unwrap_err(),
            H5Error::AlreadyExists("/Timestep_0".into())
        );
    }

    #[test]
    fn dataset_write_read_round_trip() {
        let (vol, s) = setup();
        let f = vol.file_create(&s, "/d.h5", true).unwrap();
        let d = vol
            .dataset_create(&s, f, "x", Datatype::Float64, Dataspace::fixed(&[4]))
            .unwrap();
        vol.dataset_write(
            &s,
            d,
            &Hyperslab::new(&[0], &[4]),
            &Data::from_f64s(&[1.0, 2.0, 3.0, 4.0]),
        )
        .unwrap();
        let got = vol
            .dataset_read(&s, d, &Hyperslab::new(&[1], &[2]))
            .unwrap();
        assert_eq!(got.to_f64s().unwrap(), vec![2.0, 3.0]);
    }

    #[test]
    fn unallocated_reads_are_fill_value() {
        let (vol, s) = setup();
        let f = vol.file_create(&s, "/d.h5", true).unwrap();
        let d = vol
            .dataset_create(&s, f, "x", Datatype::Int32, Dataspace::fixed(&[8]))
            .unwrap();
        let got = vol.dataset_read(&s, d, &Hyperslab::new(&[0], &[8])).unwrap();
        assert_eq!(got.len(), 32);
        assert!(got.as_bytes().is_none(), "all-fill read stays synthetic");
    }

    #[test]
    fn partial_allocation_mixes_fill_and_data() {
        let (vol, s) = setup();
        let f = vol.file_create(&s, "/d.h5", true).unwrap();
        let d = vol
            .dataset_create(&s, f, "x", Datatype::Float64, Dataspace::fixed(&[4]))
            .unwrap();
        vol.dataset_write(
            &s,
            d,
            &Hyperslab::new(&[2], &[2]),
            &Data::from_f64s(&[7.0, 8.0]),
        )
        .unwrap();
        let got = vol.dataset_read(&s, d, &Hyperslab::new(&[0], &[4])).unwrap();
        assert_eq!(got.to_f64s().unwrap(), vec![0.0, 0.0, 7.0, 8.0]);
    }

    #[test]
    fn size_mismatch_rejected() {
        let (vol, s) = setup();
        let f = vol.file_create(&s, "/d.h5", true).unwrap();
        let d = vol
            .dataset_create(&s, f, "x", Datatype::Float64, Dataspace::fixed(&[4]))
            .unwrap();
        let err = vol
            .dataset_write(&s, d, &Hyperslab::new(&[0], &[4]), &Data::synthetic(31))
            .unwrap_err();
        assert_eq!(err, H5Error::SizeMismatch { expected: 32, got: 31 });
    }

    #[test]
    fn extend_and_append_pattern() {
        let (vol, s) = setup();
        let f = vol.file_create(&s, "/a.h5", true).unwrap();
        let space = Dataspace::with_max(&[0], &[None]).unwrap();
        let d = vol
            .dataset_create(&s, f, "log", Datatype::Int64, space)
            .unwrap();
        for step in 0..4u64 {
            vol.dataset_extend(&s, d, &[(step + 1) * 10]).unwrap();
            vol.dataset_write(
                &s,
                d,
                &Hyperslab::new(&[step * 10], &[10]),
                &Data::synthetic(80),
            )
            .unwrap();
        }
        let info = vol.object_info(d).unwrap();
        assert_eq!(info.dims, Some(vec![40]));
        let got = vol.dataset_read(&s, d, &Hyperslab::new(&[0], &[40])).unwrap();
        assert_eq!(got.len(), 320);
    }

    #[test]
    fn synthetic_payloads_not_resident() {
        let (vol, s) = setup();
        let f = vol.file_create(&s, "/big.h5", true).unwrap();
        let d = vol
            .dataset_create(
                &s,
                f,
                "field",
                Datatype::Float64,
                Dataspace::fixed(&[1 << 27]), // 1 GiB of f64
            )
            .unwrap();
        vol.dataset_write(
            &s,
            d,
            &Hyperslab::new(&[0], &[1 << 27]),
            &Data::synthetic(8 << 27),
        )
        .unwrap();
        // Backing fs holds only metadata bytes.
        assert!(s.fs().total_resident_bytes() < 4096);
        assert!(s.fs().stat("/big.h5").unwrap().size >= 8 << 27);
    }

    #[test]
    fn attributes_lifecycle() {
        let (vol, s) = setup();
        let f = vol.file_create(&s, "/a.h5", true).unwrap();
        let d = vol
            .dataset_create(&s, f, "x", Datatype::Float64, Dataspace::fixed(&[2]))
            .unwrap();
        let a = vol
            .attr_create(&s, d, "units", Datatype::FixedString(8), b"m/s")
            .unwrap();
        assert_eq!(vol.attr_read(&s, a).unwrap(), b"m/s");
        vol.attr_write(&s, a, b"km/h").unwrap();
        assert_eq!(vol.attr_read(&s, a).unwrap(), b"km/h");
        let info = vol.object_info(a).unwrap();
        assert_eq!(info.object_path, "/x#units");
        assert_eq!(info.kind, ObjectKind::Attribute);
        vol.attr_close(&s, a).unwrap();
        assert_eq!(vol.attr_list(&s, d).unwrap(), vec!["units"]);
        let a2 = vol.attr_open(&s, d, "units").unwrap();
        assert_eq!(vol.attr_read(&s, a2).unwrap(), b"km/h");
        assert!(vol.attr_open(&s, d, "missing").is_err());
        assert!(vol
            .attr_create(&s, d, "units", Datatype::VarString, b"x")
            .is_err());
    }

    #[test]
    fn named_datatypes() {
        let (vol, s) = setup();
        let f = vol.file_create(&s, "/t.h5", true).unwrap();
        let c = Datatype::Compound(vec![
            ("e".into(), Datatype::Float32),
            ("t".into(), Datatype::Int64),
        ]);
        let t = vol.datatype_commit(&s, f, "particle", c.clone()).unwrap();
        assert_eq!(vol.object_info(t).unwrap().datatype, Some(c.clone()));
        vol.datatype_close(&s, t).unwrap();
        let t2 = vol.datatype_open(&s, f, "particle").unwrap();
        assert_eq!(vol.object_info(t2).unwrap().datatype, Some(c));
    }

    #[test]
    fn soft_links_resolve() {
        let (vol, s) = setup();
        let f = vol.file_create(&s, "/l.h5", true).unwrap();
        let g = vol.group_create(&s, f, "data").unwrap();
        vol.dataset_create(&s, g, "x", Datatype::Int32, Dataspace::fixed(&[1]))
            .unwrap();
        vol.link_create_soft(&s, f, "/data/x", "latest").unwrap();
        let d = vol.dataset_open(&s, f, "latest").unwrap();
        assert_eq!(vol.object_info(d).unwrap().object_path, "/data/x");
        assert!(vol.link_exists(&s, f, "latest").unwrap());
        vol.link_delete(&s, f, "latest").unwrap();
        assert!(!vol.link_exists(&s, f, "latest").unwrap());
        assert_eq!(vol.link_list(&s, f).unwrap(), vec!["data"]);
    }

    #[test]
    fn io_charges_virtual_time() {
        let (vol, s) = setup();
        let t0 = s.clock().now();
        let f = vol.file_create(&s, "/c.h5", true).unwrap();
        let d = vol
            .dataset_create(&s, f, "x", Datatype::Float64, Dataspace::fixed(&[1 << 20]))
            .unwrap();
        let t1 = s.clock().now();
        assert!(t1 > t0);
        vol.dataset_write(
            &s,
            d,
            &Hyperslab::new(&[0], &[1 << 20]),
            &Data::synthetic(8 << 20),
        )
        .unwrap();
        let t2 = s.clock().now();
        assert!(t2.elapsed_since(t1) > t1.elapsed_since(t0), "bulk write dominates");
    }

    #[test]
    fn concurrent_ranks_share_file() {
        let fs = FileSystem::new(LustreConfig::default());
        let vol = Arc::new(NativeVol::new(Arc::clone(&fs)));
        let boot = FsSession::new(
            Arc::clone(&fs),
            0,
            "alice",
            "launcher",
            VirtualClock::new(),
            Dispatcher::new(),
        );
        let f = vol.file_create(&boot, "/shared.h5", true).unwrap();
        let space = Dataspace::fixed(&[64 * 1024]);
        let d = vol
            .dataset_create(&boot, f, "x", Datatype::Float64, space)
            .unwrap();
        let _ = d;
        std::thread::scope(|sc| {
            for rank in 0..8u64 {
                let vol = Arc::clone(&vol);
                let fs = Arc::clone(&fs);
                sc.spawn(move || {
                    let s = FsSession::new(
                        fs,
                        100 + rank as u32,
                        "alice",
                        "vpicio",
                        VirtualClock::new(),
                        Dispatcher::new(),
                    );
                    let f = vol.file_open(&s, "/shared.h5", true).unwrap();
                    let d = vol.dataset_open(&s, f, "x").unwrap();
                    vol.dataset_write(
                        &s,
                        d,
                        &Hyperslab::new(&[rank * 1024], &[1024]),
                        &Data::synthetic(8 * 1024),
                    )
                    .unwrap();
                    vol.dataset_close(&s, d).unwrap();
                    vol.file_close(&s, f).unwrap();
                });
            }
        });
        let s = boot;
        let d2 = vol.dataset_open(&s, f, "x").unwrap();
        let got = vol
            .dataset_read(&s, d2, &Hyperslab::new(&[0], &[8 * 1024]))
            .unwrap();
        assert_eq!(got.len(), 64 * 1024);
    }

    #[test]
    fn bad_names_rejected() {
        let (vol, s) = setup();
        let f = vol.file_create(&s, "/n.h5", true).unwrap();
        assert!(matches!(
            vol.group_create(&s, f, "a/b"),
            Err(H5Error::BadName(_))
        ));
        assert!(matches!(
            vol.group_create(&s, f, ""),
            Err(H5Error::BadName(_))
        ));
    }

    #[test]
    fn closed_handle_rejected() {
        let (vol, s) = setup();
        let f = vol.file_create(&s, "/h.h5", true).unwrap();
        let g = vol.group_create(&s, f, "g").unwrap();
        vol.group_close(&s, g).unwrap();
        assert_eq!(vol.object_info(g).unwrap_err(), H5Error::BadHandle);
        assert!(vol.group_open(&s, g, "x").is_err());
    }
}
