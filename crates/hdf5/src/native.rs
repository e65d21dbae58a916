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
use crate::vol::{Create, Handle, ObjectInfo, ObjectKind, VolConnector};
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
            Data::Real(b) => self.fs.write_at(ino, offset, b.clone(), now)?,
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

    /// An attribute lives on the object at `loc` itself, not behind a link,
    /// so it has its own create body.
    fn create_attr(
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
        let (ino, root) = {
            let f = file.read();
            (f.ino, f.root)
        };
        let _ = self.fs.read_at(ino, 0, SUPERBLOCK_BYTES)?;
        self.charge_data(s, SUPERBLOCK_BYTES);
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

    fn create(&self, s: &FsSession, loc: Handle, name: &str, what: Create) -> H5Result<Handle> {
        let kind = what.kind();
        let (state, tag) = match what {
            Create::Group => (ObjState::Group { links: BTreeMap::new() }, 0x47),
            Create::Dataset { dtype, space } => {
                let chunks = BTreeMap::new();
                (ObjState::Dataset { dtype, space, chunks }, 0x44)
            }
            Create::NamedDatatype { dtype } => (ObjState::NamedDatatype { dtype }, 0x54),
            Create::Attribute { dtype, value } => {
                return self.create_attr(s, loc, name, dtype, value);
            }
        };
        self.charge_meta(s);
        check_name(name)?;
        let (file, parent) = self.location(loc)?;
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
        // The object header: `tag` bytes sized like the real message.
        let header = vec![tag; OBJECT_HEADER_BYTES as usize + name.len()];
        self.backing_write(s, ino, off, &Data::real(header))?;
        Ok(self.mint(key, id, None, kind))
    }

    fn open(&self, s: &FsSession, loc: Handle, name: &str, kind: ObjectKind) -> H5Result<Handle> {
        self.charge_meta(s);
        if kind == ObjectKind::Attribute {
            let e = self.entry(loc)?;
            {
                let file = self.file_of(&e.file_key)?;
                let f = file.read();
                let obj = f.object(e.object)?;
                if !obj.attrs.contains_key(name) {
                    return Err(H5Error::NotFound(format!("{}#{}", obj.path, name)));
                }
            }
            return Ok(self.mint(e.file_key, e.object, Some(name.to_string()), kind));
        }
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

    fn close(&self, s: &FsSession, handle: Handle, kind: ObjectKind) -> H5Result<()> {
        // An in-file object charges before its checks, a file once closed.
        if kind != ObjectKind::File {
            self.charge_meta(s);
        }
        {
            let mut st = self.state.write();
            // Check the kind first: a refused close leaves the handle open.
            if st.handles.get(&handle.0).map(|e| e.kind) != Some(kind) {
                return Err(H5Error::BadHandle);
            }
            st.handles.remove(&handle.0);
        }
        if kind == ObjectKind::File {
            self.charge_meta(s);
        }
        Ok(())
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

    fn attr_read(&self, s: &FsSession, attr: Handle) -> H5Result<Vec<u8>> {
        let e = self.entry(attr)?;
        let Some(name) = e.attr else {
            return Err(H5Error::WrongKind { expected: "attribute" });
        };
        let file = self.file_of(&e.file_key)?;
        let f = file.read();
        let a = f.object(e.object)?.attrs.get(&name).ok_or(H5Error::NotFound(name))?;
        self.charge_data(s, a.value.len() as u64);
        Ok(a.value.clone())
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

    /// A fixed-extent dataset `name` under `loc`.
    fn dataset(
        vol: &NativeVol,
        s: &FsSession,
        loc: Handle,
        name: &str,
        dtype: Datatype,
        dims: &[u64],
    ) -> Handle {
        let space = Dataspace::fixed(dims);
        vol.create(s, loc, name, Create::Dataset { dtype, space }).unwrap()
    }

    #[test]
    fn file_create_open_close() {
        let (vol, s) = setup();
        let f = vol.file_create(&s, "/out.h5", true).unwrap();
        vol.close(&s, f, ObjectKind::File).unwrap();
        let f2 = vol.file_open(&s, "/out.h5", false).unwrap();
        let info = vol.object_info(f2).unwrap();
        assert_eq!(info.file_path, "/out.h5");
        assert_eq!(info.object_path, "/");
        assert_eq!(info.kind, ObjectKind::File);
        vol.close(&s, f2, ObjectKind::File).unwrap();
        assert!(vol.file_open(&s, "/nope.h5", false).is_err());
    }

    #[test]
    fn group_hierarchy_and_paths() {
        let (vol, s) = setup();
        let f = vol.file_create(&s, "/x.h5", true).unwrap();
        let g = vol.create(&s, f, "Timestep_0", Create::Group).unwrap();
        let sub = vol.create(&s, g, "fields", Create::Group).unwrap();
        assert_eq!(vol.object_info(sub).unwrap().object_path, "/Timestep_0/fields");
        // Open by multi-component path from the file root.
        let again = vol.open(&s, f, "Timestep_0/fields", ObjectKind::Group).unwrap();
        assert_eq!(vol.object_info(again).unwrap().object_path, "/Timestep_0/fields");
        assert_eq!(
            vol.create(&s, f, "Timestep_0", Create::Group).unwrap_err(),
            H5Error::AlreadyExists("/Timestep_0".into())
        );
    }

    #[test]
    fn dataset_write_read_round_trip() {
        let (vol, s) = setup();
        let f = vol.file_create(&s, "/d.h5", true).unwrap();
        let d = dataset(&vol, &s, f, "x", Datatype::Float64, &[4]);
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
        let d = dataset(&vol, &s, f, "x", Datatype::Int32, &[8]);
        let got = vol.dataset_read(&s, d, &Hyperslab::new(&[0], &[8])).unwrap();
        assert_eq!(got.len(), 32);
        assert!(got.as_bytes().is_none(), "all-fill read stays synthetic");
    }

    #[test]
    fn partial_allocation_mixes_fill_and_data() {
        let (vol, s) = setup();
        let f = vol.file_create(&s, "/d.h5", true).unwrap();
        let d = dataset(&vol, &s, f, "x", Datatype::Float64, &[4]);
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
        let d = dataset(&vol, &s, f, "x", Datatype::Float64, &[4]);
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
            .create(&s, f, "log", Create::Dataset { dtype: Datatype::Int64, space })
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
        let d = dataset(&vol, &s, f, "field", Datatype::Float64, &[1 << 27]);
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
        let d = dataset(&vol, &s, f, "x", Datatype::Float64, &[2]);
        let units = Create::Attribute { dtype: Datatype::FixedString(8), value: b"m/s" };
        let a = vol.create(&s, d, "units", units).unwrap();
        assert_eq!(vol.attr_read(&s, a).unwrap(), b"m/s");
        let info = vol.object_info(a).unwrap();
        assert_eq!(info.object_path, "/x#units");
        assert_eq!(info.kind, ObjectKind::Attribute);
        vol.close(&s, a, ObjectKind::Attribute).unwrap();
        let a2 = vol.open(&s, d, "units", ObjectKind::Attribute).unwrap();
        assert_eq!(vol.attr_read(&s, a2).unwrap(), b"m/s");
        assert!(vol.open(&s, d, "missing", ObjectKind::Attribute).is_err());
        assert!(vol
            .create(&s, d, "units", Create::Attribute { dtype: Datatype::VarString, value: b"x" })
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
        let t = vol.create(&s, f, "particle", Create::NamedDatatype { dtype: c.clone() }).unwrap();
        assert_eq!(vol.object_info(t).unwrap().datatype, Some(c.clone()));
        vol.close(&s, t, ObjectKind::NamedDatatype).unwrap();
        let t2 = vol.open(&s, f, "particle", ObjectKind::NamedDatatype).unwrap();
        assert_eq!(vol.object_info(t2).unwrap().datatype, Some(c));
    }

    #[test]
    fn soft_links_resolve() {
        let (vol, s) = setup();
        let f = vol.file_create(&s, "/l.h5", true).unwrap();
        let g = vol.create(&s, f, "data", Create::Group).unwrap();
        dataset(&vol, &s, g, "x", Datatype::Int32, &[1]);
        vol.link_create_soft(&s, f, "/data/x", "latest").unwrap();
        let d = vol.open(&s, f, "latest", ObjectKind::Dataset).unwrap();
        assert_eq!(vol.object_info(d).unwrap().object_path, "/data/x");
        vol.link_delete(&s, f, "latest").unwrap();
        let gone = vol.open(&s, f, "latest", ObjectKind::Dataset).unwrap_err();
        assert_eq!(gone, H5Error::NotFound("latest (latest)".into()));
        assert!(vol.open(&s, f, "data/x", ObjectKind::Dataset).is_ok());
        assert!(vol.link_delete(&s, f, "latest").is_err());
    }

    #[test]
    fn io_charges_virtual_time() {
        let (vol, s) = setup();
        let t0 = s.clock().now();
        let f = vol.file_create(&s, "/c.h5", true).unwrap();
        let d = dataset(&vol, &s, f, "x", Datatype::Float64, &[1 << 20]);
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
            .create(&boot, f, "x", Create::Dataset { dtype: Datatype::Float64, space })
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
                    let d = vol.open(&s, f, "x", ObjectKind::Dataset).unwrap();
                    vol.dataset_write(
                        &s,
                        d,
                        &Hyperslab::new(&[rank * 1024], &[1024]),
                        &Data::synthetic(8 * 1024),
                    )
                    .unwrap();
                    vol.close(&s, d, ObjectKind::Dataset).unwrap();
                    vol.close(&s, f, ObjectKind::File).unwrap();
                });
            }
        });
        let s = boot;
        let d2 = vol.open(&s, f, "x", ObjectKind::Dataset).unwrap();
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
            vol.create(&s, f, "a/b", Create::Group),
            Err(H5Error::BadName(_))
        ));
        assert!(matches!(
            vol.create(&s, f, "", Create::Group),
            Err(H5Error::BadName(_))
        ));
    }

    #[test]
    fn closed_handle_rejected() {
        let (vol, s) = setup();
        let f = vol.file_create(&s, "/h.h5", true).unwrap();
        let g = vol.create(&s, f, "g", Create::Group).unwrap();
        vol.close(&s, g, ObjectKind::Group).unwrap();
        assert_eq!(vol.object_info(g).unwrap_err(), H5Error::BadHandle);
        assert!(vol.open(&s, g, "x", ObjectKind::Group).is_err());
    }

    #[test]
    fn refused_close_keeps_the_handle_open() {
        let (vol, s) = setup();
        let f = vol.file_create(&s, "/r.h5", true).unwrap();
        let d = dataset(&vol, &s, f, "x", Datatype::Int32, &[2]);
        assert_eq!(vol.close(&s, d, ObjectKind::Group), Err(H5Error::BadHandle));
        assert_eq!(vol.close(&s, d, ObjectKind::File), Err(H5Error::BadHandle));
        vol.dataset_write(&s, d, &Hyperslab::new(&[0], &[2]), &Data::synthetic(8)).unwrap();
        vol.close(&s, d, ObjectKind::Dataset).unwrap();
    }
}
