//! The vnode layer: every open descriptor dispatches through the
//! [`Vnode`] trait, whatever it refers to.
//!
//! §5 of the paper insists the Unix file system is *untrusted library
//! code* over labeled kernel objects.  The vnode trait is where that
//! library stops special-casing: a regular file, a pipe end, a console, a
//! `/proc` pseudo-file and a `/dev` node all answer the same
//! `read`/`write`/`seek`/`stat` interface, and the kernel's label checks
//! run inside each implementation's system calls exactly as before.
//!
//! Descriptor state still lives in the *descriptor segment* (§5.3): a
//! vnode never caches the seek position, because `dup` and `fork` share
//! positions by sharing that segment.  What a vnode may cache is pure
//! naming: the typed capability [`Handle`] to its backing segment and to
//! the descriptor segment, so steady-state I/O names both objects without
//! re-resolving a [`ContainerEntry`], and the hot read/write paths submit
//! their data operation and the descriptor seek-update as ONE submission
//! batch (a single boundary crossing).

use crate::env::UnixError;
use crate::fdtable::{FdState, FD_POSITION_OFFSET, FD_STATE_LEN};
use crate::fs::FileStat;
use histar_kernel::abi::Handle;
use histar_kernel::bodies::ObjectBody;
use histar_kernel::dispatch::Syscall;
use histar_kernel::object::{ContainerEntry, ObjectId};
use histar_kernel::serialize::encode_object;
use histar_kernel::syscall::SyscallError;
use histar_kernel::{Kernel, Machine};

type Result<T> = core::result::Result<T, UnixError>;

/// Size of the ring buffer inside a pipe segment.
pub const PIPE_CAPACITY: u64 = 64 * 1024;
/// Header bytes of a pipe segment: read position, write position, writer
/// count.
pub const PIPE_HEADER: u64 = 24;

/// The mutable state a vnode operation runs against: the simulated
/// machine and the calling process's thread.  Every kernel call a vnode
/// makes goes through `trap_*`/`submit_calls` on this thread, so the
/// kernel's label checks always apply to the actual caller.
#[derive(Debug)]
pub struct VfsCtx<'a> {
    /// The machine the environment runs on.
    pub machine: &'a mut Machine,
    /// The calling process's thread.
    pub thread: ObjectId,
}

impl VfsCtx<'_> {
    /// The kernel, mutably — the path every syscall takes.
    pub fn kernel(&mut self) -> &mut Kernel {
        self.machine.kernel_mut()
    }
}

/// The resolved location of one descriptor segment, as seen by one
/// thread: the raw container entry it was found through and (when the
/// kernel granted one) a cached capability handle for it.
#[derive(Clone, Copy, Debug)]
pub struct FdRef {
    /// The descriptor segment's object ID.
    pub seg: ObjectId,
    /// The container entry the segment is reachable through.
    pub entry: ContainerEntry,
    /// Cached per-thread capability handle for `entry`.
    pub handle: Option<Handle>,
}

impl FdRef {
    /// The entry I/O should name the descriptor segment by: the cached
    /// handle when present, the raw entry otherwise.
    pub fn io_entry(&self) -> ContainerEntry {
        self.handle.map(Handle::entry).unwrap_or(self.entry)
    }

    /// The batched syscall that stores a new seek position into the
    /// descriptor segment (the second entry of the hot-path batches).
    pub fn position_update(&self, position: u64) -> Syscall {
        Syscall::SegmentWrite {
            entry: self.io_entry(),
            offset: FD_POSITION_OFFSET,
            data: position.to_le_bytes().to_vec(),
        }
    }
}

/// Restores a descriptor's seek position after a failed batched I/O.
/// Submission batches have no rollback — every entry executes — so a
/// hot path whose data operation failed must undo the optimistic
/// position update or a denied read/write would move the shared
/// position.  Best-effort: the fd segment is the caller's own state, so
/// this write only fails if the descriptor itself is gone.
pub fn undo_seek(ctx: &mut VfsCtx, fd: &FdRef, position: u64) {
    let thread = ctx.thread;
    let _ = ctx
        .kernel()
        .submit_calls(thread, vec![fd.position_update(position)]);
}

/// Reads and decodes the descriptor state from its segment (one trap).
pub fn read_fd_state(ctx: &mut VfsCtx, fd: &FdRef) -> Result<FdState> {
    let thread = ctx.thread;
    let bytes = match ctx
        .kernel()
        .trap_segment_read(thread, fd.io_entry(), 0, FD_STATE_LEN)
    {
        Err(SyscallError::BadHandle(_)) => {
            // The cached handle was revoked; fall back to the raw entry.
            ctx.kernel()
                .trap_segment_read(thread, fd.entry, 0, FD_STATE_LEN)?
        }
        other => other?,
    };
    FdState::decode(&bytes).ok_or(UnixError::Corrupt("fd segment"))
}

/// Read-modify-writes the descriptor state (used by the cold paths:
/// `close`/`dup`/`fork` reference counting).
pub fn update_fd_state(
    ctx: &mut VfsCtx,
    fd: &FdRef,
    update: impl FnOnce(&mut FdState),
) -> Result<FdState> {
    let mut state = read_fd_state(ctx, fd)?;
    update(&mut state);
    let thread = ctx.thread;
    ctx.kernel()
        .trap_segment_write(thread, fd.io_entry(), 0, &state.encode())?;
    Ok(state)
}

/// One open descriptor's behaviour: the object every `FdKind` used to be
/// hand-dispatched to.  Implementations update descriptor-segment state
/// (seek position, pipe header) themselves, batching those updates with
/// their data operation where the ABI allows.
pub trait Vnode: core::fmt::Debug {
    /// Reads up to `len` bytes at the descriptor's current position.
    fn read(&mut self, ctx: &mut VfsCtx, fd: &FdRef, state: &FdState, len: u64) -> Result<Vec<u8>>;

    /// Writes `data` at the descriptor's current position, returning the
    /// number of bytes written.
    fn write(&mut self, ctx: &mut VfsCtx, fd: &FdRef, state: &FdState, data: &[u8]) -> Result<u64>;

    /// Repositions the descriptor (absolute seek).  The default stores
    /// the position into the descriptor segment, which is all a seekable
    /// vnode needs; stream-like vnodes (pipes, console, sockets)
    /// override this to refuse.
    fn seek(&mut self, ctx: &mut VfsCtx, fd: &FdRef, position: u64) -> Result<()> {
        let thread = ctx.thread;
        for r in ctx
            .kernel()
            .submit_calls(thread, vec![fd.position_update(position)])
        {
            r?;
        }
        Ok(())
    }

    /// `fstat` through the descriptor.
    fn stat(&mut self, _ctx: &mut VfsCtx, state: &FdState) -> Result<FileStat> {
        Ok(FileStat {
            object: state.target,
            is_dir: false,
            len: 0,
        })
    }

    /// Makes specific pages of the backing object durable in place
    /// (`fdatasync`); only file-backed vnodes support it.
    fn fsync_pages(&mut self, _ctx: &mut VfsCtx, _state: &FdState, _pages: &[u64]) -> Result<()> {
        Err(UnixError::Unsupported("fsync on a non-file descriptor"))
    }

    /// Called when the last reference to the descriptor is closed (e.g. a
    /// pipe write end signalling end-of-file).
    fn on_last_close(&mut self, _ctx: &mut VfsCtx, _state: &FdState) -> Result<()> {
        Ok(())
    }

    /// Drops any capability handles the vnode cached for `ctx.thread`.
    fn release(&mut self, _ctx: &mut VfsCtx) {}
}

// ---------------------------------------------------------------- pipes --

/// Both ends of a pipe: a ring buffer in a shared segment whose header
/// holds `(read pos, write pos, writer count)`.  The header read costs one
/// trap; the data transfer and the header update then cross the boundary
/// together as one batch.
#[derive(Debug, Default)]
pub struct PipeVnode;

fn pipe_entry(state: &FdState) -> ContainerEntry {
    ContainerEntry::new(state.target_container, state.target)
}

pub(crate) fn decode_pipe_header(header: &[u8]) -> (u64, u64, u64) {
    let rpos = u64::from_le_bytes(header[0..8].try_into().expect("8 bytes"));
    let wpos = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
    let writers = u64::from_le_bytes(header[16..24].try_into().expect("8 bytes"));
    (rpos, wpos, writers)
}

pub(crate) fn encode_pipe_header(rpos: u64, wpos: u64, writers: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(PIPE_HEADER as usize);
    out.extend_from_slice(&rpos.to_le_bytes());
    out.extend_from_slice(&wpos.to_le_bytes());
    out.extend_from_slice(&writers.to_le_bytes());
    out
}

/// One byte ring inside a segment: a `PIPE_HEADER`-byte header plus
/// `capacity` data bytes, each at an arbitrary offset.  A pipe segment
/// holds one ring; a socket connection segment holds two (one per
/// direction), with both headers packed at the front so an idle
/// connection materializes almost no segment bytes.
#[derive(Clone, Copy, Debug)]
pub struct Ring {
    /// The segment holding the ring.
    pub entry: ContainerEntry,
    /// Byte offset of the ring's `(rpos, wpos, writers)` header.
    pub header: u64,
    /// Byte offset of the ring's data area.
    pub data: u64,
    /// Data capacity in bytes.
    pub capacity: u64,
}

impl Ring {
    /// The offset poll probes to compute readiness without data movement.
    pub fn header_offset(&self) -> u64 {
        self.header
    }

    /// Decoded `(rpos, wpos, writers)` header (one trap).
    pub fn read_header(&self, ctx: &mut VfsCtx) -> Result<(u64, u64, u64)> {
        let thread = ctx.thread;
        let header =
            ctx.kernel()
                .trap_segment_read(thread, self.entry, self.header, PIPE_HEADER)?;
        Ok(decode_pipe_header(&header))
    }

    /// Consumes up to `len` bytes.  Empty ring: end-of-file when no
    /// writers remain, [`UnixError::WouldBlock`] otherwise.  The data
    /// read(s) and the header update cross the boundary as one batch.
    pub(crate) fn read(&self, ctx: &mut VfsCtx, len: u64) -> Result<Vec<u8>> {
        let (rpos, wpos, writers) = self.read_header(ctx)?;
        let available = wpos - rpos;
        if available == 0 {
            if writers == 0 {
                return Ok(Vec::new()); // end of file
            }
            return Err(UnixError::WouldBlock);
        }
        let n = len.min(available);
        let start = rpos % self.capacity;
        let first = n.min(self.capacity - start);
        let mut calls = vec![Syscall::SegmentRead {
            entry: self.entry,
            offset: self.data + start,
            len: first,
        }];
        if first < n {
            calls.push(Syscall::SegmentRead {
                entry: self.entry,
                offset: self.data,
                len: n - first,
            });
        }
        calls.push(Syscall::SegmentWrite {
            entry: self.entry,
            offset: self.header,
            data: encode_pipe_header(rpos + n, wpos, writers),
        });
        let thread = ctx.thread;
        let mut results = ctx.kernel().submit_calls(thread, calls).into_iter();
        let mut out = results.next().expect("first read completes")?.into_bytes();
        if first < n {
            out.extend(results.next().expect("wrap read completes")?.into_bytes());
        }
        results.next().expect("header update completes")?;
        Ok(out)
    }

    /// Appends up to `data.len()` bytes, returning how many fit.  A full
    /// ring returns [`UnixError::WouldBlock`].
    pub(crate) fn write(&self, ctx: &mut VfsCtx, data: &[u8]) -> Result<u64> {
        let (rpos, wpos, writers) = self.read_header(ctx)?;
        let free = self.capacity - (wpos - rpos);
        if free == 0 {
            return Err(UnixError::WouldBlock);
        }
        let n = (data.len() as u64).min(free);
        let start = wpos % self.capacity;
        let first = n.min(self.capacity - start);
        let mut calls = vec![Syscall::SegmentWrite {
            entry: self.entry,
            offset: self.data + start,
            data: data[..first as usize].to_vec(),
        }];
        if first < n {
            calls.push(Syscall::SegmentWrite {
                entry: self.entry,
                offset: self.data,
                data: data[first as usize..n as usize].to_vec(),
            });
        }
        calls.push(Syscall::SegmentWrite {
            entry: self.entry,
            offset: self.header,
            data: encode_pipe_header(rpos, wpos + n, writers),
        });
        let thread = ctx.thread;
        for r in ctx.kernel().submit_calls(thread, calls) {
            r?;
        }
        Ok(n)
    }

    /// Adjusts the writer count (last close of a write end → EOF for
    /// readers).
    fn adjust_writers(&self, ctx: &mut VfsCtx, delta: i64) -> Result<()> {
        let (rpos, wpos, writers) = self.read_header(ctx)?;
        let writers = if delta < 0 {
            writers.saturating_sub(delta.unsigned_abs())
        } else {
            writers + delta as u64
        };
        let thread = ctx.thread;
        ctx.kernel().trap_segment_write(
            thread,
            self.entry,
            self.header,
            &encode_pipe_header(rpos, wpos, writers),
        )?;
        Ok(())
    }
}

impl PipeVnode {
    fn ring(state: &FdState) -> Ring {
        Ring {
            entry: pipe_entry(state),
            header: 0,
            data: PIPE_HEADER,
            capacity: PIPE_CAPACITY,
        }
    }
}

impl Vnode for PipeVnode {
    fn read(
        &mut self,
        ctx: &mut VfsCtx,
        _fd: &FdRef,
        state: &FdState,
        len: u64,
    ) -> Result<Vec<u8>> {
        if state.kind.is_pipe_write() {
            return Err(UnixError::Unsupported("read from pipe write end"));
        }
        PipeVnode::ring(state).read(ctx, len)
    }

    fn write(
        &mut self,
        ctx: &mut VfsCtx,
        _fd: &FdRef,
        state: &FdState,
        data: &[u8],
    ) -> Result<u64> {
        if !state.kind.is_pipe_write() {
            return Err(UnixError::Unsupported("write to pipe read end"));
        }
        PipeVnode::ring(state).write(ctx, data)
    }

    fn seek(&mut self, _ctx: &mut VfsCtx, _fd: &FdRef, _position: u64) -> Result<()> {
        Err(UnixError::Unsupported("seek on a non-file descriptor"))
    }

    fn on_last_close(&mut self, ctx: &mut VfsCtx, state: &FdState) -> Result<()> {
        if state.kind.is_pipe_write() {
            PipeVnode::ring(state).adjust_writers(ctx, -1)?;
        }
        Ok(())
    }
}

/// Creates a pipe segment inside `container` and returns the descriptor
/// states for its read and write ends.
pub fn create_pipe(ctx: &mut VfsCtx, container: ObjectId) -> Result<(FdState, FdState)> {
    use crate::fdtable::{FdKind, FLAG_RDONLY, FLAG_WRONLY};
    let thread = ctx.thread;
    let kernel = ctx.kernel();
    let pipe_label = kernel
        .thread_label(thread)?
        .drop_ownership(histar_label::Level::L1);
    let pipe_seg = kernel.trap_segment_create(
        thread,
        container,
        pipe_label,
        PIPE_HEADER + PIPE_CAPACITY,
        "pipe",
    )?;
    // Header: read pos = 0, write pos = 0, writers = 1.
    kernel.trap_segment_write(
        thread,
        ContainerEntry::new(container, pipe_seg),
        0,
        &encode_pipe_header(0, 0, 1),
    )?;
    let base = FdState {
        kind: FdKind::PipeRead,
        target: pipe_seg,
        target_container: container,
        position: 0,
        flags: FLAG_RDONLY,
        refs: 1,
    };
    let read_end = base;
    let write_end = FdState {
        kind: FdKind::PipeWrite,
        flags: FLAG_WRONLY,
        ..base
    };
    Ok((read_end, write_end))
}

// -------------------------------------------------------------- console --

/// The console/TTY: writes are transmitted to the boot console device
/// (label-checked by the kernel's device transmit path); reads return
/// end-of-file.
#[derive(Debug)]
pub struct ConsoleVnode {
    device: Option<ObjectId>,
    kroot: ObjectId,
}

impl ConsoleVnode {
    /// A console vnode for the machine's boot console device.
    pub fn new(device: Option<ObjectId>, kroot: ObjectId) -> ConsoleVnode {
        ConsoleVnode { device, kroot }
    }
}

impl Vnode for ConsoleVnode {
    fn read(
        &mut self,
        _ctx: &mut VfsCtx,
        _fd: &FdRef,
        _state: &FdState,
        _len: u64,
    ) -> Result<Vec<u8>> {
        Ok(Vec::new())
    }

    fn write(
        &mut self,
        ctx: &mut VfsCtx,
        _fd: &FdRef,
        _state: &FdState,
        data: &[u8],
    ) -> Result<u64> {
        if let Some(console) = self.device {
            let thread = ctx.thread;
            let entry = ContainerEntry::new(self.kroot, console);
            ctx.kernel()
                .trap_net_transmit(thread, entry, data.to_vec())?;
        }
        Ok(data.len() as u64)
    }

    fn seek(&mut self, _ctx: &mut VfsCtx, _fd: &FdRef, _position: u64) -> Result<()> {
        Err(UnixError::Unsupported("seek on a non-file descriptor"))
    }
}

// -------------------------------------------------------------- sockets --

/// Data capacity of one direction of a socket connection.  Sized so the
/// whole duplex segment (two headers + two data areas) fits in a single
/// page: a connection created with `len = 0` gets a one-page quota, its
/// bytes materialize lazily as data flows, and 10⁴ concurrent idle
/// connections cost 10⁴ × ~48 bytes, not 10⁴ × pages.
pub const SOCK_RING_CAPACITY: u64 = 2000;
/// Offset of the first ring's data area: both headers pack at the front.
const SOCK_DATA_BASE: u64 = 2 * PIPE_HEADER;

/// A connected network socket: one shared *connection segment* holding
/// two [`Ring`]s — ring 0 carries client→server bytes, ring 1
/// server→client — so `read`/`write`/`close` are ordinary label-checked
/// segment operations on whichever ring faces away from the caller.
/// `netd` creates the segment (labelled with its network taint plus the
/// connection's own categories), so every byte moved here is subject to
/// exactly the information-flow rules of §5.7.
///
/// Which side of the connection a descriptor is (and whether it is a
/// listening socket, whose segment is the accept queue) is carried in the
/// descriptor flags, not in the vnode: positions live in the shared
/// segment, the vnode stays stateless.
#[derive(Debug, Default)]
pub struct SocketVnode;

/// Ring `i` (0 = client→server, 1 = server→client) of a connection
/// segment.
fn socket_ring(entry: ContainerEntry, i: u64) -> Ring {
    Ring {
        entry,
        header: i * PIPE_HEADER,
        data: SOCK_DATA_BASE + i * SOCK_RING_CAPACITY,
        capacity: SOCK_RING_CAPACITY,
    }
}

/// The ring a descriptor *receives* from.
pub fn socket_rx_ring(state: &FdState) -> Ring {
    use crate::fdtable::FLAG_SOCK_SERVER;
    let i = if state.flags & FLAG_SOCK_SERVER != 0 {
        0
    } else {
        1
    };
    socket_ring(pipe_entry(state), i)
}

/// The ring a descriptor *transmits* into.
pub fn socket_tx_ring(state: &FdState) -> Ring {
    use crate::fdtable::FLAG_SOCK_SERVER;
    let i = if state.flags & FLAG_SOCK_SERVER != 0 {
        1
    } else {
        0
    };
    socket_ring(pipe_entry(state), i)
}

impl Vnode for SocketVnode {
    fn read(
        &mut self,
        ctx: &mut VfsCtx,
        _fd: &FdRef,
        state: &FdState,
        len: u64,
    ) -> Result<Vec<u8>> {
        use crate::fdtable::FLAG_SOCK_LISTEN;
        if state.flags & FLAG_SOCK_LISTEN != 0 {
            return Err(UnixError::Unsupported("read on a listening socket"));
        }
        socket_rx_ring(state).read(ctx, len)
    }

    fn write(
        &mut self,
        ctx: &mut VfsCtx,
        _fd: &FdRef,
        state: &FdState,
        data: &[u8],
    ) -> Result<u64> {
        use crate::fdtable::FLAG_SOCK_LISTEN;
        if state.flags & FLAG_SOCK_LISTEN != 0 {
            return Err(UnixError::Unsupported("write on a listening socket"));
        }
        socket_tx_ring(state).write(ctx, data)
    }

    fn seek(&mut self, _ctx: &mut VfsCtx, _fd: &FdRef, _position: u64) -> Result<()> {
        Err(UnixError::Unsupported("seek on a non-file descriptor"))
    }

    fn on_last_close(&mut self, ctx: &mut VfsCtx, state: &FdState) -> Result<()> {
        use crate::fdtable::FLAG_SOCK_LISTEN;
        if state.flags & FLAG_SOCK_LISTEN == 0 {
            // Hang up our transmit direction: the peer's next read sees
            // end-of-file instead of blocking forever.
            socket_tx_ring(state).adjust_writers(ctx, -1)?;
        }
        Ok(())
    }
}

/// What `poll` must read to decide this descriptor's readiness, when
/// readiness is ring-derived: `(header offset within the target segment,
/// ring capacity, write side?)`.  `None` means the descriptor is always
/// ready (files, console, pseudo-files).  One `PIPE_HEADER`-byte read at
/// the returned offset — batchable across descriptors — fully decides
/// readiness; no data moves.
pub fn readiness_probe(state: &FdState) -> Option<(u64, u64, bool)> {
    use crate::fdtable::{FdKind, FLAG_SOCK_LISTEN};
    match state.kind {
        FdKind::PipeRead => Some((0, PIPE_CAPACITY, false)),
        FdKind::PipeWrite => Some((0, PIPE_CAPACITY, true)),
        FdKind::Socket if state.flags & FLAG_SOCK_LISTEN != 0 => {
            // The accept queue is ring 0 of its segment.
            Some((0, crate::net_queue::QUEUE_CAPACITY, false))
        }
        FdKind::Socket => {
            let rx = socket_rx_ring(state);
            Some((rx.header_offset(), rx.capacity, false))
        }
        _ => None,
    }
}

/// Decides readiness from a probed ring header: a read side is ready when
/// bytes are buffered or every writer hung up (EOF is readable); a write
/// side is ready when the ring has free space.
pub fn readiness_from_header(header: &[u8], capacity: u64, write_side: bool) -> bool {
    let (rpos, wpos, writers) = decode_pipe_header(header);
    if write_side {
        capacity - (wpos - rpos) > 0
    } else {
        wpos > rpos || writers == 0
    }
}

/// Initializes a fresh connection segment's two ring headers (one writer
/// each — the two peers).  The segment itself is created by the caller
/// (netd), which chooses its label and container; created with `len = 0`,
/// only these 48 header bytes materialize until data actually flows.
pub fn init_socket_segment(ctx: &mut VfsCtx, entry: ContainerEntry) -> Result<()> {
    let thread = ctx.thread;
    let mut headers = encode_pipe_header(0, 0, 1);
    headers.extend(encode_pipe_header(0, 0, 1));
    ctx.kernel()
        .trap_segment_write(thread, entry, 0, &headers)?;
    Ok(())
}

// ---------------------------------------------------- durability helper --

/// Serializes one kernel object into the single-level store and syncs it
/// (the `fsync` primitive shared by path-level and descriptor-level
/// sync).  `pages` are pages of a segment's bytes, which the encoding
/// places last, after the object header.
pub fn sync_object_to_store(machine: &mut Machine, id: ObjectId, pages: Option<&[u64]>) {
    if let Some(obj) = machine.kernel().raw_object(id) {
        let bytes = encode_object(obj);
        let base = match &obj.body {
            ObjectBody::Segment(seg) => (bytes.len() - seg.bytes.len()) as u64,
            _ => 0,
        };
        let store = machine.store_mut();
        store.put(id.raw(), bytes);
        match pages {
            Some(pages) => {
                if store.sync_pages_in_place(id.raw(), base, pages).is_err() {
                    store.sync_object(id.raw());
                }
            }
            None => store.sync_object(id.raw()),
        }
    }
}
