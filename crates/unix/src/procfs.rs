//! `/proc`: a label-filtered pseudo-filesystem exposing per-process
//! state (pid, labels, descriptor table).
//!
//! The root lists one directory per process, named by PID — PIDs are
//! public information (process containers are linked into the kernel
//! root with public labels), so listing `/proc` always succeeds.
//! Everything *inside* a PID directory is gated by the kernel: before a
//! PID directory or any file in it is looked up, stat'ed or read, procfs
//! issues a label-checked system call against that process's *internal*
//! container (`{pr 3, pw 0, 1}`, Figure 6) on the calling thread.  A
//! caller whose label cannot observe the process — any other process,
//! and in particular a tainted observer poking at an untainted victim —
//! gets `CannotObserve` back from the kernel, not from this library;
//! owning the process's `pr` category (the process itself, or anyone it
//! granted `pr` to through a gate) opens the entry.
//!
//! The file *contents* come from the Unix library's own bookkeeping (the
//! library already knows its processes; the kernel knows only objects),
//! refreshed by [`UnixEnv`](crate::env::UnixEnv) as processes are
//! created, exec'd, and reaped.  Contents are snapshotted at `open`;
//! every subsequent `read` re-runs the label check.

use crate::env::UnixError;
use crate::fdtable::{FdKind, FdState, FLAG_RDONLY};
use crate::fs::{DirEntry, FileStat, OpenFlags};
use crate::process::Pid;
use crate::vfs::{Filesystem, FsNode};
use crate::vnode::{FdRef, VfsCtx, Vnode};
use histar_kernel::dispatch::Syscall;
use histar_kernel::object::{ContainerEntry, ObjectId};
use histar_label::Label;
use std::collections::BTreeMap;

type Result<T> = core::result::Result<T, UnixError>;

/// The per-process state procfs serves, mirrored from the Unix library's
/// process table (kernel-side truth is only reachable through labeled
/// objects; this mirror is plain library data).
#[derive(Clone, Debug)]
pub struct ProcInfo {
    /// The process ID.
    pub pid: Pid,
    /// The parent process, if any.
    pub parent: Option<Pid>,
    /// The user the process runs as, if any.
    pub user: Option<String>,
    /// Path of the running executable.
    pub executable: String,
    /// Lifecycle state (`running`, `zombie`, `reaped`).
    pub state: &'static str,
    /// The process's thread.
    pub thread: ObjectId,
    /// The externally visible process container.
    pub process_container: ObjectId,
    /// The internal container — the object the `/proc` label gate checks
    /// observe against.
    pub internal_container: ObjectId,
    /// Number of open file descriptors.
    pub open_fds: u64,
}

/// Files inside a PID directory, in directory order.
const PID_FILES: [&str; 3] = ["status", "label", "fds"];

const NODE_ROOT: u64 = 0;
/// Node encoding: `pid << 3 | file`, where file 0 is the PID directory
/// itself and files 1.. index [`PID_FILES`].
fn node_of(pid: Pid, file: u64) -> u64 {
    (pid << 3) | file
}

/// The `/proc` filesystem.
#[derive(Debug, Default)]
pub struct ProcFs {
    procs: BTreeMap<Pid, ProcInfo>,
}

impl ProcFs {
    /// Creates an empty procfs.
    pub fn new() -> ProcFs {
        ProcFs::default()
    }

    /// Inserts or refreshes one process's mirrored state.
    pub fn update(&mut self, info: ProcInfo) {
        self.procs.insert(info.pid, info);
    }

    /// Removes a reaped process from the namespace.
    pub fn remove(&mut self, pid: Pid) {
        self.procs.remove(&pid);
    }

    fn info(&self, pid: Pid) -> Result<&ProcInfo> {
        self.procs
            .get(&pid)
            .ok_or_else(|| UnixError::NotFound(format!("{pid}")))
    }

    /// The label gate: a kernel call on the *caller's* thread that
    /// requires observing the process's internal container.  This is
    /// where `/proc` becomes label-filtered — the check is the kernel's,
    /// not this library's.
    fn check_observe(&self, ctx: &mut VfsCtx, pid: Pid) -> Result<()> {
        let internal = self.info(pid)?.internal_container;
        let thread = ctx.thread;
        ctx.kernel().trap_container_list(thread, internal)?;
        Ok(())
    }

    /// Renders one pseudo-file's contents (the open-time snapshot).
    fn render(&self, ctx: &mut VfsCtx, pid: Pid, file: u64) -> Result<Vec<u8>> {
        let info = self.info(pid)?;
        let text = match file {
            1 => {
                let parent = info
                    .parent
                    .map(|p| p.to_string())
                    .unwrap_or_else(|| "-".to_string());
                let user = info.user.as_deref().unwrap_or("-");
                format!(
                    "pid:\t{}\nparent:\t{}\nuser:\t{}\nexe:\t{}\nstate:\t{}\n",
                    info.pid, parent, user, info.executable, info.state
                )
            }
            2 => {
                let thread = ctx.thread;
                let label = ctx.kernel().trap_thread_get_label(
                    thread,
                    ContainerEntry::new(info.process_container, info.thread),
                )?;
                format!("{label}\n")
            }
            3 => format!("open fds:\t{}\n", info.open_fds),
            _ => return Err(UnixError::Corrupt("procfs node encodes no file")),
        };
        Ok(text.into_bytes())
    }
}

impl Filesystem for ProcFs {
    fn fs_name(&self) -> &'static str {
        "procfs"
    }

    fn root_node(&self) -> u64 {
        NODE_ROOT
    }

    fn lookup(&mut self, ctx: &mut VfsCtx, dir: u64, name: &str) -> Result<FsNode> {
        if dir == NODE_ROOT {
            let pid: Pid = name
                .parse()
                .map_err(|_| UnixError::NotFound(name.to_string()))?;
            self.info(pid)?;
            // Entering a PID directory is where the label gate sits.
            self.check_observe(ctx, pid)?;
            return Ok(FsNode {
                node: node_of(pid, 0),
                is_dir: true,
            });
        }
        let pid = dir >> 3;
        self.check_observe(ctx, pid)?;
        let file = PID_FILES
            .iter()
            .position(|f| *f == name)
            .ok_or_else(|| UnixError::NotFound(name.to_string()))?;
        Ok(FsNode {
            node: node_of(pid, file as u64 + 1),
            is_dir: false,
        })
    }

    fn readdir(&mut self, ctx: &mut VfsCtx, dir: u64) -> Result<Vec<DirEntry>> {
        if dir == NODE_ROOT {
            return Ok(self
                .procs
                .keys()
                .map(|pid| DirEntry {
                    name: pid.to_string(),
                    object: ObjectId::from_raw(node_of(*pid, 0)),
                    is_dir: true,
                })
                .collect());
        }
        let pid = dir >> 3;
        self.check_observe(ctx, pid)?;
        Ok(PID_FILES
            .iter()
            .enumerate()
            .map(|(i, f)| DirEntry {
                name: f.to_string(),
                object: ObjectId::from_raw(node_of(pid, i as u64 + 1)),
                is_dir: false,
            })
            .collect())
    }

    fn stat(&mut self, ctx: &mut VfsCtx, _dir: u64, node: FsNode) -> Result<FileStat> {
        let pid = node.node >> 3;
        let file = node.node & 7;
        if node.node != NODE_ROOT {
            self.check_observe(ctx, pid)?;
        }
        let len = if node.is_dir || node.node == NODE_ROOT {
            0
        } else {
            self.render(ctx, pid, file)?.len() as u64
        };
        Ok(FileStat {
            object: ObjectId::from_raw(node.node),
            is_dir: node.is_dir,
            len,
        })
    }

    fn open(
        &mut self,
        ctx: &mut VfsCtx,
        dir: u64,
        name: &str,
        _flags: OpenFlags,
        _label: Option<Label>,
    ) -> Result<(FdState, Box<dyn Vnode>)> {
        let node = self.lookup(ctx, dir, name)?;
        if node.is_dir {
            return Err(UnixError::IsADirectory(name.to_string()));
        }
        let pid = node.node >> 3;
        let file = node.node & 7;
        let content = self.render(ctx, pid, file)?;
        let internal = self.info(pid)?.internal_container;
        let state = FdState {
            kind: FdKind::Proc,
            target: ObjectId::from_raw(node.node),
            target_container: internal,
            position: 0,
            flags: FLAG_RDONLY,
            refs: 1,
        };
        Ok((state, Box::new(ProcVnode { content })))
    }

    fn vnode_from_state(&mut self, ctx: &mut VfsCtx, state: &FdState) -> Result<Box<dyn Vnode>> {
        let pid = state.target.raw() >> 3;
        let file = state.target.raw() & 7;
        self.check_observe(ctx, pid)?;
        let content = self.render(ctx, pid, file)?;
        Ok(Box::new(ProcVnode { content }))
    }

    fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
        self
    }
}

/// An open `/proc` pseudo-file: an open-time snapshot of the rendered
/// text.  Every read re-runs the kernel label check against the
/// process's internal container (named by the descriptor's
/// `target_container`) before serving bytes, batched with the
/// descriptor's seek update.
#[derive(Debug)]
pub struct ProcVnode {
    content: Vec<u8>,
}

impl Vnode for ProcVnode {
    fn read(&mut self, ctx: &mut VfsCtx, fd: &FdRef, state: &FdState, len: u64) -> Result<Vec<u8>> {
        // `len` is untrusted: clamp before any arithmetic can overflow.
        let start = (state.position as usize).min(self.content.len());
        let end = (start as u64)
            .saturating_add(len)
            .min(self.content.len() as u64) as usize;
        // The label gate and the seek update cross the boundary as one
        // batch; the gate must pass before bytes are served.
        let thread = ctx.thread;
        let calls = vec![
            Syscall::ContainerList {
                container: state.target_container,
            },
            fd.position_update(end as u64),
        ];
        let mut results = ctx.kernel().submit_calls(thread, calls).into_iter();
        let gate = results.next().expect("label gate completes");
        let seek = results.next().expect("seek update completes");
        if let Err(e) = gate {
            // Batches have no rollback: undo the optimistic seek update
            // so a denied read does not move the shared position.
            crate::vnode::undo_seek(ctx, fd, state.position);
            return Err(e.into());
        }
        seek?;
        Ok(self.content[start..end].to_vec())
    }

    fn write(
        &mut self,
        _ctx: &mut VfsCtx,
        _fd: &FdRef,
        _state: &FdState,
        _data: &[u8],
    ) -> Result<u64> {
        Err(UnixError::ReadOnly("procfs"))
    }

    fn stat(&mut self, _ctx: &mut VfsCtx, state: &FdState) -> Result<FileStat> {
        Ok(FileStat {
            object: state.target,
            is_dir: false,
            len: self.content.len() as u64,
        })
    }
}
