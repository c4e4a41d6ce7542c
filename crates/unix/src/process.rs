//! Processes as user-space conventions (§5.2, Figure 6).
//!
//! A HiStar process is not a kernel object; it is a *convention* built from
//! kernel objects: a process container exposing the process's external
//! interface (signal gate, exit-status segment), an internal container
//! holding everything private (address space, text/heap/stack segments, file
//! descriptor segments), and a pair of categories `pr`/`pw` protecting the
//! process's secrecy and integrity.
//!
//! The record kept here holds ids and paths, never a label: what a
//! process's thread holds lives in the kernel's thread object and nowhere
//! else, and the library asks for it (`self_get_label`) when it needs it.

use crate::fdtable::FdTable;
use histar_kernel::object::ObjectId;
use histar_label::{Category, Label, Level};
use histar_store::codec::{DecodeError, Decoder, Encoder, Wire};

/// A process identifier (a Unix-library notion, not a kernel one).
pub type Pid = u64;

/// How a process terminated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExitStatus {
    /// The process called `exit` with the given code.
    Exited(i32),
    /// The process was terminated by the given signal number.
    Signaled(i32),
}

/// The 8 bytes of the exit segment: a `u32` tag (0 exited, 1 signaled)
/// and the `i32` code.  The child writes them, so any other tag is
/// [`DecodeError::BadValue`].
impl Wire<'_> for ExitStatus {
    const SIZE: usize = 8;

    fn put(&self, e: &mut Encoder) {
        let (tag, code) = match *self {
            ExitStatus::Exited(c) => (0, c),
            ExitStatus::Signaled(s) => (1, s),
        };
        e.put_u32(tag).put_u32(code as u32);
    }

    fn get(d: &mut Decoder<'_>, (): ()) -> Result<ExitStatus, DecodeError> {
        let (tag, code) = (d.get_u32()?, d.get_u32()? as i32);
        match tag {
            0 => Ok(ExitStatus::Exited(code)),
            1 => Ok(ExitStatus::Signaled(code)),
            _ => Err(DecodeError::BadValue),
        }
    }
}

impl ExitStatus {
    /// True if the process exited normally with status zero.
    pub fn success(self) -> bool {
        self == ExitStatus::Exited(0)
    }
}

/// Lifecycle state of a process as tracked by the Unix library.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProcessState {
    /// The process is running (its thread is runnable).
    Running,
    /// The process has exited but has not been waited on.
    Zombie(ExitStatus),
    /// The process has been waited on and its resources reclaimed.
    Reaped,
}

/// The Unix library's bookkeeping for one process.
#[derive(Clone, Debug)]
pub struct Process {
    /// The process identifier.
    pub pid: Pid,
    /// Parent process, if any.
    pub parent: Option<Pid>,
    /// The user this process runs as, if any.
    pub user: Option<String>,
    /// Category protecting the process's secrecy (`pr`).
    pub read_cat: Category,
    /// Category protecting the process's integrity (`pw`).
    pub write_cat: Category,
    /// The externally visible process container, labelled `{pw 0, 1}`.
    pub process_container: ObjectId,
    /// The internal container, labelled `{pr 3, pw 0, 1}`.
    pub internal_container: ObjectId,
    /// The process's (single) thread.
    pub thread: ObjectId,
    /// The process's address space object.
    pub address_space: ObjectId,
    /// The exit-status segment, labelled `{pw 0, 1}`.
    pub exit_segment: ObjectId,
    /// The signal gate, labelled `{pr ⋆, pw ⋆, 1}`.
    pub signal_gate: ObjectId,
    /// Text segment (the loaded executable image).
    pub text_segment: ObjectId,
    /// Heap segment.
    pub heap_segment: ObjectId,
    /// Stack segment.
    pub stack_segment: ObjectId,
    /// Path of the executable this process is running.
    pub executable: String,
    /// Open file descriptors.
    pub fds: FdTable,
    /// Current working directory (an absolute path).
    pub cwd: String,
    /// Lifecycle state.
    pub state: ProcessState,
}

impl Process {
    /// The label of the process container and exit segment: `{pw 0, 1}`.
    pub fn external_label(&self) -> Label {
        Label::builder().set(self.write_cat, Level::L0).build()
    }

    /// The label of the internal container and private segments:
    /// `{pr 3, pw 0, 1}`.
    pub fn internal_label(&self) -> Label {
        Label::builder()
            .set(self.read_cat, Level::L3)
            .set(self.write_cat, Level::L0)
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_status_round_trip() {
        for s in [
            ExitStatus::Exited(0),
            ExitStatus::Exited(42),
            ExitStatus::Exited(-1),
            ExitStatus::Signaled(9),
        ] {
            assert_eq!(ExitStatus::decode(&s.encode()), Ok(s));
        }
        assert_eq!(ExitStatus::decode(&[1, 2]), Err(DecodeError::UnexpectedEnd));
        assert!(ExitStatus::Exited(0).success());
        assert!(!ExitStatus::Exited(1).success());
        assert!(!ExitStatus::Signaled(0).success());
    }

    fn sample_process() -> Process {
        Process {
            pid: 7,
            parent: Some(1),
            user: Some("bob".to_string()),
            read_cat: Category::from_raw(10),
            write_cat: Category::from_raw(11),
            process_container: ObjectId::from_raw(100),
            internal_container: ObjectId::from_raw(101),
            thread: ObjectId::from_raw(102),
            address_space: ObjectId::from_raw(103),
            exit_segment: ObjectId::from_raw(104),
            signal_gate: ObjectId::from_raw(105),
            text_segment: ObjectId::from_raw(106),
            heap_segment: ObjectId::from_raw(107),
            stack_segment: ObjectId::from_raw(108),
            executable: "/bin/true".to_string(),
            fds: FdTable::new(),
            cwd: "/".to_string(),
            state: ProcessState::Running,
        }
    }

    #[test]
    fn figure6_labels() {
        let p = sample_process();
        // The thread a process is born with owns its `pr`/`pw`.
        let thread = Label::builder().own(p.read_cat).own(p.write_cat).build();

        // Other processes can read the exit status but not write it.
        let external = p.external_label();
        let stranger = Label::unrestricted();
        assert!(stranger.can_observe(&external));
        assert!(!stranger.can_modify(&external));
        assert!(thread.can_modify(&external));

        // The internal container is invisible to strangers.
        let internal = p.internal_label();
        assert!(!stranger.can_observe(&internal));
        assert!(thread.can_modify(&internal));
    }
}
