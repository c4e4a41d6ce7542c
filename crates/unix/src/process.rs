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

impl ExitStatus {
    /// Encodes the status into the 8 bytes stored in the exit segment.
    pub fn encode(self) -> [u8; 8] {
        let (tag, code) = match self {
            ExitStatus::Exited(c) => (0u32, c),
            ExitStatus::Signaled(s) => (1u32, s),
        };
        let mut out = [0u8; 8];
        out[..4].copy_from_slice(&tag.to_le_bytes());
        out[4..].copy_from_slice(&code.to_le_bytes());
        out
    }

    /// Decodes a status written by [`ExitStatus::encode`].
    pub fn decode(bytes: &[u8]) -> Option<ExitStatus> {
        if bytes.len() < 8 {
            return None;
        }
        let tag = u32::from_le_bytes(bytes[..4].try_into().ok()?);
        let code = i32::from_le_bytes(bytes[4..8].try_into().ok()?);
        match tag {
            0 => Some(ExitStatus::Exited(code)),
            1 => Some(ExitStatus::Signaled(code)),
            _ => None,
        }
    }

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
    /// Signal handlers installed by the process: signal number → handler id.
    pub signal_handlers: Vec<(u64, u64)>,
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

    /// True if the process is still running.
    pub fn is_running(&self) -> bool {
        self.state == ProcessState::Running
    }

    /// Records a signal handler (replacing any previous handler for the
    /// same signal).
    pub fn set_signal_handler(&mut self, signal: u64, handler: u64) {
        self.signal_handlers.retain(|(s, _)| *s != signal);
        self.signal_handlers.push((signal, handler));
    }

    /// Looks up the handler for a signal.
    pub fn signal_handler(&self, signal: u64) -> Option<u64> {
        self.signal_handlers
            .iter()
            .find(|(s, _)| *s == signal)
            .map(|(_, h)| *h)
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
            assert_eq!(ExitStatus::decode(&s.encode()), Some(s));
        }
        assert_eq!(ExitStatus::decode(&[1, 2]), None);
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
            signal_handlers: Vec::new(),
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

    #[test]
    fn signal_handler_registry() {
        let mut p = sample_process();
        assert_eq!(p.signal_handler(15), None);
        p.set_signal_handler(15, 0x1000);
        p.set_signal_handler(9, 0x2000);
        assert_eq!(p.signal_handler(15), Some(0x1000));
        p.set_signal_handler(15, 0x3000);
        assert_eq!(p.signal_handler(15), Some(0x3000));
        assert_eq!(p.signal_handlers.len(), 2);
    }

    #[test]
    fn lifecycle_flags() {
        let mut p = sample_process();
        assert!(p.is_running());
        p.state = ProcessState::Zombie(ExitStatus::Exited(3));
        assert!(!p.is_running());
    }
}
