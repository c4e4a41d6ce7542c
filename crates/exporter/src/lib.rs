//! DStar-style exporters: label-checked RPC across multiple HiStar nodes.
//!
//! The paper makes every information flow on *one* machine explicit; this
//! crate extends the guarantee across the (simulated) network, following the
//! design the paper's self-certifying netd/taint structure foreshadows and
//! DStar later built:
//!
//! * **Global names** ([`GlobalCategory`]) — a category leaves its home
//!   machine as `(exporter public-key hash, local id)`.  The name is
//!   self-certifying: it pins the only exporter entitled to speak for the
//!   category, so two kernels that have never met agree on what a label
//!   means without a trusted naming authority.
//! * **Translation** — each exporter keeps a private bidirectional table
//!   between local categories and global names; the kernel knows nothing
//!   about other machines.  The exporter binds only categories it was
//!   *granted* ownership of (through a kernel-checked gate) or shadows it
//!   created, levels are copied verbatim, and bindings are write-once, so
//!   translation is a partial bijection that can never weaken a label (no
//!   taint laundering).
//! * **Delegation** ([`DelegationCert`]) — exercising ownership (`⋆`) of a
//!   category from another node requires a certificate minted by the
//!   category's home exporter.  Without it, the receiving exporter grants
//!   nothing and the receiving *kernel* refuses the tunneled gate call.
//! * **Tunneled gate calls** ([`Fabric::remote_call`]) — a call crosses as a
//!   serialized [`RpcMessage`] behind netd (picking up the `i` taint
//!   discipline of §5.7), is re-labelled on arrival, and enters the service
//!   gate through a worker thread whose label the receiving kernel checks
//!   exactly as it would a local caller's.  No flow is exempt from the
//!   label lattice on either machine.
//!
//! The [`Fabric`] joins several independent [`Machine`](histar_kernel::Machine)s
//! over a [`Topology`](histar_sim::Topology) with per-link latency and cost,
//! standing in for the physical network.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exporter;
pub mod fabric;
pub mod wire;

pub use exporter::{Exporter, Handler, RemoteReply, RemoteService};
pub use fabric::{Fabric, Node};
pub use wire::{DelegationCert, ErrorCode, ExporterId, GlobalCategory, GlobalLabel, RpcMessage};

use histar_unix::UnixError;

/// Errors raised by the exporter subsystem.
#[derive(Debug)]
pub enum ExporterError {
    /// A local Unix-library or kernel error.
    Unix(UnixError),
    /// A kernel label check refused the call — on the receiving node this is
    /// the kernel's verdict on the tunneled gate call; on the calling node it
    /// arrives as an error reply.
    RemoteLabelCheck(String),
    /// A delegation certificate was forged, mangled, or issued to someone
    /// else.
    BadCertificate(String),
    /// The caller holds no delegation for a remote category it claims.
    MissingDelegation(String),
    /// The caller claimed a category its thread does not own.
    NotOwner(String),
    /// A label names a category whose owner has not entrusted it to the
    /// exporter; the data cannot leave the machine.
    NotExportable(String),
    /// No such remote service.
    UnknownService(String),
    /// A malformed or unexpected wire message.
    Protocol(String),
    /// The call produced no reply.
    NoReply,
}

impl ExporterError {
    /// The wire error class for this failure (receiving side).
    pub fn wire_code(&self) -> ErrorCode {
        match self {
            ExporterError::RemoteLabelCheck(_) => ErrorCode::LabelCheck,
            ExporterError::BadCertificate(_) | ExporterError::MissingDelegation(_) => {
                ErrorCode::BadCertificate
            }
            ExporterError::UnknownService(_) => ErrorCode::UnknownService,
            ExporterError::NotExportable(_) => ErrorCode::NotExportable,
            _ => ErrorCode::Internal,
        }
    }

    /// Reconstructs the failure from a wire error reply (calling side).
    pub fn from_wire(code: ErrorCode, message: String) -> ExporterError {
        match code {
            ErrorCode::LabelCheck => ExporterError::RemoteLabelCheck(message),
            ErrorCode::BadCertificate => ExporterError::BadCertificate(message),
            ErrorCode::UnknownService => ExporterError::UnknownService(message),
            ErrorCode::NotExportable => ExporterError::NotExportable(message),
            ErrorCode::Internal => ExporterError::Protocol(message),
        }
    }

    /// True if the failure is a kernel label check saying no — locally or on
    /// the remote node.
    pub fn is_label_check(&self) -> bool {
        matches!(self, ExporterError::RemoteLabelCheck(_))
    }
}

impl From<UnixError> for ExporterError {
    fn from(e: UnixError) -> ExporterError {
        ExporterError::Unix(e)
    }
}

impl From<histar_kernel::syscall::SyscallError> for ExporterError {
    fn from(e: histar_kernel::syscall::SyscallError) -> ExporterError {
        ExporterError::Unix(UnixError::Kernel(e))
    }
}

impl core::fmt::Display for ExporterError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ExporterError::Unix(e) => write!(f, "{e}"),
            ExporterError::RemoteLabelCheck(m) => write!(f, "kernel label check refused: {m}"),
            ExporterError::BadCertificate(m) => write!(f, "bad delegation certificate: {m}"),
            ExporterError::MissingDelegation(m) => write!(f, "missing delegation: {m}"),
            ExporterError::NotOwner(m) => write!(f, "claim without ownership: {m}"),
            ExporterError::NotExportable(m) => write!(f, "not exportable: {m}"),
            ExporterError::UnknownService(m) => write!(f, "unknown service: {m}"),
            ExporterError::Protocol(m) => write!(f, "protocol error: {m}"),
            ExporterError::NoReply => write!(f, "no reply"),
        }
    }
}

impl std::error::Error for ExporterError {}
