//! HiStar-rs: a user-space reproduction of the HiStar operating system
//! (*Making Information Flow Explicit in HiStar*, OSDI 2006).
//!
//! This facade crate re-exports every subsystem of the reproduction so that
//! examples, integration tests and downstream users can depend on a single
//! crate:
//!
//! * [`label`] — Asbestos-style labels, categories and the flow lattice.
//! * [`sim`] — deterministic simulation substrate (clock, disk, cost model).
//! * [`store`] — single-level store: object map, extent allocator,
//!   write-ahead log, checkpoints.
//! * [`kernel`] — the six kernel object types and the system-call surface.
//! * [`unix`] — the untrusted user-level Unix emulation library.
//! * [`net`] — netd, the simulated network device, and VPN isolation.
//! * [`obs`] — label-aware observability: metrics registry, histograms,
//!   flight-recorder span tracing.
//! * [`exporter`] — DStar-style exporters: label-checked RPC across nodes.
//! * [`auth`] — the decentralized user-authentication service.
//! * [`httpd`] — the §6.1 label-isolated web server: launcher, per-user
//!   workers, blocking sockets under load.
//! * [`apps`] — wrap/ClamAV-style scanner isolation and workloads.
//! * [`baseline`] — monolithic Unix-model comparators used by benchmarks.
//!
//! # Quickstart
//!
//! ```
//! use histar::prelude::*;
//!
//! // Boot a machine: kernel + single-level store over a simulated disk.
//! let mut machine = Machine::boot(MachineConfig::default());
//! let ktid = machine.kernel_thread();
//!
//! // Allocate a category; the calling thread becomes its owner.
//! let cat = machine.kernel_mut().trap_create_category(ktid).unwrap();
//! assert!(machine.kernel().thread_label(ktid).unwrap().owns(cat));
//! ```

pub use histar_apps as apps;
pub use histar_auth as auth;
pub use histar_baseline as baseline;
pub use histar_exporter as exporter;
pub use histar_httpd as httpd;
pub use histar_kernel as kernel;
pub use histar_label as label;
pub use histar_net as net;
pub use histar_obs as obs;
pub use histar_sim as sim;
pub use histar_store as store;
pub use histar_unix as unix;

pub mod prelude;
