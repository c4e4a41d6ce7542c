//! Networking for the HiStar reproduction: `netd` and VPN isolation.
//!
//! HiStar's network stack runs entirely in user space (§5.7): a `netd`
//! process owns the network device's read/write categories (`nr`, `nw`) and
//! exposes socket operations to other processes; everything received from
//! the network is tainted in a category `i`, so network data cannot affect
//! system files unless an owner of `i` explicitly untaints it.  §6.3 builds
//! VPN isolation on the same idea with a second category `v` for the
//! private network.
//!
//! The stack itself is deliberately minimal — the paper uses lwIP and we
//! only need the label behaviour — but the structure is the paper's: a
//! device object with a taint label, an untrusted daemon owning the device
//! categories, and clients whose ability to reach the network is decided
//! purely by the kernel's label checks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use histar_kernel::bodies::DeviceBody;
use histar_kernel::object::{ContainerEntry, ObjectId};
use histar_kernel::Syscall;
use histar_label::{Category, Label, Level};
use histar_store::codec::{DecodeError, Decoder, Encoder, Wire};
use histar_unix::fdtable::{
    FdKind, FdState, FLAG_NONBLOCK, FLAG_RDONLY, FLAG_SOCK_LISTEN, FLAG_SOCK_SERVER,
};
use histar_unix::net_queue::{self, ConnHandoff};
use histar_unix::process::Pid;
use histar_unix::vnode;
use histar_unix::{gatecall, Fd, UnixEnv, UnixError};

/// Result alias for networking operations.
pub type Result<T> = core::result::Result<T, UnixError>;

/// The user-level network daemon and its device.
///
/// The device is labelled `{nr 3, nw 0, i 2, 1}`: only owners of `nr`/`nw`
/// (netd) may drive it, and everything read from it carries taint `i 2`.
#[derive(Clone, Copy, Debug)]
pub struct Netd {
    /// The netd process.
    pub pid: Pid,
    /// The network device object.
    pub device: ObjectId,
    /// Category restricting who may read the device (`nr`).
    pub nr: Category,
    /// Category restricting who may write the device (`nw`).
    pub nw: Category,
    /// Category tainting all data received from this network (`i`).
    pub taint: Category,
    /// Container entry through which netd names the device.
    pub device_entry: ContainerEntry,
    /// Transmit buffer shared between clients and netd, labelled `{i 2, 1}`.
    pub tx_buffer: ContainerEntry,
    /// Receive buffer netd publishes incoming frames in, labelled `{i 2, 1}`.
    pub rx_buffer: ContainerEntry,
    /// Container holding accept queues and connection segments, labelled
    /// `{i 2, 1}` so the (tainted) netd can create objects in it and any
    /// `i`-tainted peer can name entries through it.
    pub conns: ObjectId,
}

/// A listening socket, as returned by [`Netd::listen`].
#[derive(Clone, Copy, Debug)]
pub struct Listener {
    /// The server's listening descriptor (accept on this).
    pub fd: Fd,
    /// The accept-queue segment — what clients pass to [`Netd::connect`]
    /// (in a real stack this is the address/port they dial).
    pub queue: ContainerEntry,
    /// The listener's guard category: the acceptor owns it, and every
    /// per-connection grant gate netd pre-creates pins it to `0` in the
    /// gate clearance, so nobody else can enter those gates and steal a
    /// connection's categories while it waits in the queue.
    pub guard: Category,
}

/// One accepted connection, as returned by [`Netd::accept`].
#[derive(Clone, Copy, Debug)]
pub struct Accepted {
    /// The server-side connection descriptor.
    pub fd: Fd,
    /// The connection's receive-taint category (the paper's `ssl_r`):
    /// level 3 in the connection label, so only its owners may observe
    /// the connection's bytes.
    pub taint_cat: Category,
    /// The connection's write-protect category (the paper's `ssl_w`):
    /// level 0 in the connection label, so only its owners may write the
    /// connection.
    pub write_cat: Category,
}

impl Netd {
    /// Starts a network daemon: spawns the netd process, allocates the
    /// `nr`/`nw`/`i` categories on its thread, and attaches a network
    /// device labelled `{nr 3, nw 0, i 2, 1}`.
    ///
    /// `name` distinguishes multiple stacks (e.g. `"internet"` / `"vpn"`).
    pub fn start(env: &mut UnixEnv, parent: Pid, name: &str) -> Result<Netd> {
        // The network taint category belongs to the boot environment (the
        // parent), matching the paper: "the bootstrap procedure already
        // labels the network device to taint anything received from the
        // Internet {i 2, 1}".  netd itself never owns it.
        let parent_thread = env.process(parent)?.thread;
        let taint = env
            .machine_mut()
            .kernel_mut()
            .trap_create_category(parent_thread)?;

        // netd is born tainted `i 2` (Figure 11): it can eavesdrop on or
        // tamper with packets, but cannot leak tainted data anywhere
        // untainted — "a compromised netd can only mount the equivalent
        // of a network eavesdropping or packet tampering attack".
        // Spawning it pre-tainted (rather than raising its label later)
        // also labels its own containers `.. i 2 ..`, so the tainted
        // daemon can still create grant gates and connection state.
        let pid = env.spawn_with_label(
            parent,
            &format!("/sbin/netd-{name}"),
            vec![],
            vec![(taint, Level::L2)],
        )?;
        let thread = env.process(pid)?.thread;
        let kroot = env.machine().kernel().root_container();
        let kernel = env.machine_mut().kernel_mut();
        let nr = kernel.trap_create_category(thread)?;
        let nw = kernel.trap_create_category(thread)?;
        let label = Label::builder()
            .set(nr, Level::L3)
            .set(nw, Level::L0)
            .set(taint, Level::L2)
            .build();
        // The kernel "discovers" the device at netd start in this
        // reproduction; on real hardware it exists from boot and netd is
        // granted its categories by the administrator's boot environment.
        let device = kernel.boot_create_device(
            kroot,
            label,
            DeviceBody::network([0x52, 0x54, 0, 0, 0, 1]),
            &format!("nic-{name}"),
        )?;
        // Shared packet buffers, tainted like the network itself.
        let buffer_label = Label::builder().set(taint, Level::L2).build();
        let kernel = env.machine_mut().kernel_mut();
        let tx_buffer = kernel.trap_segment_create(
            parent_thread,
            kroot,
            buffer_label.clone(),
            64 * 1024,
            &format!("netd-{name} tx"),
        )?;
        let rx_buffer = kernel.trap_segment_create(
            parent_thread,
            kroot,
            buffer_label.clone(),
            64 * 1024,
            &format!("netd-{name} rx"),
        )?;
        // Connection state lives in its own container, tainted like the
        // network: netd (itself `i 2`) creates accept queues and
        // connection segments here, and any `i`-tainted peer can name
        // them through it.  Sized for a 10⁴-connection burst (each idle
        // connection segment charges one page of quota).
        let conns = kernel.trap_container_create(
            parent_thread,
            kroot,
            buffer_label,
            &format!("netd-{name} conns"),
            0,
            256 * 1024 * 1024,
        )?;
        let device_entry = ContainerEntry::new(kroot, device);
        let tx_entry = ContainerEntry::new(kroot, tx_buffer);
        let rx_entry = ContainerEntry::new(kroot, rx_buffer);
        Ok(Netd {
            pid,
            device,
            nr,
            nw,
            taint,
            device_entry,
            tx_buffer: tx_entry,
            rx_buffer: rx_entry,
            conns,
        })
    }

    /// Spawns a process pre-tainted `i 2` — the right birth label for
    /// anything that will speak sockets.  A process tainted from birth
    /// carries the taint on its own containers, so it can still maintain
    /// descriptor state after reading from the network; a process that
    /// raises the taint later cannot create new descriptors.
    pub fn spawn_tainted(&self, env: &mut UnixEnv, parent: Pid, executable: &str) -> Result<Pid> {
        env.spawn_with_label(parent, executable, vec![], vec![(self.taint, Level::L2)])
    }

    /// Raises `pid`'s taint to `i 2` if it neither owns `i` nor already
    /// carries it — the label cost of looking at network data.
    fn ensure_net_taint(&self, env: &mut UnixEnv, pid: Pid) -> Result<()> {
        let thread = env.process(pid)?.thread;
        let kernel = env.machine_mut().kernel_mut();
        let label = kernel.trap_self_get_label(thread)?;
        if !label.owns(self.taint) && label.level(self.taint).as_low() < Level::L2.as_low() {
            kernel.trap_self_set_label(thread, label.with(self.taint, Level::L2))?;
        }
        Ok(())
    }

    /// Creates a listening socket for `server`: netd allocates an accept
    /// queue in its connections container and the server gets a
    /// descriptor for it (`FLAG_SOCK_LISTEN`).  Returns the listener; the
    /// queue entry inside it is the "address" clients connect to.
    ///
    /// The server should be spawned via [`Netd::spawn_tainted`] (or
    /// otherwise carry taint `i 2` from birth).
    pub fn listen(&self, env: &mut UnixEnv, server: Pid) -> Result<Listener> {
        let netd_thread = env.process(self.pid)?.thread;
        let kernel = env.machine_mut().kernel_mut();
        let queue_label = Label::builder().set(self.taint, Level::L2).build();
        let queue = kernel.trap_segment_create(
            netd_thread,
            self.conns,
            queue_label,
            net_queue::QUEUE_SEGMENT_LEN,
            "accept queue",
        )?;
        let queue_entry = ContainerEntry::new(self.conns, queue);
        {
            let mut ctx = env.vfs_ctx(netd_thread);
            net_queue::init_queue_segment(&mut ctx, queue_entry)?;
        }
        self.ensure_net_taint(env, server)?;
        // The listener's guard category: netd keeps `⋆` (one per
        // listener), the server gains `⋆` through an ordinary grant, and
        // every pending connection's grant gate demands it at `0`.
        let guard = {
            let netd_thread = env.process(self.pid)?.thread;
            env.machine_mut()
                .kernel_mut()
                .trap_create_category(netd_thread)?
        };
        gatecall::grant_categories(env, self.pid, server, &[guard])?;
        let fd = env.install_descriptor(
            server,
            FdState {
                kind: FdKind::Socket,
                target: queue,
                target_container: self.conns,
                position: 0,
                flags: FLAG_SOCK_LISTEN | FLAG_RDONLY,
                refs: 1,
            },
        )?;
        Ok(Listener {
            fd,
            queue: queue_entry,
            guard,
        })
    }

    /// Connects `client` to a listening socket (§6.1's connection setup):
    /// netd mints the two per-connection categories (`ssl_r`/`ssl_w`),
    /// creates the connection segment labelled
    /// `{i 2, ssl_r 3, ssl_w 0, 1}`, grants both categories to the
    /// client through a gate, pre-creates the (guarded) grant gate the
    /// acceptor will enter, and enqueues the handoff.  netd then *sheds*
    /// its own ownership of the two categories: a daemon that kept `⋆`
    /// for every connection it ever set up would grow its label without
    /// bound, and every label check it makes scales with that size.
    /// Returns the client-side descriptor.
    pub fn connect(&self, env: &mut UnixEnv, client: Pid, listener: &Listener) -> Result<Fd> {
        let queue = listener.queue;
        let netd_thread = env.process(self.pid)?.thread;
        let kernel = env.machine_mut().kernel_mut();
        let c_r = kernel.trap_create_category(netd_thread)?;
        let c_w = kernel.trap_create_category(netd_thread)?;
        let conn_label = Label::builder()
            .set(self.taint, Level::L2)
            .set(c_r, Level::L3)
            .set(c_w, Level::L0)
            .build();
        // Length 0: the two ring headers and the data bytes materialize
        // lazily inside the segment's one-page quota, so 10⁴ idle
        // connections cost ~48 bytes of memory each.
        let conn = kernel.trap_segment_create(netd_thread, self.conns, conn_label, 0, "conn")?;
        let conn_entry = ContainerEntry::new(self.conns, conn);
        {
            let mut ctx = env.vfs_ctx(netd_thread);
            vnode::init_socket_segment(&mut ctx, conn_entry)?;
        }
        self.ensure_net_taint(env, client)?;
        gatecall::grant_categories(env, self.pid, client, &[c_r, c_w])?;
        let fd = env.install_descriptor(
            client,
            FdState {
                kind: FdKind::Socket,
                target: conn,
                target_container: self.conns,
                position: 0,
                flags: 0,
                refs: 1,
            },
        )?;
        // The acceptor runs later, so its grant rides a pre-created gate
        // (in the roomy connections container, not netd's own), guarded
        // by the listener's category so nobody else can enter it.
        let grant_gate = gatecall::create_grant_gate(
            env,
            self.pid,
            self.conns,
            &[c_r, c_w],
            Some(listener.guard),
        )?;
        let mut ctx = env.vfs_ctx(netd_thread);
        let queued = net_queue::enqueue(
            &mut ctx,
            queue,
            &ConnHandoff {
                container: self.conns,
                segment: conn,
                taint_cat: c_r.raw(),
                write_cat: c_w.raw(),
                grant_gate: grant_gate.object,
            },
        );
        // Connection state is set up and both grants are arranged: netd
        // renounces the pair, keeping its own label O(1) — also when the
        // queue refused the handoff.
        gatecall::drop_categories(env, self.pid, &[c_r, c_w])?;
        queued?;
        Ok(fd)
    }

    /// Accepts the next pending connection on a listening descriptor.
    ///
    /// Returns `Ok(None)` when the queue is empty and the descriptor is
    /// blocking: a readiness watch is registered on the queue segment, so
    /// the caller should block its thread and retry after the wake-up —
    /// `accept(2)` semantics.  With `O_NONBLOCK` set, an empty queue is
    /// [`UnixError::WouldBlock`] instead.  On success the server is
    /// granted the connection's two categories and gets a server-side
    /// descriptor.
    pub fn accept(
        &self,
        env: &mut UnixEnv,
        server: Pid,
        listen_fd: Fd,
    ) -> Result<Option<Accepted>> {
        let state = env.fd_snapshot(server, listen_fd)?;
        if state.kind != FdKind::Socket || state.flags & FLAG_SOCK_LISTEN == 0 {
            return Err(UnixError::Kernel(
                histar_kernel::syscall::SyscallError::InvalidArgument(
                    "accept on a non-listening descriptor",
                ),
            ));
        }
        self.ensure_net_taint(env, server)?;
        let server_thread = env.process(server)?.thread;
        // Drain stale wake-ups so a watch registered below is the only
        // notification outstanding.
        env.machine_mut()
            .kernel_mut()
            .reap_completions(server_thread);
        let queue = ContainerEntry::new(state.target_container, state.target);
        let handoff = {
            let mut ctx = env.vfs_ctx(server_thread);
            match net_queue::dequeue(&mut ctx, queue) {
                Ok(handoff) => handoff,
                Err(UnixError::WouldBlock) if state.flags & FLAG_NONBLOCK == 0 => {
                    ctx.kernel().trap_segment_watch(server_thread, queue)?;
                    return Ok(None);
                }
                Err(e) => return Err(e),
            }
        };
        let taint_cat = Category::from_raw(handoff.taint_cat);
        let write_cat = Category::from_raw(handoff.write_cat);
        gatecall::enter_grant_gate(
            env,
            self.pid,
            ContainerEntry::new(handoff.container, handoff.grant_gate),
            server,
            &[taint_cat, write_cat],
        )?;
        let fd = env.install_descriptor(
            server,
            FdState {
                kind: FdKind::Socket,
                target: handoff.segment,
                target_container: handoff.container,
                position: 0,
                flags: FLAG_SOCK_SERVER,
                refs: 1,
            },
        )?;
        Ok(Some(Accepted {
            fd,
            taint_cat,
            write_cat,
        }))
    }

    /// Transmits a payload on behalf of a client process.
    ///
    /// The client's thread writes the payload into netd's (untainted)
    /// transmit buffer segment, and netd's own thread — which owns `nr`/`nw`
    /// and runs tainted `i 2` — moves it onto the device.  The first step is
    /// an ordinary kernel write check, so a client tainted in any category
    /// the buffer is not (the isolated virus scanner, a `v`-tainted VPN
    /// application) is refused by the kernel: its data cannot reach the
    /// wire.
    pub fn send(&self, env: &mut UnixEnv, client: Pid, payload: &[u8]) -> Result<()> {
        let client_thread = env.process(client)?.thread;
        let netd_thread = env.process(self.pid)?.thread;
        let kernel = env.machine_mut().kernel_mut();
        // The client's side is one submission batch: the taint raise (the
        // paper's web browser runs at `{i 2, 1}`, unless it owns `i`) and
        // the write that conveys the payload to netd.
        let label = kernel.trap_self_get_label(client_thread)?;
        let mut client_calls = Vec::with_capacity(2);
        if !label.owns(self.taint) && label.level(self.taint).as_low() < Level::L2.as_low() {
            client_calls.push(Syscall::SelfSetLabel {
                label: label.with(self.taint, Level::L2),
            });
        }
        client_calls.push(Syscall::SegmentWrite {
            entry: self.tx_buffer,
            offset: 0,
            data: payload.encode().into(),
        });
        for r in kernel.submit_calls(client_thread, client_calls) {
            r?;
        }
        // netd drains its buffer onto the device.  The payload read cannot
        // share the length read's batch (user-level data dependency), but
        // the transmit is driven by kernel state the read established, so
        // read and transmit stay one trap apart at most.
        let len = message_len(&kernel.trap_segment_read(netd_thread, self.tx_buffer, 0, 8)?)?;
        let frame = kernel.trap_segment_read(netd_thread, self.tx_buffer, 8, len)?;
        kernel.trap_net_transmit(netd_thread, self.device_entry, frame)?;
        Ok(())
    }

    /// Receives the next pending frame for a client.
    ///
    /// netd's thread takes the frame off the device and publishes it in the
    /// receive buffer segment, which is labelled `{i 2, 1}`; the client must
    /// therefore taint itself `i 2` (up to its clearance) to observe it —
    /// unless it owns `i`, like the VPN client.  The taint sticks: network
    /// input cannot silently flow into untainted system files afterwards.
    pub fn recv(&self, env: &mut UnixEnv, client: Pid) -> Result<Option<Vec<u8>>> {
        let client_thread = env.process(client)?.thread;
        let netd_thread = env.process(self.pid)?.thread;
        let kernel = env.machine_mut().kernel_mut();
        let Some(frame) = kernel.trap_net_receive(netd_thread, self.device_entry)? else {
            return Ok(None);
        };
        // netd publishes the frame in the {i 2, 1} receive buffer.
        kernel.trap_segment_write(netd_thread, self.rx_buffer, 0, &frame.as_slice().encode())?;
        // The client's taint raise (if it does not own i) and its length
        // read share one submission batch; only the payload read, whose
        // size is computed user-side from the length, needs a second trap.
        let label = kernel.trap_self_get_label(client_thread)?;
        let mut client_calls = Vec::with_capacity(2);
        if !label.owns(self.taint) && label.level(self.taint).as_low() < Level::L2.as_low() {
            client_calls.push(Syscall::SelfSetLabel {
                label: label.with(self.taint, Level::L2),
            });
        }
        client_calls.push(Syscall::SegmentRead {
            entry: self.rx_buffer,
            offset: 0,
            len: 8,
        });
        let mut results = kernel.submit_calls(client_thread, client_calls);
        let header = results.pop().expect("one completion per submitted call");
        for earlier in results {
            earlier?;
        }
        let len = message_len(&header?.into_bytes())?;
        let data = kernel.trap_segment_read(client_thread, self.rx_buffer, 8, len)?;
        Ok(Some(data))
    }

    /// Encodes several messages into one wire frame (`count` then
    /// length-prefixed messages).  Exporters batch RPC messages this way so
    /// the per-frame costs of the device and the wire are paid once per
    /// batch instead of once per message.
    pub fn encode_batch(payloads: &[Vec<u8>]) -> Vec<u8> {
        Batch(payloads.iter().map(Vec::as_slice).collect()).encode()
    }

    /// Decodes a frame written by [`Netd::encode_batch`], lending its
    /// messages.  Frames come off the wire, so a count the frame cannot
    /// hold, a length past its end, or bytes after the last message are a
    /// [`DecodeError`].
    pub fn decode_batch(frame: &[u8]) -> core::result::Result<Vec<&[u8]>, DecodeError> {
        Ok(Batch::decode(frame)?.0)
    }

    /// Transmits several messages as a single wire frame on behalf of a
    /// client, with exactly the same label discipline as [`Netd::send`]: the
    /// client's thread writes the batch into the shared transmit buffer (so
    /// the kernel refuses tainted senders), and netd moves it to the device.
    pub fn send_batch(&self, env: &mut UnixEnv, client: Pid, payloads: &[Vec<u8>]) -> Result<()> {
        self.send(env, client, &Netd::encode_batch(payloads))
    }

    /// Receives the next pending frame for a client and hands each of its
    /// batched messages, lent from the frame, to `each` with the
    /// environment, returning what `each` made of them, in order.  The
    /// client picks up the network taint exactly as with [`Netd::recv`].
    ///
    /// A malformed frame is `UnixError::Corrupt("batch frame")`, and none
    /// of its messages is handed on: a library error distinct from
    /// `Ok(None)` ("nothing pending") — otherwise one garbage frame would
    /// silently end a drain loop with legitimate traffic still queued
    /// behind it.
    pub fn recv_batch<T>(
        &self,
        env: &mut UnixEnv,
        client: Pid,
        mut each: impl FnMut(&mut UnixEnv, &[u8]) -> T,
    ) -> Result<Option<Vec<T>>> {
        let Some(frame) = self.recv(env, client)? else {
            return Ok(None);
        };
        let batch = Netd::decode_batch(&frame).map_err(|_| UnixError::Corrupt("batch frame"))?;
        Ok(Some(batch.into_iter().map(|m| each(env, m)).collect()))
    }

    /// Simulation hook: a frame arrives from the physical wire.
    pub fn wire_deliver(&self, env: &mut UnixEnv, frame: Vec<u8>) -> Result<()> {
        env.machine_mut()
            .kernel_mut()
            .device_inject_rx(self.device, frame)?;
        Ok(())
    }

    /// Simulation hook: frames the machine has put on the physical wire.
    pub fn wire_collect(&self, env: &mut UnixEnv) -> Result<Vec<Vec<u8>>> {
        Ok(env
            .machine_mut()
            .kernel_mut()
            .device_drain_tx(self.device)?)
    }
}

/// The length of the message a transmit or receive buffer holds, from its
/// 8-byte prefix (the message is a [`Wire`] byte string).  Whoever wrote
/// the buffer chose it; a length past the buffer is refused by the read
/// that follows.
fn message_len(head: &[u8]) -> Result<u64> {
    let len = Decoder::new(head).get_u64();
    len.map_err(|_| UnixError::Corrupt("netd buffer"))
}

/// One wire frame of batched messages: a `u32` count, then each message
/// as a length-prefixed byte string, lent from the frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Batch<'a>(pub Vec<&'a [u8]>);

/// Each message needs at least its 8-byte length prefix, so a count the
/// frame cannot hold is [`DecodeError::BadLength`] before anything is
/// allocated.
impl<'a> Wire<'a> for Batch<'a> {
    fn put(&self, e: &mut Encoder) {
        e.put_u32(self.0.len() as u32);
        for m in &self.0 {
            e.put_bytes(m);
        }
    }

    fn get(d: &mut Decoder<'a>, (): ()) -> core::result::Result<Batch<'a>, DecodeError> {
        let count = d.get_u32()?;
        let messages = (0..d.count(count.into(), 8)?).map(|_| d.get_slice());
        Ok(Batch(messages.collect::<core::result::Result<_, _>>()?))
    }
}

/// VPN isolation (§6.3): two network stacks whose taints keep the corporate
/// network and the Internet apart, bridged only by the VPN client, which
/// owns both `i` and `v` and swaps the taints as it encrypts/decrypts.
#[derive(Clone, Copy, Debug)]
pub struct VpnIsolation {
    /// The Internet-facing stack (taints received data `i 2`).
    pub internet: Netd,
    /// The VPN-facing stack (taints received data `v 2`).
    pub vpn: Netd,
    /// The VPN client process, the only owner of both taint categories.
    pub client: Pid,
}

impl VpnIsolation {
    /// Builds the two stacks and the VPN client process.
    pub fn start(env: &mut UnixEnv, parent: Pid) -> Result<VpnIsolation> {
        let internet = Netd::start(env, parent, "internet")?;
        let vpn = Netd::start(env, parent, "vpn")?;
        // The VPN client owns both taint categories so it can move (encrypt
        // / decrypt) data between the two networks.
        let client = env.spawn_with_label(
            parent,
            "/usr/sbin/openvpn",
            vec![internet.taint, vpn.taint],
            vec![],
        )?;
        Ok(VpnIsolation {
            internet,
            vpn,
            client,
        })
    }

    /// The VPN client takes one frame that arrived from the Internet side,
    /// "decrypts" it and delivers it into the VPN stack (swapping taint `i`
    /// for taint `v`).  Returns false if nothing was pending.
    pub fn pump_inbound(&self, env: &mut UnixEnv) -> Result<bool> {
        let Some(frame) = self.internet.recv(env, self.client)? else {
            return Ok(false);
        };
        // "Decrypt" (identity in the simulation) and forward.  The client
        // owns both i and v, so untainting i and retainting v is legal for
        // it and only for it.
        self.vpn.wire_deliver(env, frame)?;
        self.reset_client_label(env)?;
        Ok(true)
    }

    /// The reverse direction: a frame from the VPN side is encrypted and
    /// sent out over the Internet stack.
    pub fn pump_outbound(&self, env: &mut UnixEnv) -> Result<bool> {
        let Some(frame) = self.vpn.recv(env, self.client)? else {
            return Ok(false);
        };
        self.reset_client_label(env)?;
        self.internet.send(env, self.client, &frame)?;
        Ok(true)
    }

    fn reset_client_label(&self, env: &mut UnixEnv) -> Result<()> {
        // The client owns i and v, so it may clear the taint it picked up
        // while reading a device (this is the untainting step of OpenVPN's
        // taint swap).
        let thread = env.process(self.client)?.thread;
        let kernel = env.machine_mut().kernel_mut();
        let owned = kernel
            .trap_self_get_label(thread)?
            .owned_categories()
            .fold(Label::builder(), |b, c| b.own(c))
            .build();
        kernel.trap_self_set_label(thread, owned)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use histar_kernel::syscall::SyscallError;

    fn setup() -> (UnixEnv, Pid, Netd) {
        let mut env = UnixEnv::boot();
        let init = env.init_pid();
        let netd = Netd::start(&mut env, init, "internet").unwrap();
        (env, init, netd)
    }

    #[test]
    fn untainted_client_can_send_and_receive() {
        let (mut env, init, netd) = setup();
        let client = env.spawn(init, "/usr/bin/wget", None).unwrap();
        netd.send(&mut env, client, b"GET / HTTP/1.0").unwrap();
        assert_eq!(
            netd.wire_collect(&mut env).unwrap(),
            vec![b"GET / HTTP/1.0".to_vec()]
        );
        netd.wire_deliver(&mut env, b"200 OK".to_vec()).unwrap();
        assert_eq!(
            netd.recv(&mut env, client).unwrap(),
            Some(b"200 OK".to_vec())
        );
        // After receiving, the client is tainted in i.
        let thread = env.process(client).unwrap().thread;
        let label = env.machine().kernel().thread_label(thread).unwrap();
        assert_eq!(label.level(netd.taint), Level::L2);
    }

    #[test]
    fn batched_frames_round_trip_with_labels_intact() {
        let (mut env, init, netd) = setup();
        let client = env.spawn(init, "/usr/bin/dstar", None).unwrap();
        let msgs = vec![b"call 1".to_vec(), b"call 2".to_vec(), b"call 3".to_vec()];
        netd.send_batch(&mut env, client, &msgs).unwrap();
        let frames = netd.wire_collect(&mut env).unwrap();
        assert_eq!(frames.len(), 1, "a batch is one wire frame");
        netd.wire_deliver(&mut env, frames[0].clone()).unwrap();
        let got = netd.recv_batch(&mut env, client, |_, m| m.to_vec());
        let got = got.unwrap().unwrap();
        assert_eq!(got, msgs);
        // The batch path taints the receiving client like any other read
        // from the network.
        let thread = env.process(client).unwrap().thread;
        let label = env.machine().kernel().thread_label(thread).unwrap();
        assert_eq!(label.level(netd.taint), Level::L2);
        // A malformed frame is a decode error rather than garbage, and
        // receiving one is the library's error, not the kernel's.
        assert_eq!(Netd::decode_batch(b"xx"), Err(DecodeError::UnexpectedEnd));
        assert_eq!(
            Netd::decode_batch(&[1, 0, 0, 0]),
            Err(DecodeError::BadLength)
        );
        netd.wire_deliver(&mut env, b"xx".to_vec()).unwrap();
        let err = netd.recv_batch(&mut env, client, |_, _| ()).unwrap_err();
        assert_eq!(err, UnixError::Corrupt("batch frame"));
        assert_eq!(netd.recv_batch(&mut env, client, |_, _| ()), Ok(None));
    }

    #[test]
    fn refused_taint_raise_keeps_payload_off_the_wire() {
        // A batch does not stop on errors, so when a client's taint raise
        // is refused (clearance in `i` below L2 — the mechanism for
        // denying network access), the batched SegmentWrite still
        // *executes* — but the kernel's own per-call write check refuses
        // the still-untainted client, so nothing reaches the buffer or
        // the wire.  This pins down that batching never weakens a check.
        let (mut env, init, netd) = setup();
        let client = env.spawn(init, "/usr/bin/lowclear", None).unwrap();
        let thread = env.process(client).unwrap().thread;
        let kernel = env.machine_mut().kernel_mut();
        let lowered = kernel
            .thread_clearance(thread)
            .unwrap()
            .with(netd.taint, Level::L1);
        kernel.trap_self_set_clearance(thread, lowered).unwrap();

        let err = netd.send(&mut env, client, b"forbidden").unwrap_err();
        assert!(matches!(err, UnixError::Kernel(_)), "got {err:?}");
        assert!(netd.wire_collect(&mut env).unwrap().is_empty());
        // The tx buffer header is untouched (still zeroed).
        let netd_thread = env.process(netd.pid).unwrap().thread;
        let head = env
            .machine_mut()
            .kernel_mut()
            .trap_segment_read(netd_thread, netd.tx_buffer, 0, 8)
            .unwrap();
        assert_eq!(head, vec![0u8; 8]);
    }

    #[test]
    fn tainted_process_cannot_reach_the_network() {
        let (mut env, init, netd) = setup();
        // A process tainted in a fresh category (like the virus scanner).
        let wrap_thread = env.process(init).unwrap().thread;
        let v = env
            .machine_mut()
            .kernel_mut()
            .trap_create_category(wrap_thread)
            .unwrap();
        let scanner = env
            .spawn_with_label(init, "/usr/bin/clamscan", vec![], vec![(v, Level::L3)])
            .unwrap();
        let err = netd.send(&mut env, scanner, b"exfiltrate").unwrap_err();
        assert!(
            matches!(err, UnixError::Kernel(SyscallError::CannotModify(_))),
            "tainted sends must be refused by the kernel, got {err:?}"
        );
        assert!(netd.wire_collect(&mut env).unwrap().is_empty());
    }

    #[test]
    fn network_taint_blocks_writes_to_protected_files() {
        let (mut env, init, netd) = setup();
        // A protected "system file" writable only by owners of category s.
        let init_thread = env.process(init).unwrap().thread;
        let s = env
            .machine_mut()
            .kernel_mut()
            .trap_create_category(init_thread)
            .unwrap();
        let protected = Label::builder().set(s, Level::L0).build();
        env.write_file_as(init, "/system.conf", b"safe", Some(protected))
            .unwrap();

        // A downloader owning s reads the network, picking up taint i...
        let downloader = env
            .spawn_with_label(init, "/bin/dl", vec![s], vec![])
            .unwrap();
        netd.wire_deliver(&mut env, b"malicious payload".to_vec())
            .unwrap();
        let body = netd.recv(&mut env, downloader).unwrap().unwrap();
        assert_eq!(body, b"malicious payload");
        // ...and can now no longer modify the protected file, even though it
        // owns the file's write category: taint i flows nowhere untainted.
        let err = env.write_file_as(downloader, "/system.conf", &body, None);
        assert!(
            matches!(
                err,
                Err(UnixError::Kernel(SyscallError::CannotModify(_)))
                    | Err(UnixError::Kernel(SyscallError::Label(_)))
            ),
            "trojan-horse write must be refused, got {err:?}"
        );
    }

    #[test]
    fn sockets_connect_accept_and_move_data_both_ways() {
        let (mut env, init, netd) = setup();
        let server = netd.spawn_tainted(&mut env, init, "/sbin/httpd").unwrap();
        let client = netd.spawn_tainted(&mut env, init, "/usr/bin/curl").unwrap();

        let listener = netd.listen(&mut env, server).unwrap();
        // Nothing pending yet: blocking accept parks (registers a watch).
        assert!(netd
            .accept(&mut env, server, listener.fd)
            .unwrap()
            .is_none());

        let cfd = netd.connect(&mut env, client, &listener).unwrap();
        let accepted = netd
            .accept(&mut env, server, listener.fd)
            .unwrap()
            .expect("a connection is pending after connect");

        // Request up, response down.
        assert_eq!(env.write(client, cfd, b"GET /index").unwrap(), 10);
        assert_eq!(
            env.read(server, accepted.fd, 64).unwrap(),
            b"GET /index".to_vec()
        );
        assert_eq!(env.write(server, accepted.fd, b"200 hello").unwrap(), 9);
        assert_eq!(env.read(client, cfd, 64).unwrap(), b"200 hello".to_vec());

        // An empty connection would block (no data, writers alive)...
        assert_eq!(env.read(client, cfd, 64), Err(UnixError::WouldBlock));
        // ...and turns to EOF when the peer closes.
        env.close(server, accepted.fd).unwrap();
        assert_eq!(env.read(client, cfd, 64).unwrap(), Vec::<u8>::new());
        env.close(client, cfd).unwrap();
    }

    /// The acceptor may write its own queue segment, so the queue's ring
    /// header is input: a hostile one is `Corrupt` for netd's enqueue and
    /// for the acceptor's dequeue, not an arithmetic panic or a wrapped
    /// free-space count, and a refused connect leaves netd's label as it
    /// was.
    #[test]
    fn a_hostile_accept_queue_header_is_corrupt_for_connect_and_accept() {
        let (mut env, init, netd) = setup();
        let server = netd.spawn_tainted(&mut env, init, "/sbin/httpd").unwrap();
        let client = netd.spawn_tainted(&mut env, init, "/usr/bin/curl").unwrap();
        let listener = netd.listen(&mut env, server).unwrap();
        let server_thread = env.process(server).unwrap().thread;
        let netd_thread = env.process(netd.pid).unwrap().thread;
        let netd_label = env.machine().kernel().thread_label(netd_thread).unwrap();
        let queue_capacity = net_queue::QUEUE_CAPACITY;
        for (rpos, wpos) in [(10u64, 5u64), (0, queue_capacity + 1)] {
            let header: Vec<u8> = [rpos, wpos, 1]
                .iter()
                .flat_map(|v| v.to_le_bytes())
                .collect();
            env.kernel_mut()
                .trap_segment_write(server_thread, listener.queue, 0, &header)
                .unwrap();
            assert_eq!(
                netd.connect(&mut env, client, &listener),
                Err(UnixError::Corrupt("ring header"))
            );
            assert!(matches!(
                netd.accept(&mut env, server, listener.fd),
                Err(UnixError::Corrupt("ring header"))
            ));
            let label = env.machine().kernel().thread_label(netd_thread).unwrap();
            assert_eq!(label, netd_label, "netd shed the refused connection's pair");
        }
    }

    /// A queue record is input too: one naming an object or category past
    /// 61 bits is `Corrupt` for the acceptor (it used to panic building
    /// the id).
    #[test]
    fn a_queue_record_past_61_bits_is_corrupt_for_accept() {
        let (mut env, init, netd) = setup();
        let server = netd.spawn_tainted(&mut env, init, "/sbin/httpd").unwrap();
        let listener = netd.listen(&mut env, server).unwrap();
        let server_thread = env.process(server).unwrap().thread;
        let mut queue: Vec<u8> = [0u64, net_queue::QUEUE_ENTRY_LEN, 1]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        queue.extend([0xff; net_queue::QUEUE_ENTRY_LEN as usize]);
        env.kernel_mut()
            .trap_segment_write(server_thread, listener.queue, 0, &queue)
            .unwrap();
        assert!(matches!(
            netd.accept(&mut env, server, listener.fd),
            Err(UnixError::Corrupt("accept-queue record"))
        ));
    }

    #[test]
    fn third_parties_cannot_observe_or_write_a_connection() {
        let (mut env, init, netd) = setup();
        let server = netd.spawn_tainted(&mut env, init, "/sbin/httpd").unwrap();
        let client = netd.spawn_tainted(&mut env, init, "/usr/bin/curl").unwrap();
        // The snoop carries the network taint but owns neither of the
        // connection's categories.
        let snoop = netd
            .spawn_tainted(&mut env, init, "/usr/bin/snoop")
            .unwrap();

        let listener = netd.listen(&mut env, server).unwrap();
        let cfd = netd.connect(&mut env, client, &listener).unwrap();
        let accepted = netd
            .accept(&mut env, server, listener.fd)
            .unwrap()
            .expect("pending connection");
        env.write(client, cfd, b"secret request").unwrap();

        // The snoop reaches the very same descriptor segment (shared with
        // it explicitly) but the kernel refuses both directions: reading
        // needs ownership of the receive-taint category, writing needs
        // ownership of the write-protect category.
        let sfd = env.share_fd(server, accepted.fd, snoop).unwrap();
        let err = env.read(snoop, sfd, 64).unwrap_err();
        assert!(
            matches!(err, UnixError::Kernel(SyscallError::CannotObserve(_))),
            "snoop read must be refused, got {err:?}"
        );
        let err = env.write(snoop, sfd, b"forged response").unwrap_err();
        assert!(
            matches!(
                err,
                UnixError::Kernel(SyscallError::CannotObserve(_))
                    | UnixError::Kernel(SyscallError::CannotModify(_))
            ),
            "snoop write must be refused, got {err:?}"
        );
        // The server still reads the client's bytes intact.
        assert_eq!(
            env.read(server, accepted.fd, 64).unwrap(),
            b"secret request".to_vec()
        );
    }

    #[test]
    fn a_queued_connection_gate_grants_the_pair_and_not_the_device() {
        // netd owns the device's `nr`/`nw`; the gate it queues for the
        // acceptor must not.  A server that enters it asking for `nr ⋆` on
        // top of the connection's pair is refused, and the honest entry
        // `accept` makes leaves the server owning the pair alone.
        let (mut env, init, netd) = setup();
        let server = netd.spawn_tainted(&mut env, init, "/sbin/httpd").unwrap();
        let client = netd.spawn_tainted(&mut env, init, "/usr/bin/curl").unwrap();
        let listener = netd.listen(&mut env, server).unwrap();
        netd.connect(&mut env, client, &listener).unwrap();

        let server_thread = env.process(server).unwrap().thread;
        let handoff = {
            let mut ctx = env.vfs_ctx(server_thread);
            net_queue::dequeue(&mut ctx, listener.queue).unwrap()
        };
        let (c_r, c_w) = (
            Category::from_raw(handoff.taint_cat),
            Category::from_raw(handoff.write_cat),
        );
        let kernel = env.machine_mut().kernel_mut();
        let label = kernel.thread_label(server_thread).unwrap();
        let clearance = kernel.thread_clearance(server_thread).unwrap();
        let pair = label.with(c_r, Level::Star).with(c_w, Level::Star);
        let gate = ContainerEntry::new(handoff.container, handoff.grant_gate);
        let refused = kernel.trap_gate_enter(
            server_thread,
            gate,
            pair.with(netd.nr, Level::Star),
            clearance.with(c_r, Level::L3).with(c_w, Level::L3),
            label.clone(),
        );
        assert!(
            matches!(refused, Err(SyscallError::Label(_))),
            "got {refused:?}"
        );
        assert_eq!(kernel.thread_label(server_thread).unwrap(), label);

        gatecall::enter_grant_gate(&mut env, netd.pid, gate, server, &[c_r, c_w]).unwrap();
        let kernel = env.machine().kernel();
        assert_eq!(kernel.thread_label(server_thread).unwrap(), pair);
    }

    #[test]
    fn vpn_isolates_the_two_networks() {
        let mut env = UnixEnv::boot();
        let init = env.init_pid();
        let vpn = VpnIsolation::start(&mut env, init).unwrap();

        // Traffic arriving from the Internet is delivered to the VPN side
        // only through the client.
        vpn.internet
            .wire_deliver(&mut env, b"encrypted blob".to_vec())
            .unwrap();
        assert!(vpn.pump_inbound(&mut env).unwrap());
        assert!(!vpn.pump_inbound(&mut env).unwrap());

        // A process on the VPN side reads it (tainted v), and cannot then
        // send anything to the Internet.
        let corp_app = env.spawn(init, "/bin/corp-app", None).unwrap();
        let data = vpn.vpn.recv(&mut env, corp_app).unwrap().unwrap();
        assert_eq!(data, b"encrypted blob");
        let err = vpn.internet.send(&mut env, corp_app, b"leak to internet");
        assert!(err.is_err(), "v-tainted data must not reach the Internet");

        // Outbound pumping works for the client itself.
        vpn.vpn
            .wire_deliver(&mut env, b"corp reply".to_vec())
            .unwrap();
        assert!(vpn.pump_outbound(&mut env).unwrap());
        assert_eq!(
            vpn.internet.wire_collect(&mut env).unwrap(),
            vec![b"corp reply".to_vec()]
        );
    }
}
