//! A multi-node testbed: several independent `Machine`s joined by a
//! simulated topology, each running netd and an exporter.
//!
//! The fabric plays the role of the physical network: it moves frames
//! between the nodes' device queues and charges each end's clock with the
//! per-link wire time and per-message CPU cost from the
//! [`Topology`](histar_sim::Topology).  Everything above the wire — netd,
//! the exporters, the workers, the service gates — runs under the nodes' own
//! kernels with ordinary label checks.

use crate::exporter::{Exporter, Handler, RemoteReply};
use crate::wire::{DelegationCert, GlobalCategory, RpcMessage};
use crate::ExporterError;
use histar_kernel::machine::{Machine, MachineConfig};
use histar_label::{Category, Label, Level};
use histar_net::Netd;
use histar_obs::Span;
use histar_unix::gatecall::{create_guarded_service_gate, grant_categories, raise_taint_for};
use histar_unix::process::Pid;
use histar_unix::UnixEnv;

type Result<T> = core::result::Result<T, ExporterError>;

pub use histar_sim::{LinkConfig, Topology};

/// One node of the fabric: a machine with its Unix environment, network
/// daemon and exporter.
pub struct Node {
    /// The node's Unix environment (its own machine, kernel and clock).
    pub env: UnixEnv,
    /// The node's network daemon.
    pub netd: Netd,
    /// The node's exporter daemon.
    pub exporter: Exporter,
}

impl Node {
    /// The node's init pid (convenient for spawning test processes).
    pub fn init(&self) -> Pid {
        self.env.init_pid()
    }
}

/// Start tick for an `rpc` flight-recorder span on a node, `None` when
/// that node's recorder is disabled (the common case — spans must cost
/// nothing then).
fn rpc_span_start(n: &Node) -> Option<u64> {
    let kernel = n.env.machine().kernel();
    kernel
        .recorder()
        .is_enabled()
        .then(|| kernel.now().as_nanos())
}

/// Closes an `rpc` span opened by [`rpc_span_start`]; `seq` carries the
/// message count the phase handled.
fn rpc_span_end(n: &Node, name: &'static str, start: Option<u64>, seq: u64) {
    if let Some(start) = start {
        let kernel = n.env.machine().kernel();
        kernel.recorder().record(Span {
            cat: "rpc",
            name,
            start,
            end: kernel.now().as_nanos(),
            tid: 0,
            seq,
        });
    }
}

/// A set of HiStar nodes joined by a simulated network.
pub struct Fabric {
    /// The nodes, indexed by the topology's node indices.
    pub nodes: Vec<Node>,
    topology: Topology,
}

impl Fabric {
    /// Builds `n` nodes over a fully connected default topology.
    pub fn new(n: usize) -> Fabric {
        Fabric::with_topology(Topology::fully_connected(n))
    }

    /// Builds one node per topology slot.
    pub fn with_topology(topology: Topology) -> Fabric {
        let mut nodes = Vec::with_capacity(topology.nodes());
        for i in 0..topology.nodes() {
            // Distinct seeds per node: category and object IDs are local
            // names and must not be confusable across machines.
            let config = MachineConfig {
                seed: 0x5157_4f53_4f31_3337 ^ ((i as u64 + 1) << 32),
                ..MachineConfig::default()
            };
            let mut env = UnixEnv::on_machine(Machine::boot(config));
            let init = env.init_pid();
            let netd = Netd::start(&mut env, init, &format!("dstar{i}"))
                .expect("netd start cannot fail on a fresh node");
            let exporter = Exporter::start(&mut env, init, &netd, 0xe4b0_17e5 + i as u64)
                .expect("exporter start cannot fail on a fresh node");
            nodes.push(Node {
                env,
                netd,
                exporter,
            });
        }
        // Key distribution: every node learns every peer's public key (the
        // out-of-band introduction a real deployment gets from its PKI).
        let keys: Vec<_> = nodes
            .iter()
            .map(|n| (n.exporter.id(), n.exporter.public_key()))
            .collect();
        for (i, node) in nodes.iter_mut().enumerate() {
            for (j, &(id, public)) in keys.iter().enumerate() {
                if i != j {
                    node.exporter
                        .add_peer(id, public)
                        .expect("fabric-distributed keys are genuine");
                }
            }
        }
        Fabric { nodes, topology }
    }

    /// The fabric's topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Moves every frame currently queued on `from`'s device to `to`'s
    /// device, charging both clocks for the transfer.
    pub fn pump(&mut self, from: usize, to: usize) {
        assert_ne!(from, to, "a node has no link to itself");
        let frames = {
            let node = &mut self.nodes[from];
            node.netd
                .wire_collect(&mut node.env)
                .expect("draining a device cannot fail")
        };
        let link = self.topology.link(from, to);
        for frame in frames {
            let messages = Netd::decode_batch(&frame).map_or(1, |b| b.len()) as u64;
            let wire = self.topology.transfer_time(from, to, frame.len() as u64);
            let cpu = link.per_message_cpu * messages;
            self.nodes[from].env.machine().clock().advance(wire + cpu);
            self.nodes[to].env.machine().clock().advance(wire + cpu);
            let node = &mut self.nodes[to];
            node.netd
                .wire_deliver(&mut node.env, frame)
                .expect("delivering a frame cannot fail");
        }
    }

    /// Lets `node`'s exporter process every pending inbound frame, queueing
    /// reply frames on its device (one reply batch per inbound batch).
    ///
    /// Unauthenticated or undecodable traffic is dropped and the drain
    /// continues — one garbage frame must not wedge the frames behind it.
    pub fn dispatch(&mut self, node: usize) {
        let n = &mut self.nodes[node];
        let exporter_pid = n.exporter.pid();
        let serve_start = rpc_span_start(n);
        let mut served = 0u64;
        loop {
            let exporter = &mut n.exporter;
            let serve = |env: &mut UnixEnv, raw: &[u8]| exporter.open_and_dispatch(env, raw);
            let replies: Vec<Vec<u8>> = match n.netd.recv_batch(&mut n.env, exporter_pid, serve) {
                Ok(Some(replies)) => replies.into_iter().flatten().collect(),
                Ok(None) => break,
                Err(_) => continue, // malformed frame: drop it, keep draining
            };
            served += replies.len() as u64;
            if !replies.is_empty() {
                n.netd
                    .send_batch(&mut n.env, exporter_pid, &replies)
                    .expect("the exporter owns the netd taint category");
            }
        }
        rpc_span_end(n, "serve", serve_start, served);
    }

    // ----- federation setup ------------------------------------------------

    /// Exports a category owned by `owner` on `node`, returning its global
    /// name.
    pub fn export_category(
        &mut self,
        node: usize,
        owner: Pid,
        category: Category,
    ) -> Result<GlobalCategory> {
        let n = &mut self.nodes[node];
        n.exporter.export_category(&mut n.env, owner, category)
    }

    /// Delegates `category` (owned by `owner` on its home node) to another
    /// node's exporter: the owner grants its own exporter the category, the
    /// home exporter mints a delegation certificate for the peer, and the
    /// peer allocates a local shadow category bound to the global name.
    ///
    /// Returns the shadow category on `to` — the name by which that node's
    /// processes exercise the delegated privilege.
    pub fn delegate(
        &mut self,
        home: usize,
        owner: Pid,
        category: Category,
        to: usize,
    ) -> Result<Category> {
        let global = self.export_category(home, owner, category)?;
        let (secret, grantee) = (
            self.nodes[home].exporter.secret(),
            self.nodes[to].exporter.id(),
        );
        let cert = DelegationCert::issue(secret, global, grantee);
        let peer = &mut self.nodes[to];
        let shadow = peer.exporter.import_category(&mut peer.env, global)?;
        peer.exporter.install_cert(cert);
        Ok(shadow)
    }

    /// Grants local processes the use of a shadow category the node's
    /// exporter holds (typically right after [`Fabric::delegate`]).
    pub fn grant_shadow(&mut self, node: usize, to: Pid, shadow: Category) -> Result<()> {
        let n = &mut self.nodes[node];
        let exporter_pid = n.exporter.pid();
        grant_categories(&mut n.env, exporter_pid, to, &[shadow])?;
        Ok(())
    }

    /// Registers a remotely callable service on `node` behind a fresh
    /// default gate owned by `provider`.
    pub fn register_service(
        &mut self,
        node: usize,
        name: &str,
        provider: Pid,
        handler: Handler,
    ) -> Result<()> {
        let n = &mut self.nodes[node];
        n.exporter
            .register_service_for(&mut n.env, name, provider, handler)
    }

    /// Registers a service behind a gate with an explicit clearance — the
    /// way a service demands that callers prove category ownership (e.g.
    /// `{s 0, 2}`: only threads owning `s` may enter).
    pub fn register_gated_service(
        &mut self,
        node: usize,
        name: &str,
        provider: Pid,
        clearance: Label,
        handler: Handler,
    ) -> Result<()> {
        let n = &mut self.nodes[node];
        let gate = create_guarded_service_gate(&mut n.env, provider, 0x7100, name, clearance)?;
        n.exporter.register_service(name, gate, handler);
        Ok(())
    }

    // ----- calls -----------------------------------------------------------

    /// A full label-checked RPC: `caller` on node `from` invokes `service`
    /// on node `to`.
    ///
    /// `label` declares the request payload's label (defaulting to the
    /// caller's current taint); `claims` names local categories whose
    /// ownership the caller wants to exercise remotely.  The reply lands in
    /// a labelled segment on the calling node.
    #[allow(clippy::too_many_arguments)]
    pub fn remote_call(
        &mut self,
        from: usize,
        caller: Pid,
        to: usize,
        service: &str,
        request: &[u8],
        label: Option<Label>,
        claims: &[Category],
    ) -> Result<RemoteReply> {
        let mut replies = self.remote_call_batch(
            from,
            caller,
            to,
            service,
            &[request.to_vec()],
            label,
            claims,
        )?;
        replies.pop().unwrap_or(Err(ExporterError::NoReply))
    }

    /// Batched RPC: several requests to the same service travel (and return)
    /// as a single wire frame, paying the per-frame costs once.
    #[allow(clippy::too_many_arguments)]
    pub fn remote_call_batch(
        &mut self,
        from: usize,
        caller: Pid,
        to: usize,
        service: &str,
        requests: &[Vec<u8>],
        label: Option<Label>,
        claims: &[Category],
    ) -> Result<Vec<Result<RemoteReply>>> {
        let label = match label {
            Some(l) => l,
            None => {
                let thread = self.nodes[from].env.process(caller)?.thread;
                self.nodes[from]
                    .env
                    .kernel_mut()
                    .trap_self_get_label(thread)
                    .map_err(histar_unix::UnixError::from)?
                    .drop_ownership(Level::L1)
            }
        };
        let peer = self.nodes[to].exporter.id();
        let mut encoded = Vec::with_capacity(requests.len());
        let mut seqs = Vec::with_capacity(requests.len());
        {
            let n = &mut self.nodes[from];
            let send_start = rpc_span_start(n);
            for request in requests {
                let msg = n
                    .exporter
                    .prepare_call(&mut n.env, caller, service, request, &label, claims)?;
                if let RpcMessage::Call { seq, .. } = &msg {
                    seqs.push(*seq);
                }
                encoded.push(n.exporter.seal_to(peer, &msg)?);
            }
            let exporter_pid = n.exporter.pid();
            n.netd
                .send_batch(&mut n.env, exporter_pid, &encoded)
                .map_err(ExporterError::Unix)?;
            rpc_span_end(n, "send", send_start, encoded.len() as u64);
        }

        self.pump(from, to);
        self.dispatch(to);
        self.pump(to, from);

        // Collect the reply batch on the calling node.
        let n = &mut self.nodes[from];
        let exporter_pid = n.exporter.pid();
        let recv_start = rpc_span_start(n);
        let mut received = 0u64;
        let mut results: Vec<Option<Result<RemoteReply>>> = (0..seqs.len()).map(|_| None).collect();
        loop {
            let exporter = &n.exporter;
            let opened = match n
                .netd
                .recv_batch(&mut n.env, exporter_pid, |_, raw| exporter.open_from(raw))
            {
                Ok(Some(opened)) => opened,
                Ok(None) => break,
                Err(e) => return Err(ExporterError::Protocol(format!("bad reply frame: {e}"))),
            };
            for opened in opened {
                let (sender, msg) = opened?;
                if sender != peer {
                    return Err(ExporterError::Protocol(format!(
                        "reply authenticated as {sender}, expected {peer}"
                    )));
                }
                match msg {
                    RpcMessage::Reply {
                        seq,
                        label,
                        payload,
                    } => {
                        if let Some(slot) = seqs.iter().position(|s| *s == seq) {
                            received += 1;
                            results[slot] =
                                Some(n.exporter.land_reply(&mut n.env, &label, &payload));
                        }
                    }
                    RpcMessage::Error { seq, code, message } => {
                        if let Some(slot) = seqs.iter().position(|s| *s == seq) {
                            results[slot] = Some(Err(ExporterError::from_wire(code, message)));
                        }
                    }
                    RpcMessage::Call { .. } => {
                        return Err(ExporterError::Protocol(
                            "unexpected call on reply path".into(),
                        ))
                    }
                }
            }
        }
        rpc_span_end(n, "recv", recv_start, received);
        Ok(results
            .into_iter()
            .map(|r| r.unwrap_or(Err(ExporterError::NoReply)))
            .collect())
    }

    /// Reads a landed reply on behalf of `pid`, raising its taint as needed
    /// (bounded by its clearance) — the label that crossed the wire decides
    /// whether this succeeds.
    pub fn read_reply(&mut self, node: usize, pid: Pid, reply: &RemoteReply) -> Result<Vec<u8>> {
        let n = &mut self.nodes[node];
        let seg_label = {
            let thread = n.env.process(n.exporter.pid())?.thread;
            n.env
                .machine_mut()
                .kernel_mut()
                .trap_obj_get_label(thread, reply.entry)
                .map_err(histar_unix::UnixError::from)?
        };
        raise_taint_for(&mut n.env, pid, &seg_label)?;
        let thread = n.env.process(pid)?.thread;
        let bytes = n
            .env
            .machine_mut()
            .kernel_mut()
            .trap_segment_read(thread, reply.entry, 0, reply.len)
            .map_err(histar_unix::UnixError::from)?;
        Ok(bytes)
    }

    /// The label of a landed reply, as seen on the calling node.
    pub fn reply_label(&mut self, node: usize, reply: &RemoteReply) -> Result<Label> {
        let n = &mut self.nodes[node];
        let thread = n.env.process(n.exporter.pid())?.thread;
        Ok(n.env
            .machine_mut()
            .kernel_mut()
            .trap_obj_get_label(thread, reply.entry)
            .map_err(histar_unix::UnixError::from)?)
    }

    /// Round-trips a label from `from` through `to` and back, via the same
    /// translation path RPC labels take.  Used to verify that federation
    /// never launders taint: the result is never weaker than the input.
    pub fn round_trip_label(
        &mut self,
        from: usize,
        to: usize,
        label: &Label,
        owner: Pid,
    ) -> Result<Label> {
        let outbound = {
            let n = &mut self.nodes[from];
            n.exporter.outbound_label(&mut n.env, label, Some(owner))?
        };
        let translated = {
            let n = &mut self.nodes[to];
            n.exporter.import_label(&mut n.env, &outbound)?
        };
        let returned = {
            let n = &mut self.nodes[to];
            n.exporter.outbound_label(&mut n.env, &translated, None)?
        };
        let n = &mut self.nodes[from];
        n.exporter.import_label(&mut n.env, &returned)
    }
}
