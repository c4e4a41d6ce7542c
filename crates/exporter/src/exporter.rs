//! The exporter daemon: one per node, it owns the node's end of every
//! cross-machine flow.
//!
//! An exporter is an ordinary untrusted process.  Its power comes entirely
//! from category ownership acquired through label-checked gates:
//!
//! * it owns the netd taint category `i`, so it can accept wire frames
//!   without being permanently tainted by them;
//! * it owns every *exported* local category, because exporting a category
//!   is an explicit grant by the category's owner (DStar's trust statement
//!   "the owner of c trusts exporter E with c", realized as a grant gate);
//! * it owns every *shadow* category it allocates for remote categories,
//!   because it created them — and on this node, the exporter is exactly the
//!   party entitled to speak for remote categories.
//!
//! The bidirectional map between local categories and self-certifying
//! global names is the exporter's own data, as in DStar: the kernel knows
//! nothing about other machines, and what protects the map is that only
//! the exporter's address space holds it.  The kernel's part is the grant
//! gate — the exporter names only categories it was granted (and has seen
//! its own thread own) or shadows it created itself.

use crate::wire::{
    label_to_global, open, peel, public_from_secret, seal, shared_key, DelegationCert, ErrorCode,
    ExporterId, GlobalCategory, GlobalLabel, RpcMessage,
};
use crate::ExporterError;
use histar_kernel::bodies::DeviceBody;
use histar_kernel::object::{ContainerEntry, ObjectId};
use histar_label::{Category, Label, Level};
use histar_net::Netd;
use histar_unix::gatecall::{
    create_service_gate, enter_service_tainted, grant_categories, return_from_service, ServiceGate,
};
use histar_unix::process::{ExitStatus, Pid};
use histar_unix::{UnixEnv, UnixError};
use std::collections::{BTreeMap, HashMap};

type Result<T> = core::result::Result<T, ExporterError>;

/// A service a node makes callable from other nodes: a gate plus the code
/// behind it.  The handler runs on a worker thread whose label the kernel
/// has already vetted; it stands in for the service's program text.
pub struct RemoteService {
    /// The service gate remote calls are tunneled into.
    pub gate: ServiceGate,
    handler: Handler,
}

/// The code behind a remote service: `(env, worker pid, request) → reply`.
pub type Handler = Box<dyn FnMut(&mut UnixEnv, Pid, &[u8]) -> Vec<u8>>;

/// One node's exporter daemon.
pub struct Exporter {
    pid: Pid,
    secret: u64,
    public: u64,
    id: ExporterId,
    device: ObjectId,
    next_export_id: u64,
    next_seq: u64,
    /// Delegation certificates granted *to* this exporter by remote peers.
    certs: Vec<DelegationCert>,
    /// Known peers: identity → public key.  Traffic from (or to) an unknown
    /// peer is refused; peers are introduced out of band (the fabric's
    /// bootstrap, standing in for a key-distribution step).
    peers: HashMap<ExporterId, u64>,
    /// Category translation: local category → global name, write-once.
    names: BTreeMap<Category, GlobalCategory>,
    /// Inverse of `names`; together they are a partial bijection, so a
    /// label translated out and back can never silently change category.
    locals: BTreeMap<GlobalCategory, Category>,
    services: Vec<(String, RemoteService)>,
}

impl core::fmt::Debug for Exporter {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Exporter")
            .field("pid", &self.pid)
            .field("id", &self.id)
            .field("device", &self.device)
            .field(
                "services",
                &self.services.iter().map(|(n, _)| n).collect::<Vec<_>>(),
            )
            .finish()
    }
}

/// A reply delivered to the calling node: a labelled segment holding the
/// payload.  Reading it is subject to the local kernel's label checks — the
/// remote taint arrived with the data.
#[derive(Clone, Copy, Debug)]
pub struct RemoteReply {
    /// Container entry of the reply segment.
    pub entry: ContainerEntry,
    /// Byte length of the payload.
    pub len: u64,
}

impl Exporter {
    /// Starts an exporter on a node: spawns the daemon owning the netd taint
    /// category and registers its kernel-visible endpoint device.
    pub fn start(env: &mut UnixEnv, parent: Pid, netd: &Netd, secret: u64) -> Result<Exporter> {
        let id = ExporterId::from_secret(secret);
        let pid = env.spawn_with_label(parent, "/sbin/exporter", vec![netd.taint], vec![])?;
        let thread = env.process(pid)?.thread;
        let kroot = env.machine().kernel().root_container();
        let kernel = env.machine_mut().kernel_mut();
        // The endpoint device: labelled so only the exporter drives it.
        let er = kernel.trap_create_category(thread)?;
        let ew = kernel.trap_create_category(thread)?;
        let label = Label::builder()
            .set(er, Level::L3)
            .set(ew, Level::L0)
            .build();
        let idb = id.0.to_le_bytes();
        let mac = [0x02, 0xd5, idb[0], idb[1], idb[2], idb[3]];
        let device = kernel
            .boot_create_device(kroot, label, DeviceBody::exporter(mac), "exporter0")
            .map_err(UnixError::from)?;
        Ok(Exporter {
            pid,
            secret,
            public: public_from_secret(secret),
            id,
            device,
            next_export_id: 1,
            next_seq: 1,
            certs: Vec::new(),
            peers: HashMap::new(),
            names: BTreeMap::new(),
            locals: BTreeMap::new(),
            services: Vec::new(),
        })
    }

    /// The exporter's public identity (the hash of its public key).
    pub fn id(&self) -> ExporterId {
        self.id
    }

    /// The exporter daemon's pid.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// The kernel object ID of the exporter endpoint device.
    pub fn device(&self) -> ObjectId {
        self.device
    }

    /// The exporter's secret key.  Only the node's own trusted setup path
    /// uses this (to mint delegation certificates); it never crosses the
    /// wire.
    pub fn secret(&self) -> u64 {
        self.secret
    }

    /// The exporter's public key.
    pub fn public_key(&self) -> u64 {
        self.public
    }

    /// Introduces a peer exporter (identity + public key).  Refused if the
    /// identity does not commit to the key — the identity *is* the key hash.
    pub fn add_peer(&mut self, id: ExporterId, public: u64) -> core::result::Result<(), String> {
        if ExporterId::from_public(public) != id {
            return Err(format!("public key does not hash to {id}"));
        }
        self.peers.insert(id, public);
        Ok(())
    }

    /// Seals a message for a known peer under the pairwise channel key.
    pub fn seal_to(&self, peer: ExporterId, msg: &RpcMessage) -> Result<Vec<u8>> {
        let public = self
            .peers
            .get(&peer)
            .ok_or_else(|| ExporterError::Protocol(format!("unknown peer {peer}")))?;
        Ok(seal(shared_key(self.secret, *public), self.id, msg))
    }

    /// Opens and authenticates an inbound envelope: the claimed sender must
    /// be a known peer and the tag must verify under the pairwise key.
    pub fn open_from(&self, frame: &[u8]) -> Result<(ExporterId, RpcMessage)> {
        let (sender, tag, body) =
            peel(frame).map_err(|e| ExporterError::Protocol(format!("bad envelope: {e}")))?;
        let public = self
            .peers
            .get(&sender)
            .ok_or_else(|| ExporterError::Protocol(format!("unknown sender {sender}")))?;
        let msg = open(shared_key(self.secret, *public), tag, &body).ok_or_else(|| {
            ExporterError::BadCertificate(format!("envelope from {sender} fails authentication"))
        })?;
        Ok((sender, msg))
    }

    /// Installs a delegation certificate granted to this exporter.
    pub fn install_cert(&mut self, cert: DelegationCert) {
        if !self.certs.contains(&cert) {
            self.certs.push(cert);
        }
    }

    /// Registers a service behind an existing gate.
    pub fn register_service(&mut self, name: &str, gate: ServiceGate, handler: Handler) {
        self.services.retain(|(n, _)| n != name);
        self.services
            .push((name.to_string(), RemoteService { gate, handler }));
    }

    /// Registers a service behind a fresh default gate owned by `provider`.
    pub fn register_service_for(
        &mut self,
        env: &mut UnixEnv,
        name: &str,
        provider: Pid,
        handler: Handler,
    ) -> Result<()> {
        let gate = create_service_gate(env, provider, 0x7000, name)?;
        self.register_service(name, gate, handler);
        Ok(())
    }

    // ----- category translation ------------------------------------------

    /// Records `category ↔ global`.  Re-binding the same pair is a no-op;
    /// a category never changes name and a name is claimed by one category
    /// only, which is what makes translation a partial bijection.
    fn bind(&mut self, category: Category, global: GlobalCategory) -> Result<()> {
        match (self.names.get(&category), self.locals.get(&global)) {
            (Some(bound), _) if *bound != global => Err(ExporterError::Protocol(format!(
                "category {category} is already bound to {bound}"
            ))),
            (_, Some(claimant)) if *claimant != category => Err(ExporterError::Protocol(format!(
                "{global} is already bound to category {claimant}"
            ))),
            _ => {
                self.names.insert(category, global);
                self.locals.insert(global, category);
                Ok(())
            }
        }
    }

    /// Exports a category owned by `owner`: the owner grants the exporter
    /// ownership through a gate (the kernel checks the grant), and the
    /// exporter — having seen its own thread own the category — binds it
    /// to a fresh self-certifying global name.
    pub fn export_category(
        &mut self,
        env: &mut UnixEnv,
        owner: Pid,
        category: Category,
    ) -> Result<GlobalCategory> {
        if let Some(&global) = self.names.get(&category) {
            return Ok(global);
        }
        if !owns(env, self.pid, category)? {
            grant_categories(env, owner, self.pid, &[category])?;
            if !owns(env, self.pid, category)? {
                return Err(ExporterError::NotOwner(format!(
                    "the exporter was not granted category {category}"
                )));
            }
        }
        let global = GlobalCategory {
            home: self.id,
            id: self.next_export_id,
        };
        self.next_export_id += 1;
        self.bind(category, global)?;
        Ok(global)
    }

    /// Imports a global category, allocating (and binding) a local shadow
    /// category on first sight.  A name homed at *this* exporter must
    /// already be bound — a self-homed name this node never exported is
    /// forged.
    pub fn import_category(
        &mut self,
        env: &mut UnixEnv,
        global: GlobalCategory,
    ) -> Result<Category> {
        if let Some(&local) = self.locals.get(&global) {
            return Ok(local);
        }
        if global.home == self.id {
            return Err(ExporterError::Protocol(format!(
                "{global} claims this exporter as home but was never exported"
            )));
        }
        let thread = env.process(self.pid)?.thread;
        let shadow = env
            .machine_mut()
            .kernel_mut()
            .trap_create_category(thread)?;
        self.bind(shadow, global)?;
        Ok(shadow)
    }

    /// Translates a local label to global names for the wire.
    ///
    /// Categories without a global name are exported on the fly when
    /// possible: if the exporter already owns the category it just binds a
    /// name; if `auto_export_owner` is given and that process owns the
    /// category, a kernel-checked grant runs first.  Otherwise the label is
    /// not exportable — data tainted in a category whose owner never
    /// authorized the exporter cannot leave the machine.
    pub fn outbound_label(
        &mut self,
        env: &mut UnixEnv,
        label: &Label,
        auto_export_owner: Option<Pid>,
    ) -> Result<GlobalLabel> {
        label_to_global(label, |c| {
            if let Some(&global) = self.names.get(&c) {
                return Ok(global);
            }
            if owns(env, self.pid, c)? {
                return self.export_category(env, self.pid, c);
            }
            match auto_export_owner {
                Some(owner) if owns(env, owner, c)? => self.export_category(env, owner, c),
                _ => Err(ExporterError::NotExportable(format!(
                    "category {c} has no global name and its owner has not authorized this exporter"
                ))),
            }
        })
    }

    /// Translates a wire label into local categories, allocating shadows as
    /// needed.  Levels are copied verbatim: translation can never weaken a
    /// label.
    pub fn import_label(&mut self, env: &mut UnixEnv, label: &GlobalLabel) -> Result<Label> {
        let default = Level::decode(label.default)
            .ok_or_else(|| ExporterError::Protocol("bad default level".into()))?;
        let mut b = Label::builder().default_level(default);
        for (g, bits) in &label.entries {
            let lvl = Level::decode(*bits)
                .ok_or_else(|| ExporterError::Protocol("bad entry level".into()))?;
            if lvl.is_star() {
                // Ownership never rides along inside a data label; it is
                // granted only through verified claims.
                return Err(ExporterError::Protocol(format!(
                    "wire label grants ownership of {g}"
                )));
            }
            let local = self.import_category(env, *g)?;
            b = b.set(local, lvl);
        }
        Ok(b.build())
    }

    // ----- outbound calls --------------------------------------------------

    /// Builds a call message on behalf of `caller`.
    ///
    /// The request payload passes through a segment labelled with the
    /// *declared* request label, written by the caller's own thread — so the
    /// local kernel refuses a caller trying to smuggle data more tainted
    /// than its declaration.  Claims name local categories the caller owns;
    /// claims on remote-homed categories are backed by the delegation
    /// certificates this exporter holds.
    pub fn prepare_call(
        &mut self,
        env: &mut UnixEnv,
        caller: Pid,
        service: &str,
        request: &[u8],
        label: &Label,
        claims: &[Category],
    ) -> Result<RpcMessage> {
        let caller_thread = env.process(caller)?.thread;
        let exporter_thread = env.process(self.pid)?.thread;
        let exporter_container = env.process(self.pid)?.process_container;

        let global_label = self.outbound_label(env, label, Some(caller))?;

        // Claims: the caller must own what it claims, locally and now.
        let mut global_claims = Vec::new();
        let mut certs = Vec::new();
        for &c in claims {
            if !owns(env, caller, c)? {
                return Err(ExporterError::NotOwner(format!(
                    "caller does not own claimed category {c}"
                )));
            }
            let global = self.export_category(env, caller, c)?;
            if global.home != self.id {
                // A remote-homed claim needs the delegation the home
                // exporter granted us; forward it as evidence.
                match self
                    .certs
                    .iter()
                    .find(|cert| cert.category == global && cert.grantee == self.id)
                {
                    Some(cert) => certs.push(*cert),
                    None => {
                        return Err(ExporterError::MissingDelegation(format!(
                            "no delegation certificate held for {global}"
                        )))
                    }
                }
            }
            global_claims.push(global);
        }

        // The declared-label handoff segment: created by the exporter,
        // written by the caller, read back by the exporter.  Both the write
        // and the read are ordinary label-checked system calls.
        let seg = env
            .machine_mut()
            .kernel_mut()
            .trap_segment_create(
                exporter_thread,
                exporter_container,
                label.clone(),
                request.len().max(1) as u64,
                "rpc request",
            )
            .map_err(UnixError::from)?;
        let entry = ContainerEntry::new(exporter_container, seg);
        env.machine_mut()
            .kernel_mut()
            .trap_segment_write(caller_thread, entry, 0, request)
            .map_err(UnixError::from)?;
        // The exporter's read-back and the segment's release cross the
        // boundary as one submission batch (the unref is best-effort).
        let mut results = env.machine_mut().kernel_mut().submit_calls(
            exporter_thread,
            vec![
                histar_kernel::Syscall::SegmentRead {
                    entry,
                    offset: 0,
                    len: request.len() as u64,
                },
                histar_kernel::Syscall::ObjUnref { entry },
            ],
        );
        let payload = results.remove(0).map_err(UnixError::from)?.into_bytes();

        let seq = self.next_seq;
        self.next_seq += 1;
        Ok(RpcMessage::Call {
            seq,
            sender: self.id,
            service: service.to_string(),
            label: global_label,
            claims: global_claims,
            certs,
            payload,
        })
    }

    /// Lands a reply on the calling node: imports the reply label (remote
    /// taint becomes local shadow taint) and materializes the payload in a
    /// segment carrying it.  Whether the caller can read that segment is the
    /// local kernel's decision.
    pub fn land_reply(
        &mut self,
        env: &mut UnixEnv,
        label: &GlobalLabel,
        payload: &[u8],
    ) -> Result<RemoteReply> {
        let local_label = self.import_label(env, label)?;
        let thread = env.process(self.pid)?.thread;
        let container = env.process(self.pid)?.process_container;
        let kernel = env.machine_mut().kernel_mut();
        let seg = kernel
            .trap_segment_create(
                thread,
                container,
                local_label,
                payload.len().max(1) as u64,
                "rpc reply",
            )
            .map_err(UnixError::from)?;
        let entry = ContainerEntry::new(container, seg);
        kernel
            .trap_segment_write(thread, entry, 0, payload)
            .map_err(UnixError::from)?;
        Ok(RemoteReply {
            entry,
            len: payload.len() as u64,
        })
    }

    // ----- inbound dispatch ------------------------------------------------

    /// Authenticates one inbound envelope and dispatches it, returning the
    /// sealed reply — or `None` for frames that fail authentication (an
    /// unauthenticated peer deserves no observable response, not even an
    /// error).
    pub fn open_and_dispatch(&mut self, env: &mut UnixEnv, frame: &[u8]) -> Option<Vec<u8>> {
        let (envelope_sender, msg) = self.open_from(frame).ok()?;
        // A call's inner sender must agree with the authenticated envelope:
        // claims are honored against the party that *proved* it sent this.
        if let RpcMessage::Call { sender, seq, .. } = &msg {
            if *sender != envelope_sender {
                let reply = RpcMessage::Error {
                    seq: *seq,
                    code: ErrorCode::BadCertificate,
                    message: format!(
                        "call claims sender {sender} but the envelope authenticates {envelope_sender}"
                    ),
                };
                return self.seal_to(envelope_sender, &reply).ok();
            }
        }
        let reply = self.dispatch(env, msg);
        self.seal_to(envelope_sender, &reply).ok()
    }

    /// Handles one *authenticated* message, producing the message to send
    /// back.  Callers outside tests should use [`Exporter::open_and_dispatch`],
    /// which verifies the envelope first; this layer trusts its `sender`
    /// fields.
    pub fn dispatch(&mut self, env: &mut UnixEnv, msg: RpcMessage) -> RpcMessage {
        match msg {
            RpcMessage::Call {
                seq,
                sender,
                service,
                label,
                claims,
                certs,
                payload,
            } => match self.handle_call(env, sender, &service, &label, &claims, &certs, &payload) {
                Ok((reply_label, reply)) => RpcMessage::Reply {
                    seq,
                    label: reply_label,
                    payload: reply,
                },
                Err(e) => RpcMessage::Error {
                    seq,
                    code: e.wire_code(),
                    // The class crosses as the code; send only the detail so
                    // the caller-side rewrap does not stack prefixes.
                    message: match e {
                        ExporterError::RemoteLabelCheck(m)
                        | ExporterError::BadCertificate(m)
                        | ExporterError::UnknownService(m)
                        | ExporterError::NotExportable(m) => m,
                        other => other.to_string(),
                    },
                },
            },
            other => RpcMessage::Error {
                seq: 0,
                code: ErrorCode::Internal,
                message: format!("unexpected message: {other:?}"),
            },
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_call(
        &mut self,
        env: &mut UnixEnv,
        sender: ExporterId,
        service: &str,
        label: &GlobalLabel,
        claims: &[GlobalCategory],
        certs: &[DelegationCert],
        payload: &[u8],
    ) -> Result<(GlobalLabel, Vec<u8>)> {
        let service_idx = self
            .services
            .iter()
            .position(|(n, _)| n == service)
            .ok_or_else(|| ExporterError::UnknownService(service.to_string()))?;

        // Re-impose the request's taint locally before anything else sees
        // the data.
        let request_label = self.import_label(env, label)?;
        if request_label.default_level() != Level::L1 {
            return Err(ExporterError::Protocol(
                "non-default request label defaults are not supported".into(),
            ));
        }

        // Sort the claims into granted privileges.  A claim on the sender's
        // own category is honored as such — the self-certifying name pins
        // the home, so the sender is exactly the party entitled to it.  A
        // claim on one of *our* categories requires the delegation
        // certificate we issued; a forged or mangled one is rejected
        // outright, a missing one simply grants nothing and leaves the
        // kernel to refuse the call.
        let mut granted: Vec<Category> = Vec::new();
        for claim in claims {
            let presented = certs.iter().find(|c| c.category == *claim);
            if claim.home == sender {
                granted.push(self.import_category(env, *claim)?);
            } else if claim.home == self.id {
                // Without a certificate the claim is simply unproven and the
                // kernel will have the last word.
                if let Some(cert) = presented {
                    if cert.grantee != sender || !cert.verify(self.secret) {
                        return Err(ExporterError::BadCertificate(format!(
                            "certificate for {claim} does not verify"
                        )));
                    }
                    granted.push(self.import_category(env, *claim)?);
                }
            } else {
                return Err(ExporterError::BadCertificate(format!(
                    "third-party delegation for {claim} is not supported"
                )));
            }
        }

        // A worker process carries the call.  It is born *owning* the local
        // shadows of the request's taint categories (plus the proven
        // claims), exactly as a Figure 7 caller owns the taint category it
        // allocates: ownership is what lets it pass the service gate's
        // clearance, and it is dropped to the tainted level at gate entry,
        // so the service code itself can never untaint the request.
        let taints: Vec<(Category, Level)> = request_label.entries().collect();
        let mut own: Vec<Category> = taints.iter().map(|(c, _)| *c).collect();
        for &g in &granted {
            if !own.contains(&g) {
                own.push(g);
            }
        }
        let worker = env.spawn_with_label(self.pid, "/sbin/exporter-worker", own, vec![])?;
        let result = self.run_worker(env, worker, service_idx, &request_label, payload);
        // Reap the per-call worker whatever happened, so a stream of denied
        // calls cannot accumulate processes.
        let _ = env.exit(worker, ExitStatus::Exited(0));
        let _ = env.wait(self.pid, worker);
        result
    }

    fn run_worker(
        &mut self,
        env: &mut UnixEnv,
        worker: Pid,
        service_idx: usize,
        request_label: &Label,
        payload: &[u8],
    ) -> Result<(GlobalLabel, Vec<u8>)> {
        let exporter_thread = env.process(self.pid)?.thread;
        let exporter_container = env.process(self.pid)?.process_container;

        // The request payload, under its translated label.
        let seg = env
            .machine_mut()
            .kernel_mut()
            .trap_segment_create(
                exporter_thread,
                exporter_container,
                request_label.clone(),
                payload.len().max(1) as u64,
                "rpc request (inbound)",
            )
            .map_err(UnixError::from)?;
        let entry = ContainerEntry::new(exporter_container, seg);

        // Per-call segments are released on every path — a stream of denied
        // calls must not accumulate objects in the exporter's container.
        let mut reply_entry: Option<ContainerEntry> = None;
        let result = self.run_worker_inner(
            env,
            worker,
            service_idx,
            request_label,
            payload,
            entry,
            &mut reply_entry,
        );
        let kernel = env.machine_mut().kernel_mut();
        let mut cleanup = vec![histar_kernel::Syscall::ObjUnref { entry }];
        if let Some(re) = reply_entry {
            cleanup.push(histar_kernel::Syscall::ObjUnref { entry: re });
        }
        // Best-effort release of the per-call segments, one batch.
        let _ = kernel.submit_calls(exporter_thread, cleanup);
        result
    }

    #[allow(clippy::too_many_arguments)]
    fn run_worker_inner(
        &mut self,
        env: &mut UnixEnv,
        worker: Pid,
        service_idx: usize,
        request_label: &Label,
        payload: &[u8],
        entry: ContainerEntry,
        reply_entry_out: &mut Option<ContainerEntry>,
    ) -> Result<(GlobalLabel, Vec<u8>)> {
        let exporter_thread = env.process(self.pid)?.thread;
        let exporter_container = env.process(self.pid)?.process_container;
        let worker_thread = env.process(worker)?.thread;

        env.machine_mut()
            .kernel_mut()
            .trap_segment_write(exporter_thread, entry, 0, payload)
            .map_err(UnixError::from)?;

        // The tunneled gate call.  This is where the receiving kernel
        // decides: the worker's label (request taint plus proven claims)
        // must pass the service gate's clearance exactly as a local caller's
        // would.  At entry the worker's shadow ownership drops to the
        // request's taint levels.
        let gate = self.services[service_idx].1.gate;
        let taint_entries: Vec<(Category, Level)> = request_label.entries().collect();
        let session =
            enter_service_tainted(env, worker, &gate, &taint_entries).map_err(label_refusal)?;

        // The worker reads the request — a label-checked observation.
        let request = match env.machine_mut().kernel_mut().trap_segment_read(
            worker_thread,
            entry,
            0,
            payload.len() as u64,
        ) {
            Ok(r) => r,
            Err(e) => {
                let _ = return_from_service(env, session);
                return Err(label_refusal(UnixError::Kernel(e)));
            }
        };

        let reply = (self.services[service_idx].1.handler)(env, worker, &request);

        return_from_service(env, session)?;

        // The reply is at least as tainted as the request the service read,
        // plus whatever taint the worker picked up along the way.  (The
        // worker regains its shadow ownership on return, but the *reply*
        // keeps the taint: only the category's real owner, back on its home
        // node, decides about untainting.)
        let residual = env
            .machine_mut()
            .kernel_mut()
            .trap_self_get_label(worker_thread)
            .map_err(UnixError::from)?
            .drop_ownership(Level::L1);
        let reply_label = request_label.lub(&residual);
        let reply_seg = env
            .machine_mut()
            .kernel_mut()
            .trap_segment_create(
                exporter_thread,
                exporter_container,
                reply_label.clone(),
                reply.len().max(1) as u64,
                "rpc reply (outbound)",
            )
            .map_err(|e| ExporterError::NotExportable(format!("reply label: {e}")))?;
        let reply_entry = ContainerEntry::new(exporter_container, reply_seg);
        *reply_entry_out = Some(reply_entry);
        env.machine_mut()
            .kernel_mut()
            .trap_segment_write(worker_thread, reply_entry, 0, &reply)
            .map_err(|e| label_refusal(UnixError::Kernel(e)))?;
        // The exporter may read the reply only if every taint category on it
        // was entrusted to it — otherwise the data stays on this machine.
        let reply_bytes = env
            .machine_mut()
            .kernel_mut()
            .trap_segment_read(exporter_thread, reply_entry, 0, reply.len() as u64)
            .map_err(|e| ExporterError::NotExportable(format!("reply not exportable: {e}")))?;
        let global_reply_label = self.outbound_label(env, &reply_label, None).map_err(|e| {
            ExporterError::NotExportable(format!("reply label not exportable: {e}"))
        })?;

        Ok((global_reply_label, reply_bytes))
    }
}

/// Whether `pid`'s thread owns `category` right now.
fn owns(env: &mut UnixEnv, pid: Pid, category: Category) -> Result<bool> {
    let thread = env.process(pid)?.thread;
    Ok(env.kernel_mut().trap_self_get_label(thread)?.owns(category))
}

/// Maps a kernel label refusal to the wire error class that tells the remote
/// caller "the kernel said no", keeping every other failure distinct.
fn label_refusal(e: UnixError) -> ExporterError {
    use histar_kernel::syscall::SyscallError;
    match &e {
        UnixError::Kernel(
            SyscallError::GateClearance(_)
            | SyscallError::CannotObserve(_)
            | SyscallError::CannotModify(_)
            | SyscallError::Label(_)
            | SyscallError::VerifyLabel,
        ) => ExporterError::RemoteLabelCheck(e.to_string()),
        _ => ExporterError::Unix(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fabric;

    #[test]
    fn bind_is_idempotent_write_once_and_one_to_one() {
        let mut fabric = Fabric::new(1);
        let e = &mut fabric.nodes[0].exporter;
        let (c, c2) = (Category::from_raw(7), Category::from_raw(8));
        let home = e.id();
        let (name, other_name) = (
            GlobalCategory { home, id: 7 },
            GlobalCategory { home, id: 8 },
        );
        // The binding resolves both ways.
        e.bind(c, name).unwrap();
        assert_eq!(e.names.get(&c), Some(&name));
        assert_eq!(e.locals.get(&name), Some(&c));
        // Idempotent rebinding is fine; changing the name is not.
        e.bind(c, name).unwrap();
        assert!(matches!(
            e.bind(c, other_name),
            Err(ExporterError::Protocol(_))
        ));
        // A second category cannot claim an already-bound name.
        assert!(matches!(e.bind(c2, name), Err(ExporterError::Protocol(_))));
        // Refusals leave the table as it was.
        assert_eq!(e.names.len(), 1);
        assert_eq!(e.locals.len(), 1);
    }
}
