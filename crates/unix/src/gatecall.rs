//! The gate-call convention (§5.5, Figure 7).
//!
//! Gates have no implicit return mechanism, so the Unix library implements
//! RPC-style calls as follows: the caller allocates a *return category* `r`
//! and creates a *return gate* (clearance `{r 0, 2}`, so only a thread
//! owning `r` can invoke it) that restores all of the caller's privileges.
//! It then invokes the service gate, granting `r` so the thread can come
//! back.  To keep its arguments private from the service, the caller may
//! additionally allocate a taint category `t` and enter the service tainted
//! `t 3`, donating a resource container labelled `{t 3, r 0, 1}` for any
//! allocations the tainted call needs.
//!
//! The protocol never reads a label off the kernel.  It asks for the
//! calling thread's label and clearance by trap, twice per call — in the
//! batch that allocates `r` (what to come back to) and in the batch that
//! reads the return gate (what the service left) — and derives every other
//! value from what it just set: `create_category` leaves its caller owning
//! the new category with clearance 3 in it, and a gate entry returns the
//! label it installed.  A derived label is only ever presented to
//! `gate_create` / `gate_enter`, which refuse ownership the thread does not
//! hold and labels above its clearance, so a wrong derivation is a refused
//! call, not a flow.  The tests below pin the syscall list of a call and
//! hold each derived value equal to the kernel's own.  A call whose entry
//! the kernel refuses gives back everything it took on the way — `r`, `t`,
//! the return gate, the donated container — before it reports the refusal.
//!
//! The same file packages the one-way use of a gate: a *grant gate*
//! ([`grant_categories`], or [`create_grant_gate`] + [`enter_grant_gate`]
//! when the two sides run at different times) moves ownership of named
//! categories from one thread to another.  Its label is the creator's
//! taint, `⋆` for what it grants and `⋆` for its guard — never the
//! creator's whole label, because the entry rule lets the entering thread
//! ask for every `⋆` a gate's label holds.

use crate::env::{take, UnixEnv, UnixError};
use crate::process::Pid;
use histar_kernel::kernel::GateEntryResult;
use histar_kernel::object::{ContainerEntry, ObjectId};
use histar_kernel::{Kernel, Syscall, SyscallResult};
use histar_label::{Category, Label, Level};

type Result<T> = core::result::Result<T, UnixError>;

/// A service gate exported by a daemon process.
#[derive(Clone, Copy, Debug)]
pub struct ServiceGate {
    /// Container entry through which clients name the gate.
    pub gate: ContainerEntry,
    /// The daemon process that owns the service.
    pub provider: Pid,
}

/// Creates a service gate in a daemon's process container.  The gate label
/// carries the daemon's ownership (its `pr`/`pw` and any user categories),
/// which is what the invoking client thread temporarily gains.
pub fn create_service_gate(
    env: &mut UnixEnv,
    provider: Pid,
    entry_point: u64,
    descrip: &str,
) -> Result<ServiceGate> {
    let (thread, container) = {
        let p = env.process(provider)?;
        (p.thread, p.process_container)
    };
    let kernel = env.machine_mut().kernel_mut();
    let label = kernel.trap_self_get_label(thread)?;
    let gate = kernel.trap_gate_create(
        thread,
        container,
        label,
        Label::default_clearance(),
        None,
        entry_point,
        vec![],
        descrip,
    )?;
    Ok(ServiceGate {
        gate: ContainerEntry::new(container, gate),
        provider,
    })
}

/// State saved across a gate call so the caller can return to itself.
#[derive(Debug)]
pub struct GateSession {
    caller_thread: ObjectId,
    saved_label: Label,
    saved_clearance: Label,
    return_category: Category,
    return_gate: ContainerEntry,
    /// The taint category protecting the caller's arguments, if any.
    pub taint: Option<Category>,
    /// Resource container donated for tainted allocations, if any.
    pub resource_container: Option<ContainerEntry>,
    /// What the kernel handed back when the service gate was entered.
    pub entry: GateEntryResult,
}

/// Invokes a service gate on behalf of `caller`, optionally tainting the
/// call so the service cannot leak the caller's arguments.
///
/// Returns a [`GateSession`] which must be passed to
/// [`return_from_service`] to restore the caller's privileges.
pub fn enter_service(
    env: &mut UnixEnv,
    caller: Pid,
    service: &ServiceGate,
    taint_call: bool,
) -> Result<GateSession> {
    enter_service_inner(env, caller, service, taint_call, &[])
}

/// Invokes a service gate entering *tainted* in pre-existing categories the
/// caller currently owns: the caller's label keeps ownership until the gate
/// entry, at which point the requested label drops each listed category to
/// the given numeric level — the same move a Figure 7 caller makes with its
/// own fresh taint category, generalized to categories allocated elsewhere.
///
/// This is the cross-node plumbing: an exporter worker owns the local
/// shadows of a remote request's taint categories (so the gate's clearance
/// check sees `⋆`, treated low, exactly as for a local caller) and runs the
/// service tainted in them, unable to untaint until the call returns.
pub fn enter_service_tainted(
    env: &mut UnixEnv,
    caller: Pid,
    service: &ServiceGate,
    taint_entries: &[(Category, Level)],
) -> Result<GateSession> {
    enter_service_inner(env, caller, service, false, taint_entries)
}

fn enter_service_inner(
    env: &mut UnixEnv,
    caller: Pid,
    service: &ServiceGate,
    taint_call: bool,
    taint_entries: &[(Category, Level)],
) -> Result<GateSession> {
    let (caller_thread, internal_container, caller_container) = {
        let p = env.process(caller)?;
        (p.thread, p.internal_container, p.process_container)
    };
    let kernel = env.machine_mut().kernel_mut();

    // The label and clearance to come back to, the return category, and —
    // for a private call — the taint category, allocated up front so the
    // return gate's clearance can admit the tainted thread on its way
    // back: one batch.  `create_category` leaves its caller owning the new
    // category with clearance 3 in it, so what the thread holds afterwards
    // is derived here, not read back.
    let mut head = vec![
        Syscall::SelfGetLabel,
        Syscall::SelfGetClearance,
        Syscall::CreateCategory,
    ];
    if taint_call {
        head.push(Syscall::CreateCategory);
    }
    let mut head = kernel.submit_calls(caller_thread, head).into_iter();
    let saved_label = take(&mut head, SyscallResult::into_label)?;
    let saved_clearance = take(&mut head, SyscallResult::into_label)?;
    let return_category = take(&mut head, SyscallResult::into_category)?;
    let taint = taint_call
        .then(|| take(&mut head, SyscallResult::into_category))
        .transpose()?;
    let mut current_label = saved_label.with(return_category, Level::Star);
    let mut current_clearance = saved_clearance.with(return_category, Level::L3);
    if let Some(t) = taint {
        current_label = current_label.with(t, Level::Star);
        current_clearance = current_clearance.with(t, Level::L3);
    }

    // Return gate (Figure 7): label carries everything the caller owns, and
    // the clearance requires the return category to invoke it.
    let mut return_gate_clearance_builder = Label::builder()
        .set(return_category, Level::L0)
        .default_level(Level::L2);
    if let Some(t) = taint {
        return_gate_clearance_builder = return_gate_clearance_builder.set(t, Level::L3);
    }
    for &(c, lvl) in taint_entries {
        return_gate_clearance_builder = return_gate_clearance_builder.set(c, lvl);
    }
    // A caller that is already tainted needs that taint admitted by the
    // return gate too, or the gate cannot even be created (`L_G ⊑ C_G`).
    for (c, lvl) in current_label.entries() {
        if !lvl.is_star() && c != return_category {
            return_gate_clearance_builder = return_gate_clearance_builder.set(c, lvl);
        }
    }
    // The per-call argument spill — the return gate, the donated resource
    // container, and the two reads of the service gate — has no internal
    // data dependencies, so it crosses the trap boundary as ONE submission
    // batch (one trap cost, every label check unchanged).
    let mut spill = vec![Syscall::GateCreate {
        container: caller_container,
        label: current_label.clone(),
        clearance: return_gate_clearance_builder.build(),
        address_space: None,
        entry_point: 0,
        closure_args: vec![],
        descrip: "return gate".to_string(),
    }];
    if let Some(t) = taint {
        let rc_label = Label::builder()
            .set(t, Level::L3)
            .set(return_category, Level::L0)
            .build();
        spill.push(Syscall::ContainerCreate {
            parent: internal_container,
            label: rc_label,
            descrip: "gate call resources".to_string(),
            avoid_types: 0,
            quota: 1 << 20,
        });
    }
    spill.push(Syscall::ObjGetLabel {
        entry: service.gate,
    });
    spill.push(Syscall::GateClearance { gate: service.gate });
    let spilled = kernel.submit_calls(caller_thread, spill);
    // The batch does not stop on errors, so an entry may have created an
    // object even though another failed; release anything the aborted call
    // would orphan, and the `r`/`t` stars of the head batch with it.  The
    // creating entries come first, each beside the container it allocates
    // in; a read's result is never an object id.
    if spilled.iter().any(|r| r.is_err()) {
        let created = spilled
            .iter()
            .zip([caller_container, internal_container])
            .filter_map(|(r, home)| match r {
                Ok(SyscallResult::ObjectId(id)) => Some(ContainerEntry::new(home, *id)),
                _ => None,
            });
        let _ = release_call(
            kernel,
            caller_thread,
            saved_label.clone(),
            saved_clearance.clone(),
            created,
        );
    }
    let mut spilled = spilled.into_iter();
    let return_gate = take(&mut spilled, SyscallResult::into_object_id)?;
    let resource_container = taint
        .map(|_| take(&mut spilled, SyscallResult::into_object_id))
        .transpose()?
        .map(|rc| ContainerEntry::new(internal_container, rc));
    let gate_label = take(&mut spilled, SyscallResult::into_label)?;
    let gate_clearance = take(&mut spilled, SyscallResult::into_label)?;
    // Request label: keep everything we own (including r and t ownership at
    // this point), add the gate's ownership, and drop to taint level 3 in t.
    let mut requested = current_label.ownership_union(&gate_label);
    if let Some(t) = taint {
        requested = requested.with(t, Level::L3);
    }
    for &(c, lvl) in taint_entries {
        requested = requested.with(c, lvl);
    }
    let requested_clearance = current_clearance.lub(&gate_clearance);
    let return_gate = ContainerEntry::new(caller_container, return_gate);
    let entry = match kernel.trap_gate_enter(
        caller_thread,
        service.gate,
        requested,
        requested_clearance,
        saved_label.clone(),
    ) {
        Ok(entry) => entry,
        Err(refused) => {
            // The thread never left: it still holds `r` (and `t`), and the
            // per-call objects exist.  Give all of it back, best-effort —
            // the caller is owed the refusal, not the cleanup's verdict.
            let _ = release_call(
                kernel,
                caller_thread,
                saved_label,
                saved_clearance,
                [Some(return_gate), resource_container]
                    .into_iter()
                    .flatten(),
            );
            return Err(refused.into());
        }
    };

    Ok(GateSession {
        caller_thread,
        saved_label,
        saved_clearance,
        return_category,
        return_gate,
        taint,
        resource_container,
        entry,
    })
}

/// Ends a gate call on the caller's side, as one submission batch: the
/// label and clearance to go back to, then the per-call objects.  The two
/// restorations must succeed; the unrefs are best-effort — a thread that
/// acquired persistent taint during the call may no longer be able to
/// modify its own (untainted) process container, in which case the
/// per-call objects are reclaimed when the process itself is deallocated.
/// This is the paper's §5.8 trade-off — reclaiming tainted resources needs
/// an explicit untainting gate.
fn release_call(
    kernel: &mut Kernel,
    thread: ObjectId,
    label: Label,
    clearance: Label,
    objects: impl Iterator<Item = ContainerEntry>,
) -> Result<()> {
    let mut cleanup = vec![
        Syscall::SelfSetLabel { label },
        Syscall::SelfSetClearance { clearance },
    ];
    cleanup.extend(objects.map(|entry| Syscall::ObjUnref { entry }));
    let results = kernel.submit_calls(thread, cleanup);
    for restore in &results[..2] {
        if let Err(e) = restore {
            return Err(e.clone().into());
        }
    }
    Ok(())
}

/// Returns from a gate call: the thread invokes the return gate (which only
/// holders of the return category can do), regaining the caller's original
/// label and clearance, and the per-call objects are released.
pub fn return_from_service(env: &mut UnixEnv, session: GateSession) -> Result<()> {
    let GateSession {
        caller_thread,
        saved_label,
        saved_clearance,
        return_category,
        return_gate,
        resource_container,
        ..
    } = session;
    let kernel = env.machine_mut().kernel_mut();

    // Invoke the return gate; the floor of the entry label is the union of
    // the current (service-side) ownership and the return gate's ownership,
    // which includes everything the caller originally owned plus r.
    let mut probe = kernel
        .submit_calls(
            caller_thread,
            vec![
                Syscall::ObjGetLabel { entry: return_gate },
                Syscall::SelfGetLabel,
                Syscall::SelfGetClearance,
            ],
        )
        .into_iter();
    let gate_label = take(&mut probe, SyscallResult::into_label)?;
    let current = take(&mut probe, SyscallResult::into_label)?;
    let current_clearance = take(&mut probe, SyscallResult::into_label)?;
    let requested = current.ownership_union(&gate_label);
    let requested_clearance = current_clearance.lub(&saved_clearance);
    let after_return = kernel
        .trap_gate_enter(
            caller_thread,
            return_gate,
            requested,
            requested_clearance,
            current,
        )?
        .label;

    // Back home: drop the per-call categories and objects.  Taint acquired
    // during the call in categories the caller does not own cannot be
    // dropped (that would be an information leak), so the restored label is
    // the saved label raised by any such residual taint.
    let mut restore_label = saved_label.clone();
    let mut restore_clearance = saved_clearance.clone();
    for (c, lvl) in after_return.entries() {
        if lvl.is_star() || after_return.owns(c) {
            continue;
        }
        if lvl.as_low() > saved_label.level(c).as_low() {
            restore_label = restore_label.with(c, lvl);
            if restore_clearance.level(c).as_low() < lvl.as_low() {
                restore_clearance = restore_clearance.with(c, lvl);
            }
        }
    }
    if restore_clearance.level(return_category) == Level::L2 {
        restore_clearance = restore_clearance.without(return_category);
    }
    release_call(
        kernel,
        caller_thread,
        restore_label,
        restore_clearance,
        [Some(return_gate), resource_container]
            .into_iter()
            .flatten(),
    )
}

/// Transfers ownership of `categories` from `from`'s thread to `to`'s thread
/// through a single-use grant gate — the same mechanism the authentication
/// service's grant gate uses (Figure 9), packaged for reuse.
///
/// The kernel checks everything: `from` must actually own the categories
/// (gate creation fails otherwise, since the gate label must satisfy
/// `L_T ⊑ L_G`), and `to` gains exactly the requested `⋆` entries because the
/// gate-entry floor `(L_T^J ⊔ L_G^J)^⋆` admits them.  The gate's label is
/// `from`'s taint plus `⋆` for `categories` and nothing else `from` owns
/// (see [`create_grant_gate`]), so `to` cannot ask for more.  Exporters use
/// this on both sides of a cross-node RPC: a client grants its exporter the
/// categories it exports, and the receiving exporter grants a worker the
/// delegated privileges a remote caller proved it holds.
pub fn grant_categories(
    env: &mut UnixEnv,
    from: Pid,
    to: Pid,
    categories: &[Category],
) -> Result<()> {
    if categories.is_empty() {
        return Ok(());
    }
    let from_container = env.process(from)?.process_container;
    let entry = create_grant_gate(env, from, from_container, categories, None)?;
    enter_grant_gate(env, from, entry, to, categories)
}

/// The creation half of [`grant_categories`], for grants where the two
/// sides run at different times: builds the single-use grant gate in
/// `container` and returns its entry, without anyone entering it yet.
/// netd uses this at connect time — the acceptor only shows up later —
/// and httpd's launcher when it queues a job for a worker.
///
/// A grant gate carries only what it grants.  Its label `L_G` is exactly
///
/// * `from`'s non-`⋆` entries — its taint, which `L_T ⊑ L_G` requires and
///   which the entering thread therefore picks up;
/// * `⋆` for each of `categories`;
/// * `⋆` for `guard`, when there is one (`L_G ⊑ C_G` needs it under the
///   guard's `0`; whoever passes the guard owns it already),
///
/// and its clearance `C_G` is `{categories 3, guard 0, 2}`.  Everything
/// else `from` owns stays out: the entry rule's floor `(L_T^J ⊔ L_G^J)^⋆`
/// lets the entering thread ask for *any* `⋆` the gate's label holds, so a
/// gate built from `from`'s whole label would hand every category `from`
/// owns to whoever entered and asked — netd's `nr`/`nw` to an acceptor, a
/// client's whole label to its exporter.
///
/// A gate that *waits* to be entered is a stealable capability unless it
/// is guarded: passing `guard` pins that category to `0` in the gate's
/// clearance, so only threads owning `guard` pass the kernel's
/// `L_T ⊑ C_G` entry check — everyone else's default `1` is refused.
pub fn create_grant_gate(
    env: &mut UnixEnv,
    from: Pid,
    container: ObjectId,
    categories: &[Category],
    guard: Option<Category>,
) -> Result<ContainerEntry> {
    let from_thread = env.process(from)?.thread;
    let kernel = env.machine_mut().kernel_mut();
    let own = kernel.trap_self_get_label(from_thread)?;
    let mut gate_label = own.drop_ownership(own.default_level());
    let mut gate_clearance = Label::default_clearance();
    for &c in categories {
        gate_label = gate_label.with(c, Level::Star);
        gate_clearance = gate_clearance.with(c, Level::L3);
    }
    if let Some(g) = guard {
        gate_label = gate_label.with(g, Level::Star);
        gate_clearance = gate_clearance.with(g, Level::L0);
    }
    let gate = kernel.trap_gate_create(
        from_thread,
        container,
        gate_label,
        gate_clearance,
        None,
        0,
        vec![],
        "category grant gate",
    )?;
    Ok(ContainerEntry::new(container, gate))
}

/// The entry half of [`grant_categories`]: `to`'s thread enters a grant
/// gate made by [`create_grant_gate`], gaining `⋆` for `categories` while
/// keeping its current label otherwise, and `owner`'s thread unrefs the
/// single-use gate — the creator, or `to` itself where it can write the
/// gate's container (httpd's workers clean up after themselves).
pub fn enter_grant_gate(
    env: &mut UnixEnv,
    owner: Pid,
    entry: ContainerEntry,
    to: Pid,
    categories: &[Category],
) -> Result<()> {
    let owner_thread = env.process(owner)?.thread;
    let to_thread = env.process(to)?.thread;
    let kernel = env.machine_mut().kernel_mut();
    let mut own = kernel
        .submit_calls(
            to_thread,
            vec![Syscall::SelfGetLabel, Syscall::SelfGetClearance],
        )
        .into_iter();
    let verify = take(&mut own, SyscallResult::into_label)?;
    let mut requested = verify.clone();
    let mut requested_clearance = take(&mut own, SyscallResult::into_label)?;
    for &c in categories {
        requested = requested.with(c, Level::Star);
        requested_clearance = requested_clearance.with(c, Level::L3);
    }
    kernel.trap_gate_enter(to_thread, entry, requested, requested_clearance, verify)?;
    // The grant gate is single-use.
    let _ = kernel.trap_obj_unref(owner_thread, entry);
    Ok(())
}

/// Renounces ownership of `categories`: drops their `⋆` from `pid`'s
/// thread label (back to the default `1`) and their `3` from its
/// clearance (back to the default `2`).  Both transitions are ordinary
/// `self_set_label`/`self_set_clearance` calls the kernel validates.
///
/// Long-running daemons must shed per-connection categories once they
/// are handed off, or their labels grow without bound — and every label
/// check they ever make scales with that size.
pub fn drop_categories(env: &mut UnixEnv, pid: Pid, categories: &[Category]) -> Result<()> {
    if categories.is_empty() {
        return Ok(());
    }
    let thread = env.process(pid)?.thread;
    let kernel = env.machine_mut().kernel_mut();
    let mut own = kernel
        .submit_calls(
            thread,
            vec![Syscall::SelfGetLabel, Syscall::SelfGetClearance],
        )
        .into_iter();
    let mut label = take(&mut own, SyscallResult::into_label)?;
    let mut clearance = take(&mut own, SyscallResult::into_label)?;
    for &c in categories {
        label = label.without(c);
        clearance = clearance.without(c);
    }
    kernel.trap_self_set_label(thread, label)?;
    kernel.trap_self_set_clearance(thread, clearance)?;
    Ok(())
}

/// Raises a process's taint so it can observe data labelled `target` —
/// `self_set_label(raise_for_observe)`, bounded by the thread's clearance
/// exactly as the kernel demands.  Cross-node replies arrive in segments
/// carrying translated taint; this is how a client accepts that taint.
pub fn raise_taint_for(env: &mut UnixEnv, pid: Pid, target: &Label) -> Result<()> {
    let thread = env.process(pid)?.thread;
    let kernel = env.machine_mut().kernel_mut();
    let current = kernel.trap_self_get_label(thread)?;
    let raised = current.raise_for_observe(target);
    if raised != current {
        kernel.trap_self_set_label(thread, raised)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use histar_kernel::syscall::SyscallError;

    fn setup() -> (UnixEnv, Pid, Pid, ServiceGate) {
        let mut env = UnixEnv::boot();
        let init = env.init_pid();
        let client = env.spawn(init, "/bin/client", None).unwrap();
        let daemon = env.spawn(init, "/usr/bin/timestampd", None).unwrap();
        let service = create_service_gate(&mut env, daemon, 0x4000, "timestamp service").unwrap();
        (env, init, client, service)
    }

    #[test]
    fn gate_call_grants_and_returns_privilege() {
        let (mut env, _init, client, service) = setup();
        let daemon_pr = env.process(service.provider).unwrap().read_cat;
        let client_pr = env.process(client).unwrap().read_cat;
        let client_thread = env.process(client).unwrap().thread;

        let before = env.machine().kernel().thread_label(client_thread).unwrap();
        assert!(!before.owns(daemon_pr));

        let session = enter_service(&mut env, client, &service, false).unwrap();
        // Inside the service the client's thread owns the daemon's
        // categories (it can act as the daemon) while keeping its own.
        let during = env.machine().kernel().thread_label(client_thread).unwrap();
        assert!(during.owns(daemon_pr));
        assert!(during.owns(client_pr));
        assert_eq!(session.entry.entry_point, 0x4000);

        return_from_service(&mut env, session).unwrap();
        let after = env.machine().kernel().thread_label(client_thread).unwrap();
        assert_eq!(after, before, "the caller gets exactly its old label back");
    }

    #[test]
    fn tainted_gate_call_cannot_write_daemon_state() {
        let (mut env, _init, client, service) = setup();
        let client_thread = env.process(client).unwrap().thread;
        let daemon = env.process(service.provider).unwrap().clone();

        let session = enter_service(&mut env, client, &service, true).unwrap();
        let t = session.taint.unwrap();
        let label = env.machine().kernel().thread_label(client_thread).unwrap();
        assert_eq!(label.level(t), Level::L3, "the call runs tainted in t");

        // Tainted in t, the thread may read the daemon's segments but not
        // modify them: that would leak the caller's data into daemon state.
        let heap_entry = ContainerEntry::new(daemon.internal_container, daemon.heap_segment);
        let kernel = env.machine_mut().kernel_mut();
        assert!(kernel
            .trap_segment_read(client_thread, heap_entry, 0, 8)
            .is_ok());
        assert!(matches!(
            kernel.trap_segment_write(client_thread, heap_entry, 0, b"leak"),
            Err(SyscallError::CannotModify(_))
        ));

        // It can, however, allocate in the donated resource container.
        let rc = session.resource_container.unwrap();
        let scratch_label = Label::builder()
            .set(t, Level::L3)
            .set(
                session.entry.label.owned_categories().next().unwrap_or(t),
                Level::L3,
            )
            .build();
        let _ = scratch_label;
        let tainted_label = Label::builder().set(t, Level::L3).build();
        assert!(kernel
            .trap_segment_create(client_thread, rc.object, tainted_label, 128, "scratch")
            .is_ok());

        return_from_service(&mut env, session).unwrap();
        // Back outside, the caller owns t again and is not tainted.
        let after = env.machine().kernel().thread_label(client_thread).unwrap();
        assert_ne!(after.level(t), Level::L3);
    }

    #[test]
    fn grant_categories_transfers_ownership_via_gate() {
        let mut env = UnixEnv::boot();
        let init = env.init_pid();
        let alice = env.spawn(init, "/bin/alice", None).unwrap();
        let bob = env.spawn(init, "/bin/bob", None).unwrap();
        let alice_thread = env.process(alice).unwrap().thread;
        let bob_thread = env.process(bob).unwrap().thread;
        let c = env
            .machine_mut()
            .kernel_mut()
            .trap_create_category(alice_thread)
            .unwrap();

        assert!(!env
            .machine()
            .kernel()
            .thread_label(bob_thread)
            .unwrap()
            .owns(c));
        grant_categories(&mut env, alice, bob, &[c]).unwrap();
        let label = env.machine().kernel().thread_label(bob_thread).unwrap();
        assert!(label.owns(c));

        // A process that does not own the category cannot grant it: the
        // kernel refuses to create the gate.
        let mallory = env.spawn(init, "/bin/mallory", None).unwrap();
        let victim = env.spawn(init, "/bin/victim", None).unwrap();
        let other_thread = env.process(init).unwrap().thread;
        let d = env
            .machine_mut()
            .kernel_mut()
            .trap_create_category(other_thread)
            .unwrap();
        assert!(grant_categories(&mut env, mallory, victim, &[d]).is_err());
    }

    #[test]
    fn raise_taint_for_permits_reading_tainted_segments() {
        let mut env = UnixEnv::boot();
        let init = env.init_pid();
        let reader = env.spawn(init, "/bin/reader", None).unwrap();
        let init_thread = env.process(init).unwrap().thread;
        let kroot = env.machine().kernel().root_container();
        let kernel = env.machine_mut().kernel_mut();
        let c = kernel.trap_create_category(init_thread).unwrap();
        let secret = Label::builder().set(c, Level::L2).build();
        let seg = kernel
            .trap_segment_create(init_thread, kroot, secret.clone(), 16, "tainted reply")
            .unwrap();
        kernel
            .trap_segment_write(init_thread, ContainerEntry::new(kroot, seg), 0, b"reply")
            .unwrap();

        let reader_thread = env.process(reader).unwrap().thread;
        let entry = ContainerEntry::new(kroot, seg);
        assert!(env
            .machine_mut()
            .kernel_mut()
            .trap_segment_read(reader_thread, entry, 0, 5)
            .is_err());
        raise_taint_for(&mut env, reader, &secret).unwrap();
        assert_eq!(
            env.machine_mut()
                .kernel_mut()
                .trap_segment_read(reader_thread, entry, 0, 5)
                .unwrap(),
            b"reply"
        );
        // The taint sticks: the reader is now tainted in c.
        let label = env.machine().kernel().thread_label(reader_thread).unwrap();
        assert_eq!(label.level(c), Level::L2);
    }

    #[test]
    fn failed_gate_call_releases_partially_created_spill_objects() {
        // The spill batch does not stop on errors, so the return gate and
        // the resource container may exist even though a later read of
        // the (here: dangling) service gate failed; the error path must
        // release them instead of leaking quota on every failed call.
        let (mut env, _init, client, service) = setup();
        let bogus = ServiceGate {
            gate: ContainerEntry::new(service.gate.container, ObjectId::from_raw(0x5add)),
            provider: service.provider,
        };
        let client_thread = env.process(client).unwrap().thread;
        let held = console(&env, client_thread);
        let objects_before = env.machine().kernel().object_count();
        assert!(enter_service(&mut env, client, &bogus, true).is_err());
        assert_eq!(
            env.machine().kernel().object_count(),
            objects_before,
            "failed gate calls must not leak spill objects"
        );
        assert_eq!(console(&env, client_thread), held, "nor the r/t stars");
    }

    /// The `(syscall, ok)` records one call leaves in the audit trace.
    fn traced(env: &mut UnixEnv, call: impl FnOnce(&mut UnixEnv)) -> Vec<(&'static str, bool)> {
        env.machine_mut().kernel_mut().enable_syscall_trace(64);
        call(env);
        let trace = env.machine().kernel().syscall_trace().unwrap();
        trace.records().map(|r| (r.syscall, r.ok)).collect()
    }

    #[test]
    fn a_gate_call_is_exactly_these_syscalls() {
        // The whole protocol, pinned: four batches and two gate entries,
        // with the thread's own label and clearance asked for twice — on
        // the way in (what to come back to) and on the way out (what the
        // service left) — and nowhere else.
        let (mut env, _init, client, service) = setup();
        let mut session = None;
        let enter = traced(&mut env, |env| {
            session = Some(enter_service(env, client, &service, false).unwrap());
        });
        assert_eq!(
            enter,
            [
                ("self_get_label", true),
                ("self_get_clearance", true),
                ("create_category", true),
                ("gate_create", true),
                ("obj_get_label", true),
                ("gate_clearance", true),
                ("gate_enter", true),
            ]
        );
        let leave = traced(&mut env, |env| {
            return_from_service(env, session.take().unwrap()).unwrap();
        });
        assert_eq!(
            leave,
            [
                ("obj_get_label", true),
                ("self_get_label", true),
                ("self_get_clearance", true),
                ("gate_enter", true),
                ("self_set_label", true),
                ("self_set_clearance", true),
                ("obj_unref", true),
            ]
        );

        // A private call allocates the taint category in the head batch,
        // donates the resource container in the spill, and releases it in
        // the cleanup: three more entries, no more crossings.
        let enter = traced(&mut env, |env| {
            session = Some(enter_service(env, client, &service, true).unwrap());
        });
        assert_eq!(
            enter,
            [
                ("self_get_label", true),
                ("self_get_clearance", true),
                ("create_category", true),
                ("create_category", true),
                ("gate_create", true),
                ("container_create", true),
                ("obj_get_label", true),
                ("gate_clearance", true),
                ("gate_enter", true),
            ]
        );
        let batches = env.machine().kernel().dispatch_stats().batches;
        let leave = traced(&mut env, |env| {
            return_from_service(env, session.take().unwrap()).unwrap();
        });
        assert_eq!(
            leave,
            [
                ("obj_get_label", true),
                ("self_get_label", true),
                ("self_get_clearance", true),
                ("gate_enter", true),
                ("self_set_label", true),
                ("self_set_clearance", true),
                ("obj_unref", true),
                ("obj_unref", true),
            ]
        );
        assert_eq!(env.machine().kernel().dispatch_stats().batches, batches + 3);
    }

    /// The label and clearance of `thread`, read off the console.
    fn console(env: &UnixEnv, thread: ObjectId) -> (Label, Label) {
        let kernel = env.machine().kernel();
        (
            kernel.thread_label(thread).unwrap(),
            kernel.thread_clearance(thread).unwrap(),
        )
    }

    fn label_of(env: &UnixEnv, object: ObjectId) -> Label {
        let object = env.machine().kernel().raw_object(object).unwrap();
        object.header.label.clone()
    }

    #[test]
    fn a_refused_gate_entry_leaves_the_caller_as_it_was() {
        let (mut env, _init, client, service) = setup();
        let p = env.process(client).unwrap().clone();
        // A second gate of the daemon's whose clearance pins a fresh
        // category of the daemon's to `0`: no client passes `L_T ⊑ C_G`.
        let daemon_thread = env.process(service.provider).unwrap().thread;
        let kernel = env.machine_mut().kernel_mut();
        let s = kernel.trap_create_category(daemon_thread).unwrap();
        let guarded = kernel
            .trap_gate_create(
                daemon_thread,
                service.gate.container,
                Label::builder().own(s).build(),
                Label::default_clearance().with(s, Level::L0),
                None,
                0,
                vec![],
                "guarded service",
            )
            .unwrap();
        let guarded = ServiceGate {
            gate: ContainerEntry::new(service.gate.container, guarded),
            provider: service.provider,
        };
        let usage = |env: &UnixEnv| {
            [p.process_container, p.internal_container].map(|c| {
                let c = env.machine().kernel().raw_object(c).unwrap();
                c.header.usage
            })
        };
        let held = console(&env, p.thread);
        let (used, objects) = (usage(&env), env.machine().kernel().object_count());
        for i in 0..100 {
            // Plain and private calls alike: the private one also donates a
            // resource container, which has to go back too.
            assert!(matches!(
                enter_service(&mut env, client, &guarded, i % 2 == 0),
                Err(UnixError::Kernel(SyscallError::GateClearance(_)))
            ));
        }
        assert_eq!(console(&env, p.thread), held);
        assert_eq!(usage(&env), used);
        assert_eq!(env.machine().kernel().object_count(), objects);
    }

    #[test]
    fn a_grant_gate_carries_only_what_it_grants() {
        let mut env = UnixEnv::boot();
        let init = env.init_pid();
        let alice = env.spawn(init, "/bin/alice", None).unwrap();
        let bob = env.spawn(init, "/bin/bob", None).unwrap();
        let alice_thread = env.process(alice).unwrap().thread;
        let bob_thread = env.process(bob).unwrap().thread;
        // A container both can name.
        let shared = env.process(alice).unwrap().process_container;
        let kernel = env.machine_mut().kernel_mut();
        let x = kernel.trap_create_category(alice_thread).unwrap();
        let y = kernel.trap_create_category(alice_thread).unwrap();
        let gate = create_grant_gate(&mut env, alice, shared, &[x], None).unwrap();
        assert_eq!(
            label_of(&env, gate.object),
            Label::builder().own(x).build(),
            "an untainted creator's grant gate is the grant and nothing else"
        );

        // Bob asks for `y` as well.  The floor `(L_T^J ⊔ L_G^J)^⋆` holds
        // `y` at 1 — neither Bob nor the gate owns it — so a request for
        // `y ⋆` is below the floor, and Bob leaves with nothing.
        let (before, before_clearance) = console(&env, bob_thread);
        let greedy = before.with(x, Level::Star).with(y, Level::Star);
        let kernel = env.machine_mut().kernel_mut();
        assert!(kernel
            .trap_gate_enter(
                bob_thread,
                gate,
                greedy,
                before_clearance.with(x, Level::L3),
                before.clone(),
            )
            .is_err());
        assert_eq!(
            console(&env, bob_thread),
            (before.clone(), before_clearance.clone())
        );

        // The honest entry still works, and grants exactly `x`.
        enter_grant_gate(&mut env, alice, gate, bob, &[x]).unwrap();
        assert_eq!(
            console(&env, bob_thread),
            (
                before.with(x, Level::Star),
                before_clearance.with(x, Level::L3)
            )
        );
        assert!(env.machine().kernel().raw_object(gate.object).is_none());
    }

    #[test]
    fn a_guarded_grant_gate_admits_its_guards_owner_and_nobody_else() {
        let mut env = UnixEnv::boot();
        let init = env.init_pid();
        let alice = env.spawn(init, "/bin/alice", None).unwrap();
        let bob = env.spawn(init, "/bin/bob", None).unwrap();
        let carol = env.spawn(init, "/bin/carol", None).unwrap();
        let alice_thread = env.process(alice).unwrap().thread;
        let bob_thread = env.process(bob).unwrap().thread;
        let carol_thread = env.process(carol).unwrap().thread;
        let shared = env.process(alice).unwrap().process_container;
        let kernel = env.machine_mut().kernel_mut();
        let x = kernel.trap_create_category(alice_thread).unwrap();
        let guard = kernel.trap_create_category(alice_thread).unwrap();
        grant_categories(&mut env, alice, bob, &[guard]).unwrap();
        let gate = create_grant_gate(&mut env, alice, shared, &[x], Some(guard)).unwrap();
        assert_eq!(
            label_of(&env, gate.object),
            Label::builder().own(x).own(guard).build()
        );

        // Carol does not own the guard: her `1` in it is above the gate
        // clearance's `0`, whatever she asks for.
        let (label, clearance) = console(&env, carol_thread);
        let kernel = env.machine_mut().kernel_mut();
        assert!(matches!(
            kernel.trap_gate_enter(
                carol_thread,
                gate,
                label.with(x, Level::Star),
                clearance.with(x, Level::L3),
                label,
            ),
            Err(SyscallError::GateClearance(_))
        ));
        enter_grant_gate(&mut env, alice, gate, bob, &[x]).unwrap();
        assert!(console(&env, bob_thread).0.owns(x));
        assert!(!console(&env, carol_thread).0.owns(x));
    }

    #[test]
    fn derived_labels_equal_the_kernels_at_every_step() {
        let (mut env, init, client, service) = setup();
        let client_thread = env.process(client).unwrap().thread;
        let (before, before_clearance) = console(&env, client_thread);

        // Entry: the kernel adopted what the library asked for, and what it
        // asked for is what it held, plus the gate's ownership, tainted.
        let session = enter_service(&mut env, client, &service, true).unwrap();
        let (r, t) = (session.return_category, session.taint.unwrap());
        let held = before.with(r, Level::Star).with(t, Level::Star);
        let held_clearance = before_clearance.with(r, Level::L3).with(t, Level::L3);
        assert_eq!(session.saved_label, before);
        assert_eq!(session.saved_clearance, before_clearance);
        assert_eq!(label_of(&env, session.return_gate.object), held);
        let inside = held
            .ownership_union(&label_of(&env, service.gate.object))
            .with(t, Level::L3);
        assert_eq!(
            console(&env, client_thread),
            (inside.clone(), held_clearance.clone())
        );
        assert_eq!(
            (&session.entry.label, &session.entry.clearance),
            (&inside, &held_clearance)
        );

        // The service raises its own taint inside the call, in a category
        // neither side owns.  Return and cleanup: the caller comes back to
        // exactly what it held, raised by that taint and nothing else.
        let init_thread = env.process(init).unwrap().thread;
        let kernel = env.machine_mut().kernel_mut();
        let c = kernel.trap_create_category(init_thread).unwrap();
        kernel
            .trap_self_set_label(client_thread, inside.with(c, Level::L2))
            .unwrap();
        return_from_service(&mut env, session).unwrap();
        assert_eq!(
            console(&env, client_thread),
            (before.with(c, Level::L2), before_clearance)
        );
    }

    #[test]
    fn return_gate_requires_the_return_category() {
        let (mut env, init, client, service) = setup();
        let session = enter_service(&mut env, client, &service, false).unwrap();
        let return_gate = session.return_gate;
        // Some other process (without r) cannot invoke the return gate.
        let outsider = env.spawn(init, "/bin/evil", None).unwrap();
        let outsider_thread = env.process(outsider).unwrap().thread;
        let kernel = env.machine_mut().kernel_mut();
        let tl = kernel.thread_label(outsider_thread).unwrap();
        let tc = kernel.thread_clearance(outsider_thread).unwrap();
        assert!(matches!(
            kernel.trap_gate_enter(outsider_thread, return_gate, tl.clone(), tc, tl),
            Err(SyscallError::GateClearance(_))
        ));
        return_from_service(&mut env, session).unwrap();
    }
}
