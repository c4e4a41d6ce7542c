//! Property tests for cross-node label translation.
//!
//! The security argument of the federation layer rests on two facts checked
//! here over thousands of random labels:
//!
//! 1. **No taint laundering** — a label round-tripped through two exporters
//!    is never weaker than the original (in fact translation is a partial
//!    bijection, so the round trip is the identity).
//! 2. **Delegation is required for remote `⋆`** — ownership never travels
//!    inside a data label, and claiming it without a certificate ends in
//!    refusal, ultimately by the receiving kernel.

use histar_exporter::{ExporterError, Fabric};
use histar_label::{Category, Label, Level};

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, bound: u64) -> u64 {
        ((self.next() as u128 * bound as u128) >> 64) as u64
    }
}

fn numeric_level(rng: &mut Rng) -> Level {
    match rng.below(4) {
        0 => Level::L0,
        1 => Level::L1,
        2 => Level::L2,
        _ => Level::L3,
    }
}

#[test]
fn round_trip_through_two_exporters_never_weakens_a_label() {
    let mut fabric = Fabric::new(2);
    let init = fabric.nodes[0].init();

    // A pool of exportable categories, all owned by init on node 0.
    let mut cats: Vec<Category> = Vec::new();
    {
        let n = &mut fabric.nodes[0];
        let thread = n.env.process(init).unwrap().thread;
        for _ in 0..8 {
            cats.push(
                n.env
                    .machine_mut()
                    .kernel_mut()
                    .trap_create_category(thread)
                    .unwrap(),
            );
        }
    }

    let mut rng = Rng(0x7ab5);
    for case in 0..500 {
        let mut b = Label::builder();
        for &c in &cats {
            if rng.below(2) == 0 {
                b = b.set(c, numeric_level(&mut rng));
            }
        }
        let label = b.build();
        let back = fabric
            .round_trip_label(0, 1, &label, init)
            .unwrap_or_else(|e| panic!("case {case}: round trip failed: {e}"));
        // Never weaker (the taint survives)...
        assert!(
            label.leq(&back),
            "case {case}: round trip weakened {label} to {back}"
        );
        // ...and in fact the identity: translation is a bijection between
        // bound categories, and levels are copied verbatim.
        assert_eq!(back, label, "case {case}");
    }
}

#[test]
fn shadow_categories_map_back_to_the_original() {
    // Once a category has crossed over, both nodes agree on the pairing for
    // good: exporting the shadow yields the original global name, never a
    // fresh one.
    let mut fabric = Fabric::new(2);
    let init = fabric.nodes[0].init();
    let cat = {
        let n = &mut fabric.nodes[0];
        let thread = n.env.process(init).unwrap().thread;
        n.env
            .machine_mut()
            .kernel_mut()
            .trap_create_category(thread)
            .unwrap()
    };
    let global = fabric.export_category(0, init, cat).unwrap();
    let shadow = {
        let n = &mut fabric.nodes[1];
        n.exporter.import_category(&mut n.env, global).unwrap()
    };
    // Importing again yields the same shadow; exporting the shadow yields
    // the same global name.
    let shadow2 = {
        let n = &mut fabric.nodes[1];
        n.exporter.import_category(&mut n.env, global).unwrap()
    };
    assert_eq!(shadow, shadow2);
    let exporter_pid = fabric.nodes[1].exporter.pid();
    let global2 = fabric.export_category(1, exporter_pid, shadow).unwrap();
    assert_eq!(global2, global);
}

#[test]
fn unexportable_taint_cannot_leave_the_machine() {
    // A label tainted in a category nobody entrusted to the exporter is
    // refused outright — refusing is the only alternative to laundering.
    let mut fabric = Fabric::new(2);
    let init = fabric.nodes[0].init();
    // The category is owned by a process that is NOT offered as the
    // auto-export owner.
    let other = {
        let n = &mut fabric.nodes[0];
        n.env.spawn(init, "/bin/other", None).unwrap()
    };
    let cat = {
        let n = &mut fabric.nodes[0];
        let thread = n.env.process(other).unwrap().thread;
        n.env
            .machine_mut()
            .kernel_mut()
            .trap_create_category(thread)
            .unwrap()
    };
    let label = Label::builder().set(cat, Level::L3).build();
    let err = fabric.round_trip_label(0, 1, &label, init).unwrap_err();
    assert!(
        matches!(err, ExporterError::NotExportable(_)),
        "expected NotExportable, got {err}"
    );
}

#[test]
fn exporting_requires_a_grant_the_kernel_accepts() {
    // The exporter names only categories it was granted.  An `owner` that
    // does not own the category cannot build the grant gate — the kernel
    // refuses it — so no name appears and the taint stays unexportable.
    let mut fabric = Fabric::new(1);
    let init = fabric.nodes[0].init();
    let n = &mut fabric.nodes[0];
    let owner = n.env.spawn(init, "/bin/owner", None).unwrap();
    let impostor = n.env.spawn(init, "/bin/impostor", None).unwrap();
    let thread = n.env.process(owner).unwrap().thread;
    let cat = n
        .env
        .machine_mut()
        .kernel_mut()
        .trap_create_category(thread)
        .unwrap();
    let label = Label::builder().set(cat, Level::L3).build();

    let err = n
        .exporter
        .export_category(&mut n.env, impostor, cat)
        .unwrap_err();
    assert!(
        matches!(err, ExporterError::Unix(_)),
        "expected the kernel's refusal of the grant gate, got {err}"
    );
    let err = n
        .exporter
        .outbound_label(&mut n.env, &label, None)
        .unwrap_err();
    assert!(matches!(err, ExporterError::NotExportable(_)), "{err}");

    // The real owner's grant lands, and the name is stable from then on.
    let global = n.exporter.export_category(&mut n.env, owner, cat).unwrap();
    let wire = n.exporter.outbound_label(&mut n.env, &label, None).unwrap();
    assert_eq!(wire.entries, vec![(global, Level::L3.encode())]);
    assert_eq!(
        n.exporter
            .export_category(&mut n.env, impostor, cat)
            .unwrap(),
        global,
        "an existing binding is returned, never re-minted"
    );
}

#[test]
fn translating_a_bound_label_is_not_a_kernel_call() {
    // The translation table is exporter data: once a label's categories
    // are bound, translating it in either direction crosses no trap.
    let mut fabric = Fabric::new(2);
    let init = fabric.nodes[0].init();
    let thread = fabric.nodes[0].env.process(init).unwrap().thread;
    let mut b = Label::builder();
    for lvl in [Level::L0, Level::L2, Level::L3] {
        let kernel = fabric.nodes[0].env.machine_mut().kernel_mut();
        b = b.set(kernel.trap_create_category(thread).unwrap(), lvl);
    }
    let label = b.build();
    // First crossing binds all three names on both nodes.
    assert_eq!(fabric.round_trip_label(0, 1, &label, init).unwrap(), label);

    let traps =
        |fabric: &Fabric, node: usize| fabric.nodes[node].env.machine().kernel().dispatch_stats();
    let (before0, before1) = (traps(&fabric, 0), traps(&fabric, 1));
    let n = &mut fabric.nodes[0];
    let wire = n.exporter.outbound_label(&mut n.env, &label, None).unwrap();
    let n = &mut fabric.nodes[1];
    let shadow = n.exporter.import_label(&mut n.env, &wire).unwrap();
    assert_eq!(shadow.len(), 3);
    assert_eq!(traps(&fabric, 0).invocations, before0.invocations);
    assert_eq!(traps(&fabric, 1).invocations, before1.invocations);
}

#[test]
fn remote_ownership_requires_a_delegation_certificate() {
    let mut fabric = Fabric::new(2);

    // Node 1's service category, exported (so node 0 can name it) but NOT
    // delegated to node 0.
    let (provider, s) = {
        let n = &mut fabric.nodes[1];
        let init = n.init();
        let p = n.env.spawn(init, "/usr/sbin/privd", None).unwrap();
        let t = n.env.process(p).unwrap().thread;
        let s = n
            .env
            .machine_mut()
            .kernel_mut()
            .trap_create_category(t)
            .unwrap();
        (p, s)
    };
    let clearance = Label::builder()
        .set(s, Level::L0)
        .default_level(Level::L2)
        .build();
    fabric
        .register_gated_service(
            1,
            "priv",
            provider,
            clearance,
            Box::new(|_e, _w, _r| vec![]),
        )
        .unwrap();
    let global = fabric.export_category(1, provider, s).unwrap();
    let shadow = {
        let n = &mut fabric.nodes[0];
        n.exporter.import_category(&mut n.env, global).unwrap()
    };

    let client = {
        let n = &mut fabric.nodes[0];
        let init = n.init();
        n.env.spawn(init, "/bin/frontend", None).unwrap()
    };

    // Claiming the shadow without even owning it locally is refused.
    let err = fabric
        .remote_call(0, client, 1, "priv", b"op", None, &[shadow])
        .unwrap_err();
    assert!(matches!(err, ExporterError::NotOwner(_)), "{err}");

    // Owning the shadow locally is still not enough: without a delegation
    // certificate the claim cannot even be sent.
    fabric.grant_shadow(0, client, shadow).unwrap();
    let err = fabric
        .remote_call(0, client, 1, "priv", b"op", None, &[shadow])
        .unwrap_err();
    assert!(matches!(err, ExporterError::MissingDelegation(_)), "{err}");

    // And not claiming at all leaves the receiving kernel to refuse the
    // gate entry — the label lattice has the last word.
    let err = fabric
        .remote_call(0, client, 1, "priv", b"op", None, &[])
        .unwrap_err();
    assert!(err.is_label_check(), "{err}");

    // A wire label that tries to smuggle `⋆` directly is rejected as a
    // protocol violation before any of this.
    use histar_exporter::{GlobalLabel, RpcMessage};
    let star_label = GlobalLabel {
        default: Level::L1.encode(),
        entries: vec![(global, Level::Star.encode())],
    };
    let msg = RpcMessage::Call {
        seq: 99,
        sender: fabric.nodes[0].exporter.id(),
        service: "priv".into(),
        label: star_label,
        claims: vec![],
        certs: vec![],
        payload: b"op".to_vec(),
    };
    let n = &mut fabric.nodes[1];
    let reply = n.exporter.dispatch(&mut n.env, msg);
    match reply {
        RpcMessage::Error { code, .. } => {
            assert_eq!(code, histar_exporter::ErrorCode::Internal)
        }
        other => panic!("smuggled ⋆ must be refused, got {other:?}"),
    }
}
