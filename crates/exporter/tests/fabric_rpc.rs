//! End-to-end tests of the exporter fabric: tunneled gate calls, taint
//! propagation across the wire, and delegation-gated privilege.

use histar_exporter::{ExporterError, Fabric};
use histar_label::{Label, Level};
use histar_sim::{LinkConfig, NetConfig, SimDuration, Topology};
use histar_store::codec::Wire;

#[test]
fn echo_round_trip_between_two_nodes() {
    let mut fabric = Fabric::new(2);
    let provider = {
        let n = &mut fabric.nodes[1];
        let init = n.init();
        n.env.spawn(init, "/usr/bin/echod", None).unwrap()
    };
    fabric
        .register_service(
            1,
            "echo",
            provider,
            Box::new(|_env, _worker, req| {
                let mut out = b"echo: ".to_vec();
                out.extend_from_slice(req);
                out
            }),
        )
        .unwrap();

    let client = {
        let n = &mut fabric.nodes[0];
        let init = n.init();
        n.env.spawn(init, "/bin/client", None).unwrap()
    };
    let reply = fabric
        .remote_call(0, client, 1, "echo", b"hello dstar", None, &[])
        .unwrap();
    let bytes = fabric.read_reply(0, client, &reply).unwrap();
    assert_eq!(bytes, b"echo: hello dstar");

    // The wire charged both clocks: simulated time advanced on both nodes.
    assert!(fabric.nodes[0].env.machine().uptime() > SimDuration::ZERO);
    assert!(fabric.nodes[1].env.machine().uptime() > SimDuration::ZERO);
}

#[test]
fn unknown_service_is_reported() {
    let mut fabric = Fabric::new(2);
    let client = {
        let n = &mut fabric.nodes[0];
        let init = n.init();
        n.env.spawn(init, "/bin/client", None).unwrap()
    };
    let err = fabric
        .remote_call(0, client, 1, "no-such-service", b"x", None, &[])
        .unwrap_err();
    assert!(matches!(err, ExporterError::UnknownService(_)), "{err}");
}

#[test]
fn tainted_request_label_crosses_the_wire_and_comes_back() {
    let mut fabric = Fabric::new(2);

    // A client on node 0 with a secret category, tainting its request.
    let (client, secret_cat) = {
        let n = &mut fabric.nodes[0];
        let init = n.init();
        let client = n.env.spawn(init, "/bin/client", None).unwrap();
        let thread = n.env.process(client).unwrap().thread;
        let c = n
            .env
            .machine_mut()
            .kernel_mut()
            .trap_create_category(thread)
            .unwrap();
        (client, c)
    };

    let provider = {
        let n = &mut fabric.nodes[1];
        let init = n.init();
        n.env.spawn(init, "/usr/bin/blind-echod", None).unwrap()
    };
    fabric
        .register_service(1, "echo", provider, Box::new(|_e, _w, req| req.to_vec()))
        .unwrap();

    let request_label = Label::builder().set(secret_cat, Level::L3).build();
    let reply = fabric
        .remote_call(
            0,
            client,
            1,
            "echo",
            b"classified",
            Some(request_label),
            &[],
        )
        .unwrap();

    // The reply landed back on node 0 still tainted in the ORIGINAL
    // category: translation round-tripped through node 1's shadow category
    // without laundering the taint.
    let label = fabric.reply_label(0, &reply).unwrap();
    assert_eq!(label.level(secret_cat), Level::L3);

    // The client owns the category, so it can read the reply...
    assert_eq!(fabric.read_reply(0, client, &reply).unwrap(), b"classified");

    // ...but an unrelated process on node 0 cannot: its clearance (2) stops
    // it from tainting itself to level 3.
    let outsider = {
        let n = &mut fabric.nodes[0];
        let init = n.init();
        n.env.spawn(init, "/bin/outsider", None).unwrap()
    };
    assert!(fabric.read_reply(0, outsider, &reply).is_err());
}

#[test]
fn caller_cannot_understate_its_taint() {
    let mut fabric = Fabric::new(2);
    let provider = {
        let n = &mut fabric.nodes[1];
        let init = n.init();
        n.env.spawn(init, "/usr/bin/echod", None).unwrap()
    };
    fabric
        .register_service(1, "echo", provider, Box::new(|_e, _w, req| req.to_vec()))
        .unwrap();

    // A client tainted at level 3 in a category owned by init (so the
    // client cannot untaint itself).
    let client = {
        let n = &mut fabric.nodes[0];
        let init = n.init();
        let init_thread = n.env.process(init).unwrap().thread;
        let c = n
            .env
            .machine_mut()
            .kernel_mut()
            .trap_create_category(init_thread)
            .unwrap();
        n.env
            .spawn_with_label(init, "/bin/tainted", vec![], vec![(c, Level::L3)])
            .unwrap()
    };

    // Declaring an unrestricted request label is refused by the CALLING
    // kernel: the tainted thread cannot write the declared-label segment.
    let err = fabric
        .remote_call(
            0,
            client,
            1,
            "echo",
            b"smuggle",
            Some(Label::unrestricted()),
            &[],
        )
        .unwrap_err();
    assert!(
        matches!(err, ExporterError::Unix(_)),
        "understated label must be refused locally, got {err}"
    );
}

#[test]
fn delegated_privilege_passes_the_gate_and_forged_certs_do_not() {
    let mut fabric = Fabric::new(2);

    // Node 1 hosts a privileged service: its gate clearance {s 0, 2}
    // admits only threads owning s.
    let (provider, s) = {
        let n = &mut fabric.nodes[1];
        let init = n.init();
        let provider = n.env.spawn(init, "/usr/sbin/privd", None).unwrap();
        let thread = n.env.process(provider).unwrap().thread;
        let s = n
            .env
            .machine_mut()
            .kernel_mut()
            .trap_create_category(thread)
            .unwrap();
        (provider, s)
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
            Box::new(|_e, _w, _req| b"privileged ok".to_vec()),
        )
        .unwrap();

    let client = {
        let n = &mut fabric.nodes[0];
        let init = n.init();
        n.env.spawn(init, "/bin/frontend", None).unwrap()
    };

    // Without any delegation, the remote kernel's clearance check refuses
    // the tunneled call.
    let err = fabric
        .remote_call(0, client, 1, "priv", b"op", None, &[])
        .unwrap_err();
    assert!(err.is_label_check(), "expected a kernel refusal, got {err}");

    // Delegate s to node 0 and grant the client the shadow: now the call
    // passes the same kernel check.
    let shadow = fabric.delegate(1, provider, s, 0).unwrap();
    fabric.grant_shadow(0, client, shadow).unwrap();
    let reply = fabric
        .remote_call(0, client, 1, "priv", b"op", None, &[shadow])
        .unwrap();
    assert_eq!(
        fabric.read_reply(0, client, &reply).unwrap(),
        b"privileged ok"
    );
}

#[test]
fn spoofed_sender_cannot_exercise_peer_privileges() {
    use std::cell::Cell;
    use std::rc::Rc;

    // Node 1 hosts a gated service; only node 0 is delegated.  Node 2 tries
    // to pass as node 0.
    let mut fabric = Fabric::new(3);
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
    let ran = Rc::new(Cell::new(false));
    let ran_flag = ran.clone();
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
            Box::new(move |_e, _w, _r| {
                ran_flag.set(true);
                b"secret op done".to_vec()
            }),
        )
        .unwrap();
    let shadow0 = fabric.delegate(1, provider, s, 0).unwrap();
    let global = fabric.export_category(1, provider, s).unwrap();
    let _ = shadow0;

    let node0_id = fabric.nodes[0].exporter.id();

    // Attack 1: node 2 sends a correctly sealed envelope (it IS a known
    // peer) whose inner Call claims to be from node 0, with node 0's claim.
    let call = histar_exporter::RpcMessage::Call {
        seq: 1,
        sender: node0_id, // spoofed
        service: "priv".into(),
        label: histar_exporter::GlobalLabel {
            default: Level::L1.encode(),
            entries: vec![],
        },
        claims: vec![global],
        certs: vec![],
        payload: b"op".to_vec(),
    };
    let sealed = {
        let n1_id = fabric.nodes[1].exporter.id();
        fabric.nodes[2].exporter.seal_to(n1_id, &call).unwrap()
    };
    let frame = histar_net::Netd::encode_batch(&[sealed]);
    {
        let n = &mut fabric.nodes[1];
        n.netd.wire_deliver(&mut n.env, frame).unwrap();
    }
    fabric.dispatch(1);
    assert!(
        !ran.get(),
        "a sender-spoofed call must never reach the service"
    );

    // Attack 2: a raw forged envelope claiming node 0's identity with a
    // guessed tag — not even one of node 2's own envelopes.  Dropped with
    // no reply (count the frames queued on node 1's device).
    let mut forged = Vec::new();
    forged.extend_from_slice(&node0_id.0.to_le_bytes());
    forged.extend_from_slice(&0xdead_beefu64.to_le_bytes());
    let body = call.encode();
    forged.extend_from_slice(&(body.len() as u64).to_le_bytes());
    forged.extend_from_slice(&body);
    let frame = histar_net::Netd::encode_batch(&[forged]);
    {
        let n = &mut fabric.nodes[1];
        n.netd.wire_deliver(&mut n.env, frame).unwrap();
    }
    fabric.dispatch(1);
    assert!(!ran.get());
    let outbound = {
        let n = &mut fabric.nodes[1];
        n.netd.wire_collect(&mut n.env).unwrap()
    };
    // The spoof in attack 1 earned an error reply; the raw forgery in
    // attack 2 earned silence.
    assert!(outbound.len() <= 1, "forged envelopes must not be answered");
}

#[test]
fn malformed_frames_do_not_wedge_queued_traffic() {
    let mut fabric = Fabric::new(2);
    let provider = {
        let n = &mut fabric.nodes[1];
        let init = n.init();
        n.env.spawn(init, "/usr/bin/echod", None).unwrap()
    };
    fabric
        .register_service(1, "echo", provider, Box::new(|_e, _w, req| req.to_vec()))
        .unwrap();
    let client = {
        let n = &mut fabric.nodes[0];
        let init = n.init();
        n.env.spawn(init, "/bin/client", None).unwrap()
    };

    // Garbage arrives on node 1 ahead of the legitimate call.
    {
        let n = &mut fabric.nodes[1];
        n.netd
            .wire_deliver(&mut n.env, vec![0xff, 0xff, 0xff, 0xff])
            .unwrap();
        n.netd
            .wire_deliver(&mut n.env, b"not a frame".to_vec())
            .unwrap();
    }
    let reply = fabric
        .remote_call(0, client, 1, "echo", b"still here", None, &[])
        .unwrap();
    assert_eq!(fabric.read_reply(0, client, &reply).unwrap(), b"still here");
}

#[test]
fn denied_calls_do_not_accumulate_kernel_objects() {
    let mut fabric = Fabric::new(2);
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
    let client = {
        let n = &mut fabric.nodes[0];
        let init = n.init();
        n.env.spawn(init, "/bin/frontend", None).unwrap()
    };

    // Warm up once (first call allocates long-lived translation state).
    let _ = fabric.remote_call(0, client, 1, "priv", b"op", None, &[]);
    let baseline = fabric.nodes[1].env.machine().kernel().object_count();
    for _ in 0..10 {
        let err = fabric
            .remote_call(0, client, 1, "priv", b"op", None, &[])
            .unwrap_err();
        assert!(err.is_label_check());
    }
    let after = fabric.nodes[1].env.machine().kernel().object_count();
    assert!(
        after <= baseline,
        "denied calls must not leak kernel objects: {baseline} -> {after}"
    );
}

#[test]
fn forged_delegation_certificate_is_rejected() {
    let mut fabric = Fabric::new(2);
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

    // Forge the delegation by hand: export the category (so it has a global
    // name), build the shadow on node 0, but install a certificate whose
    // tag was minted with the wrong secret.
    let global = fabric.export_category(1, provider, s).unwrap();
    let grantee = fabric.nodes[0].exporter.id();
    let shadow = {
        let n = &mut fabric.nodes[0];
        n.exporter.import_category(&mut n.env, global).unwrap()
    };
    let forged = histar_exporter::DelegationCert::issue(0xbad_5ec, global, grantee);
    fabric.nodes[0].exporter.install_cert(forged);

    let client = {
        let n = &mut fabric.nodes[0];
        let init = n.init();
        n.env.spawn(init, "/bin/frontend", None).unwrap()
    };
    fabric.grant_shadow(0, client, shadow).unwrap();
    let err = fabric
        .remote_call(0, client, 1, "priv", b"op", None, &[shadow])
        .unwrap_err();
    assert!(
        matches!(err, ExporterError::BadCertificate(_)),
        "a forged certificate must be rejected outright, got {err}"
    );
}

#[test]
fn per_link_topology_shapes_latency() {
    let mut topology = Topology::fully_connected(3);
    topology.set_link(
        0,
        2,
        LinkConfig {
            net: NetConfig {
                bandwidth_bps: 1_000_000,
                latency: SimDuration::from_millis(40),
                mtu: 1500,
            },
            per_message_cpu: SimDuration::from_micros(10),
        },
    );
    let mut fabric = Fabric::with_topology(topology);

    for node in [1, 2] {
        let provider = {
            let n = &mut fabric.nodes[node];
            let init = n.init();
            n.env.spawn(init, "/usr/bin/echod", None).unwrap()
        };
        fabric
            .register_service(node, "echo", provider, Box::new(|_e, _w, req| req.to_vec()))
            .unwrap();
    }
    let client = {
        let n = &mut fabric.nodes[0];
        let init = n.init();
        n.env.spawn(init, "/bin/client", None).unwrap()
    };

    let before_lan = fabric.nodes[0].env.machine().uptime();
    fabric
        .remote_call(0, client, 1, "echo", b"fast", None, &[])
        .unwrap();
    let lan = fabric.nodes[0].env.machine().uptime() - before_lan;

    let before_wan = fabric.nodes[0].env.machine().uptime();
    fabric
        .remote_call(0, client, 2, "echo", b"slow", None, &[])
        .unwrap();
    let wan = fabric.nodes[0].env.machine().uptime() - before_wan;

    assert!(
        wan > lan + SimDuration::from_millis(50),
        "WAN call ({wan:?}) must be slower than LAN call ({lan:?}) by ≥ 2×40 ms latency"
    );
}

#[test]
fn batched_calls_amortize_per_message_costs() {
    let mut fabric = Fabric::new(2);
    let provider = {
        let n = &mut fabric.nodes[1];
        let init = n.init();
        n.env.spawn(init, "/usr/bin/echod", None).unwrap()
    };
    fabric
        .register_service(1, "echo", provider, Box::new(|_e, _w, req| req.to_vec()))
        .unwrap();
    let client = {
        let n = &mut fabric.nodes[0];
        let init = n.init();
        n.env.spawn(init, "/bin/client", None).unwrap()
    };

    const N: usize = 8;
    // N sequential calls.
    let before = fabric.nodes[0].env.machine().uptime();
    for i in 0..N {
        let reply = fabric
            .remote_call(0, client, 1, "echo", format!("m{i}").as_bytes(), None, &[])
            .unwrap();
        fabric.read_reply(0, client, &reply).unwrap();
    }
    let sequential = fabric.nodes[0].env.machine().uptime() - before;

    // The same N calls in one batch frame.
    let requests: Vec<Vec<u8>> = (0..N).map(|i| format!("m{i}").into_bytes()).collect();
    let before = fabric.nodes[0].env.machine().uptime();
    let replies = fabric
        .remote_call_batch(0, client, 1, "echo", &requests, None, &[])
        .unwrap();
    for (i, r) in replies.into_iter().enumerate() {
        let reply = r.unwrap();
        assert_eq!(
            fabric.read_reply(0, client, &reply).unwrap(),
            format!("m{i}").as_bytes()
        );
    }
    let batched = fabric.nodes[0].env.machine().uptime() - before;

    assert!(
        batched < sequential,
        "batched ({batched:?}) must beat sequential ({sequential:?}): \
         propagation latency is paid once per frame, not once per message"
    );
}
