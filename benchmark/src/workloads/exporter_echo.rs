//! `exporter_echo`: echo RPCs across a two-node fabric over the default
//! link, one call per frame and then thirty-two, each phase on a fresh
//! fabric.  `exporter` wire/envelope authentication, `net` and `sim::net`
//! dominate; the only cross-node path, and the one an httpd or store change
//! must leave flat.

use super::{seeded_slice, Cfg, Counters, KernelTrace, Rep};
use crate::host_clock::ScaledTimer;
use crate::trace::Meter;
use histar::exporter::Fabric;
use histar::sim::{LinkConfig, NetConfig, SimDuration, SimRng, Topology};
use histar::unix::process::Pid;

/// Calls per frame in the second phase.
const BATCH: usize = 32;
/// Request lengths are drawn from the seed in `MIN_LEN..=MAX_LEN` (mean
/// 256 B), so wire time is an input, not a constant.
const MIN_LEN: usize = 192;
const MAX_LEN: usize = 320;

/// Calls per phase.  One fabric client fails with `QuotaExceeded`
/// somewhere between 8,000 and 12,000 RPCs (landed replies are never
/// refunded), so a phase stays under that and each gets a fresh fabric.
fn calls(cfg: &Cfg) -> usize {
    cfg.size(6_400, 64)
}

/// A two-node fabric with an echo service on node 1 and a client process
/// on node 0.
fn echo_fabric() -> Result<(Fabric, Pid), String> {
    let mut topology = Topology::fully_connected(2);
    topology.set_default_link(LinkConfig {
        net: NetConfig::default(),
        per_message_cpu: SimDuration::from_micros(10),
    });
    let mut fabric = Fabric::with_topology(topology);
    let server = &mut fabric.nodes[1];
    let init = server.init();
    let provider = server
        .env
        .spawn(init, "/usr/bin/echod", None)
        .map_err(|e| format!("spawn echod: {e}"))?;
    fabric
        .register_service(1, "echo", provider, Box::new(|_e, _w, req| req.to_vec()))
        .map_err(|e| format!("register echo: {e}"))?;
    let node = &mut fabric.nodes[0];
    let init = node.init();
    let client = node
        .env
        .spawn(init, "/bin/client", None)
        .map_err(|e| format!("spawn client: {e}"))?;
    Ok((fabric, client))
}

/// Runs one rep.
pub fn run(cfg: &Cfg) -> Rep {
    let calls = calls(cfg);
    let mut rep = Rep {
        ops: 2 * calls as u64,
        ..Rep::default()
    };
    let mut rng = SimRng::new(cfg.seed);
    let noise = rng.bytes(4096);
    let mut trace = cfg.tracing.then(KernelTrace::default);
    let mut meter = Meter::new(histar::sim::SimClock::new(), cfg.tracing);
    let mut latencies = Vec::with_capacity(2 * calls);

    for (phase, batch) in [1usize, BATCH].into_iter().enumerate() {
        let t = ScaledTimer::start();
        let built = echo_fabric();
        rep.setup += t.stop();
        let (mut fabric, client) = match built {
            Ok(b) => b,
            Err(e) => return rep.abandon(e),
        };
        // Spans and the digest follow the calling node; node 1's kernel
        // runs on its own clock.
        cfg.arm(fabric.nodes[0].env.kernel_mut());
        meter.set_clock(fabric.nodes[0].env.machine().clock().clone());
        let before: Vec<Counters> = fabric
            .nodes
            .iter()
            .map(|n| Counters::snapshot(n.env.machine().kernel()))
            .collect();
        let start = meter.model_now();
        if phase == 0 {
            rep.model_start = start;
        }
        meter.begin_region();
        let mut sent = 0;
        while sent < calls {
            let n = (calls - sent).min(batch);
            let requests: Vec<Vec<u8>> = (0..n)
                .map(|_| seeded_slice(&mut rng, &noise, MIN_LEN, MAX_LEN).to_vec())
                .collect();
            let call_start = meter.model_now();
            let replies = meter.span("exporter", "remote_call_batch", || {
                fabric.remote_call_batch(0, client, 1, "echo", &requests, None, &[])
            });
            let replies = match replies {
                Ok(r) => r,
                Err(e) => {
                    rep.failed += n as u64;
                    rep.failures.push(format!("call {sent}: {e}"));
                    sent += n;
                    continue;
                }
            };
            // Every payload must round-trip; each call of a batch completes
            // when its own reply has been read.
            for (i, (reply, request)) in replies.into_iter().zip(&requests).enumerate() {
                let mut want = request.clone();
                if cfg.corrupt && sent + i == 0 {
                    want[0] ^= 1;
                }
                let got = reply.and_then(|r| {
                    meter.span("exporter", "read_reply", || {
                        fabric.read_reply(0, client, &r)
                    })
                });
                match got {
                    Ok(bytes) if bytes == want => {}
                    Ok(_) => rep.fail(|| format!("call {}: echoed bytes differ", sent + i)),
                    Err(e) => rep.fail(|| format!("call {}: {e}", sent + i)),
                }
                latencies.push(meter.model_now() - call_start);
                rep.user_bytes += request.len() as u64;
            }
            sent += n;
        }
        let host = meter.end_region();
        let model_ns = meter.model_now() - start;
        rep.host += host;
        rep.model_ns += model_ns;
        let (host_key, model_key) = if phase == 0 {
            ("exporter.call_host_us_b1", "exporter.call_model_us_b1")
        } else {
            ("exporter.call_host_us_b32", "exporter.call_model_us_b32")
        };
        rep.layer
            .insert(host_key, host.scaled_s * 1e6 / calls as f64);
        rep.layer
            .insert(model_key, model_ns as f64 / 1e3 / calls as f64);

        for (node, before) in fabric.nodes.iter().zip(&before) {
            rep.counters
                .add(&Counters::snapshot(node.env.machine().kernel()).since(before));
        }
        if let Some(t) = trace.as_mut() {
            let kernel = fabric.nodes[0].env.machine().kernel();
            t.absorb_audit(kernel);
            t.absorb_recorder(kernel.recorder(), meter.offset());
        }
    }
    // Each wire frame is transmitted once, by whichever node sends it.
    rep.layer.insert(
        "exporter.frames_per_call",
        rep.counters.get("dispatch.net_transmit") as f64 / rep.ops as f64,
    );
    rep.kernel = trace;
    rep.take_meter(meter);
    rep.latencies = latencies;
    rep
}
