//! Soak: the Nth round of echo calls costs what the second did.
//!
//! One two-node fabric serves `ROUNDS` rounds of `CALLS` echo calls, below
//! the 8,000 or so RPCs a fabric client survives today.  After every call
//! each node's rows are read (the label cache's labels and pairs, live
//! objects, the sched-dirty list), and each row keeps its high-water mark per
//! round.  From round 2 on a row must be flat: no round's mark more than
//! [`DRIFT`] above round 2's.  The rows in [`GROWING`] are known leaks; the
//! list may only shrink, and each row on it must still grow every round, so
//! a fix that flattens one fails here until its row leaves the list.

use histar_exporter::Fabric;
use histar_kernel::Kernel;

const ROUNDS: usize = 5;
const CALLS: usize = 1_000;

/// How far a flat row's mark may wander above round 2's: a twentieth of
/// what one entry per call adds in a round.  A label cache sweep lands at
/// some point inside a call, so the labels it keeps, and the peak before
/// the next sweep, vary by a few entries from sweep to sweep.
const DRIFT: u64 = CALLS as u64 / 20;

/// Rows that still grow with every call:
/// * the calling node's live objects: a landed reply is never refunded.
const GROWING: &[&str] = &["node 0 objects"];

/// Every row read off one node's kernel.
fn rows(node: usize, k: &Kernel) -> [(String, u64); 4] {
    let cache = k.label_cache();
    let row = |name: &str, value: u64| (format!("node {node} {name}"), value);
    [
        row("label_cache.interned", cache.stats().interned),
        row("label_cache pairs", cache.pairs() as u64),
        row("objects", k.object_count() as u64),
        row("sched_dirty", k.sched_dirty_len() as u64),
    ]
}

#[test]
#[cfg_attr(miri, ignore = "5,000 remote calls")]
fn echo_rounds_are_flat_from_the_second_on() {
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

    // Per row, its name and its high-water mark in each round.
    let mut marks: Vec<(String, Vec<u64>)> = Vec::new();
    for round in 0..ROUNDS {
        for call in 0..CALLS {
            let request = format!("round {round} call {call}").into_bytes();
            let reply = fabric
                .remote_call(0, client, 1, "echo", &request, None, &[])
                .unwrap();
            assert_eq!(fabric.read_reply(0, client, &reply).unwrap(), request);
            let now = fabric
                .nodes
                .iter()
                .enumerate()
                .flat_map(|(i, n)| rows(i, n.env.machine().kernel()));
            for (i, (name, value)) in now.enumerate() {
                if marks.len() == i {
                    marks.push((name, Vec::new()));
                }
                let by_round = &mut marks[i].1;
                if by_round.len() == round {
                    by_round.push(value);
                }
                by_round[round] = by_round[round].max(value);
            }
        }
    }

    for name in GROWING {
        assert!(marks.iter().any(|(row, _)| row == name), "{name} is no row");
    }
    for (name, by_round) in &marks {
        if GROWING.contains(&name.as_str()) {
            assert!(
                by_round.windows(2).all(|w| w[0] < w[1]),
                "{name} no longer grows every round ({by_round:?}): take it off GROWING"
            );
        } else {
            assert!(
                by_round[2..].iter().all(|&m| m <= by_round[1] + DRIFT),
                "{name} grows after round 2: {by_round:?}"
            );
        }
    }
}
