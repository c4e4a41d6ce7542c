//! A simulated network link.
//!
//! Figure 13 transfers a 100 MB file over a 100 Mbps Ethernet; all three
//! operating systems saturate the link, so the interesting property of the
//! model is simply that transfer time is bandwidth-bound and that per-packet
//! CPU costs are charged separately by the protocol stack.

use crate::clock::{SimClock, SimDuration};

/// Configuration for a [`SimNetwork`].
#[derive(Clone, Copy, Debug)]
pub struct NetConfig {
    /// Link bandwidth in bits per second.
    pub bandwidth_bps: u64,
    /// One-way propagation latency.
    pub latency: SimDuration,
    /// Maximum transmission unit in bytes.
    pub mtu: usize,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            bandwidth_bps: 100_000_000,
            latency: SimDuration::from_micros(100),
            mtu: 1500,
        }
    }
}

/// Statistics for a simulated link.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Packets transmitted.
    pub packets_tx: u64,
    /// Packets received.
    pub packets_rx: u64,
    /// Bytes transmitted.
    pub bytes_tx: u64,
    /// Bytes received.
    pub bytes_rx: u64,
}

impl histar_obs::MetricSource for NetStats {
    fn export(&self, set: &mut histar_obs::MetricSet) {
        set.counter("net.packets_tx", self.packets_tx);
        set.counter("net.packets_rx", self.packets_rx);
        set.counter("net.bytes_tx", self.bytes_tx);
        set.counter("net.bytes_rx", self.bytes_rx);
    }
}

/// A half-duplex simulated network link charging time to the machine clock.
#[derive(Debug)]
pub struct SimNetwork {
    config: NetConfig,
    clock: SimClock,
    stats: NetStats,
}

impl SimNetwork {
    /// Creates a link with the given configuration.
    pub fn new(config: NetConfig, clock: SimClock) -> SimNetwork {
        SimNetwork {
            config,
            clock,
            stats: NetStats::default(),
        }
    }

    /// The link configuration.
    pub fn config(&self) -> &NetConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Number of MTU-sized packets needed for a payload of `bytes` bytes.
    pub fn packets_for(&self, bytes: u64) -> u64 {
        let mtu = self.config.mtu as u64;
        bytes.div_ceil(mtu)
    }

    /// Serialization (wire) time for `bytes` bytes, excluding latency.
    pub fn wire_time(&self, bytes: u64) -> SimDuration {
        if self.config.bandwidth_bps == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_secs_f64(bytes as f64 * 8.0 / self.config.bandwidth_bps as f64)
    }

    /// Transmits `bytes` bytes out of the machine, advancing the clock.
    pub fn transmit(&mut self, bytes: u64) -> SimDuration {
        let t = self.wire_time(bytes) + self.config.latency;
        self.clock.advance(t);
        self.stats.packets_tx += self.packets_for(bytes);
        self.stats.bytes_tx += bytes;
        t
    }

    /// Receives `bytes` bytes into the machine, advancing the clock.
    pub fn receive(&mut self, bytes: u64) -> SimDuration {
        let t = self.wire_time(bytes) + self.config.latency;
        self.clock.advance(t);
        self.stats.packets_rx += self.packets_for(bytes);
        self.stats.bytes_rx += bytes;
        t
    }
}

/// A multi-node network topology with per-link bandwidth, latency and
/// per-message CPU cost.
///
/// The exporter subsystem connects several simulated machines; each pair of
/// nodes may have its own link characteristics (a LAN link between two racks,
/// a WAN link between sites).  Links are symmetric and addressed by an
/// unordered node pair; pairs without an explicit entry fall back to the
/// default link.
#[derive(Clone, Debug)]
pub struct Topology {
    nodes: usize,
    default_link: LinkConfig,
    links: Vec<((usize, usize), LinkConfig)>,
}

/// Characteristics of one inter-node link.
#[derive(Clone, Copy, Debug)]
pub struct LinkConfig {
    /// Bandwidth/latency/MTU of the wire itself.
    pub net: NetConfig,
    /// CPU time each endpoint spends per message (marshalling, interrupt
    /// handling); charged once per message on each side, which is what makes
    /// message batching profitable.
    pub per_message_cpu: SimDuration,
}

impl Default for LinkConfig {
    fn default() -> LinkConfig {
        LinkConfig {
            net: NetConfig::default(),
            per_message_cpu: SimDuration::from_micros(10),
        }
    }
}

impl Topology {
    /// A fully connected topology of `nodes` nodes using the default link
    /// everywhere.
    pub fn fully_connected(nodes: usize) -> Topology {
        Topology {
            nodes,
            default_link: LinkConfig::default(),
            links: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Overrides the default link used by pairs without an explicit entry.
    pub fn set_default_link(&mut self, link: LinkConfig) {
        self.default_link = link;
    }

    /// Sets the link between `a` and `b` (order-insensitive).
    ///
    /// # Panics
    ///
    /// Panics if either node index is out of range or `a == b`.
    pub fn set_link(&mut self, a: usize, b: usize, link: LinkConfig) {
        assert!(a < self.nodes && b < self.nodes, "node index out of range");
        assert_ne!(a, b, "a node has no link to itself");
        let key = (a.min(b), a.max(b));
        if let Some(entry) = self.links.iter_mut().find(|(k, _)| *k == key) {
            entry.1 = link;
        } else {
            self.links.push((key, link));
        }
    }

    /// The link between `a` and `b`.
    pub fn link(&self, a: usize, b: usize) -> LinkConfig {
        let key = (a.min(b), a.max(b));
        self.links
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, l)| *l)
            .unwrap_or(self.default_link)
    }

    /// One-way transfer time for a message of `bytes` bytes from `a` to `b`:
    /// wire time plus propagation latency (CPU cost is charged separately by
    /// the endpoints via [`LinkConfig::per_message_cpu`]).
    pub fn transfer_time(&self, a: usize, b: usize, bytes: u64) -> SimDuration {
        let link = self.link(a, b);
        let wire = if link.net.bandwidth_bps == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_secs_f64(bytes as f64 * 8.0 / link.net.bandwidth_bps as f64)
        };
        wire + link.net.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(miri, ignore = "72,000 packets")]
    fn hundred_megabytes_takes_about_nine_seconds() {
        // The paper's wget benchmark: 100 MB over 100 Mbps ≈ 8.4 s of wire
        // time; all OSes report ~9 s with protocol overheads.
        let clock = SimClock::new();
        let mut net = SimNetwork::new(NetConfig::default(), clock.clone());
        let total = 100 * 1024 * 1024u64;
        let mut received = 0u64;
        while received < total {
            let chunk = core::cmp::min(1448, total - received);
            net.receive(chunk);
            received += chunk;
        }
        let secs = clock.now().as_secs_f64();
        assert!(secs > 8.0 && secs < 20.0, "transfer took {secs} s");
        assert_eq!(net.stats().bytes_rx, total);
    }

    #[test]
    fn packet_counts() {
        let net = SimNetwork::new(NetConfig::default(), SimClock::new());
        assert_eq!(net.packets_for(0), 0);
        assert_eq!(net.packets_for(1), 1);
        assert_eq!(net.packets_for(1500), 1);
        assert_eq!(net.packets_for(1501), 2);
    }

    #[test]
    fn transmit_and_receive_track_stats() {
        let mut net = SimNetwork::new(NetConfig::default(), SimClock::new());
        net.transmit(3000);
        net.receive(1000);
        let s = net.stats();
        assert_eq!(s.bytes_tx, 3000);
        assert_eq!(s.bytes_rx, 1000);
        assert_eq!(s.packets_tx, 2);
        assert_eq!(s.packets_rx, 1);
    }

    #[test]
    fn topology_links_are_symmetric_and_default() {
        let mut t = Topology::fully_connected(3);
        assert_eq!(t.nodes(), 3);
        let slow = LinkConfig {
            net: NetConfig {
                bandwidth_bps: 1_000_000,
                latency: SimDuration::from_millis(20),
                mtu: 1500,
            },
            per_message_cpu: SimDuration::from_micros(50),
        };
        t.set_link(2, 0, slow);
        // The link is the same in both directions.
        assert_eq!(t.link(0, 2).net.bandwidth_bps, 1_000_000);
        assert_eq!(t.link(2, 0).net.latency, SimDuration::from_millis(20));
        // Unconfigured pairs use the default link.
        assert_eq!(
            t.link(0, 1).net.bandwidth_bps,
            NetConfig::default().bandwidth_bps
        );
        // Transfer across the slow WAN link dominates the LAN link.
        assert!(t.transfer_time(0, 2, 10_000) > t.transfer_time(0, 1, 10_000));
        // Replacing a link overwrites rather than accumulating entries.
        t.set_link(0, 2, LinkConfig::default());
        assert_eq!(
            t.link(0, 2).net.bandwidth_bps,
            NetConfig::default().bandwidth_bps
        );
    }

    #[test]
    fn transfer_time_includes_latency() {
        let t = Topology::fully_connected(2);
        assert!(t.transfer_time(0, 1, 0) >= NetConfig::default().latency);
    }

    #[test]
    fn wire_time_scales_with_bandwidth() {
        let fast = SimNetwork::new(
            NetConfig {
                bandwidth_bps: 1_000_000_000,
                ..NetConfig::default()
            },
            SimClock::new(),
        );
        let slow = SimNetwork::new(NetConfig::default(), SimClock::new());
        assert!(fast.wire_time(1_000_000) < slow.wire_time(1_000_000));
    }
}
