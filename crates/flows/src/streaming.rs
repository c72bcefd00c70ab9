//! Flow assembly: the one implementation of flow grouping, orientation and
//! burst splitting.
//!
//! [`StreamingAssembler`] takes packets as they arrive and emits completed
//! bursts as soon as they are known to be closed (no packet can extend a
//! burst once `now` is more than the burst gap past its last packet), with
//! bounded memory: idle flow state is evicted as bursts close. A gateway
//! feeds it live; [`assemble_flows`](crate::assemble_flows) feeds it a
//! whole capture in timestamp order and flushes, so training and serving
//! share every burst boundary and every orientation decision.
//!
//! Each burst is attributed to its initiator: the sender of the burst's
//! first packet if that sender is local, else the local receiver.
//!
//! The hot path is allocation-free in steady state: [`StreamingAssembler::push_into`]
//! drains closed bursts into a caller-provided `Vec` (instead of returning
//! a fresh one per packet), per-burst packet buffers are recycled through
//! an internal pool when bursts close, and eviction scans reuse a scratch
//! key list.

use crate::domain::DomainTable;
use crate::features::{extract_with, FeatureScratch, PacketView};
use crate::flow::{FlowConfig, FlowRecord};
use crate::packet::GatewayPacket;
use crate::{is_local, FlowKey};
use behaviot_intern::FxHashMap;
use std::net::Ipv4Addr;

#[derive(PartialEq, Eq, Hash, Clone, Copy)]
struct Unordered {
    a: (Ipv4Addr, u16),
    b: (Ipv4Addr, u16),
    proto: behaviot_net::Proto,
}

struct OpenBurst {
    key: FlowKey,
    packets: Vec<PacketView>,
    last_ts: f64,
}

/// Upper bound on pooled packet buffers — enough for the open-burst working
/// set of a busy gateway without hoarding memory after a traffic spike.
const POOL_CAP: usize = 64;

/// Incremental flow/burst assembler. Packets must arrive in (approximately)
/// chronological order; small reordering within the burst gap is tolerated,
/// larger reordering splits bursts exactly as a real middlebox observer
/// would experience it.
pub struct StreamingAssembler {
    cfg: FlowConfig,
    open: FxHashMap<Unordered, OpenBurst>,
    /// Eviction clock (high-water mark of observed time). Starts at −∞ so
    /// a capture stamped before t = 0 is not aged against a phantom 0.
    clock: f64,
    scratch: FeatureScratch,
    /// Recycled packet buffers for new bursts.
    pool: Vec<Vec<PacketView>>,
    /// Reusable key list for eviction scans.
    expired: Vec<Unordered>,
    /// Lower bound on the earliest instant any open burst can expire
    /// (`min(last_ts) + burst_gap`). Eviction scans are skipped entirely
    /// while `clock` has not passed it, so the per-packet hot path does not
    /// walk the open-burst map at all in steady state. May be stale-low
    /// after a burst's `last_ts` advances (causing a scan that finds
    /// nothing), never stale-high — so no expiry is ever delayed and burst
    /// boundaries are bit-identical to the always-scan behavior.
    next_deadline: f64,
    /// Closed-burst counter handle (`flows.stream_bursts`), held so the
    /// per-burst path pays one relaxed fetch_add, not a registry lookup.
    bursts: behaviot_obs::Counter,
}

impl StreamingAssembler {
    /// New assembler with the given configuration.
    pub fn new(cfg: FlowConfig) -> Self {
        Self {
            cfg,
            open: FxHashMap::default(),
            clock: f64::NEG_INFINITY,
            scratch: FeatureScratch::new(),
            pool: Vec::new(),
            expired: Vec::new(),
            next_deadline: f64::INFINITY,
            bursts: behaviot_obs::metrics().counter("flows.stream_bursts"),
        }
    }

    /// Number of currently open (unflushed) bursts.
    pub fn open_bursts(&self) -> usize {
        self.open.len()
    }

    /// Feed one packet, appending any bursts that closed as a consequence
    /// of time advancing to this packet's timestamp onto `out`. Steady-state
    /// allocation-free: when nothing closes, nothing is allocated.
    pub fn push_into(&mut self, p: &GatewayPacket, domains: &DomainTable, out: &mut Vec<FlowRecord>) {
        self.advance_clock(p.ts, domains, out);
        self.evict_into(domains, out);

        let src_local = is_local(p.src, self.cfg.subnet, self.cfg.prefix_len);
        let dst_local = is_local(p.dst, self.cfg.subnet, self.cfg.prefix_len);
        if !src_local && !dst_local {
            return;
        }
        let x = (p.src, p.src_port);
        let y = (p.dst, p.dst_port);
        let uk = if x <= y {
            Unordered {
                a: x,
                b: y,
                proto: p.proto,
            }
        } else {
            Unordered {
                a: y,
                b: x,
                proto: p.proto,
            }
        };
        // Single map probe for the steady-state case: the flow already has
        // an open burst and this packet extends it.
        if let Some(open) = self.open.get_mut(&uk) {
            if p.ts - open.last_ts <= self.cfg.burst_gap {
                open.packets.push(PacketView {
                    ts: p.ts,
                    bytes: p.bytes,
                    outbound: p.src == open.key.device && p.src_port == open.key.device_port,
                    remote_is_local: is_local(open.key.remote, self.cfg.subnet, self.cfg.prefix_len),
                });
                open.last_ts = open.last_ts.max(p.ts);
                let deadline = open.last_ts + self.cfg.burst_gap;
                self.next_deadline = self.next_deadline.min(deadline);
                return;
            }
            // A gap beyond the threshold closes the previous burst of this
            // flow even before eviction time; a fresh burst starts below.
            let b = self.open.remove(&uk).expect("just looked up");
            self.close_burst(b, domains, out);
        }
        let key = if src_local {
            FlowKey {
                device: p.src,
                remote: p.dst,
                device_port: p.src_port,
                remote_port: p.dst_port,
                proto: p.proto,
            }
        } else {
            FlowKey {
                device: p.dst,
                remote: p.src,
                device_port: p.dst_port,
                remote_port: p.src_port,
                proto: p.proto,
            }
        };
        let mut packets = self.pool.pop().unwrap_or_default();
        packets.push(PacketView {
            ts: p.ts,
            bytes: p.bytes,
            outbound: p.src == key.device && p.src_port == key.device_port,
            remote_is_local: is_local(key.remote, self.cfg.subnet, self.cfg.prefix_len),
        });
        self.next_deadline = self.next_deadline.min(p.ts + self.cfg.burst_gap);
        self.open.insert(
            uk,
            OpenBurst {
                key,
                packets,
                last_ts: p.ts,
            },
        );
    }

    /// Advance the clock without a packet (e.g. a timer tick), appending
    /// bursts that aged out onto `out`.
    pub fn tick_into(&mut self, now: f64, domains: &DomainTable, out: &mut Vec<FlowRecord>) {
        self.advance_clock(now, domains, out);
        self.evict_into(domains, out);
    }

    /// Advance the monotonized eviction clock to observed time `t`.
    ///
    /// Forward motion (and bounded backwards motion, up to
    /// `cfg.clock_jump_tolerance`) keeps the clock at the high-water mark —
    /// eviction must never run backwards for mere packet reordering. A
    /// *large* backwards step is a clock jump (NTP step, capture restart):
    /// keeping the stale high-water mark would instantly expire every burst
    /// opened after the jump, forever. Instead the clock re-anchors to `t`,
    /// and bursts stranded in the old epoch (unreachable from the new
    /// timeline, so no future packet may legitimately extend them) are
    /// closed once, cleanly.
    fn advance_clock(&mut self, t: f64, domains: &DomainTable, out: &mut Vec<FlowRecord>) {
        if t + self.cfg.clock_jump_tolerance >= self.clock {
            self.clock = self.clock.max(t);
            return;
        }
        let gap = self.cfg.burst_gap;
        self.expired.clear();
        self.expired.extend(
            self.open
                .iter()
                .filter(|(_, b)| b.last_ts > t + gap)
                .map(|(&k, _)| k),
        );
        let start = out.len();
        let keys = std::mem::take(&mut self.expired);
        for k in &keys {
            let b = self.open.remove(k).expect("listed above");
            self.close_burst(b, domains, out);
        }
        self.expired = keys;
        out[start..].sort_by(|a, b| a.start.total_cmp(&b.start));
        self.clock = t;
        self.next_deadline = self.min_deadline(gap);
    }

    /// Close every remaining burst (end of capture), appending them onto
    /// `out` sorted by start time.
    pub fn flush_into(&mut self, domains: &DomainTable, out: &mut Vec<FlowRecord>) {
        let start = out.len();
        self.expired.clear();
        self.expired.extend(self.open.keys().copied());
        let keys = std::mem::take(&mut self.expired);
        for k in &keys {
            let b = self.open.remove(k).expect("listed above");
            self.close_burst(b, domains, out);
        }
        self.expired = keys;
        self.next_deadline = f64::INFINITY;
        out[start..].sort_by(|a, b| a.start.total_cmp(&b.start));
    }

    fn evict_into(&mut self, domains: &DomainTable, out: &mut Vec<FlowRecord>) {
        // Nothing can have expired before the earliest deadline: skip the
        // scan without touching the map (the steady-state case).
        if self.clock <= self.next_deadline {
            return;
        }
        let gap = self.cfg.burst_gap;
        let clock = self.clock;
        self.expired.clear();
        self.expired.extend(
            self.open
                .iter()
                .filter(|(_, b)| clock - b.last_ts > gap)
                .map(|(&k, _)| k),
        );
        if self.expired.is_empty() {
            // The deadline was stale-low (some burst's last_ts advanced);
            // re-tighten it so the next pushes skip again.
            self.next_deadline = self.min_deadline(gap);
            return;
        }
        let start = out.len();
        let keys = std::mem::take(&mut self.expired);
        for k in &keys {
            let b = self.open.remove(k).expect("listed above");
            self.close_burst(b, domains, out);
        }
        self.expired = keys;
        self.next_deadline = self.min_deadline(gap);
        out[start..].sort_by(|a, b| a.start.total_cmp(&b.start));
    }

    /// Earliest instant any currently open burst can expire.
    fn min_deadline(&self, gap: f64) -> f64 {
        self.open
            .values()
            .map(|b| b.last_ts + gap)
            .fold(f64::INFINITY, f64::min)
    }

    /// Turn a closed burst into a [`FlowRecord`] appended to `out`,
    /// recycling the burst's packet buffer through the pool.
    fn close_burst(&mut self, b: OpenBurst, domains: &DomainTable, out: &mut Vec<FlowRecord>) {
        let OpenBurst {
            key, mut packets, ..
        } = b;
        packets.sort_by(|x, y| x.ts.total_cmp(&y.ts));
        let features = extract_with(&packets, &mut self.scratch);
        out.push(FlowRecord {
            device: key.device,
            remote: key.remote,
            device_port: key.device_port,
            remote_port: key.remote_port,
            proto: key.proto,
            domain: domains.resolve(key.remote),
            start: packets[0].ts,
            end: packets[packets.len() - 1].ts,
            n_packets: packets.len(),
            total_bytes: packets.iter().map(|p| p.bytes as u64).sum(),
            features,
        });
        if self.pool.len() < POOL_CAP {
            packets.clear();
            self.pool.push(packets);
        }
        self.bursts.inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use behaviot_net::Proto;

    const DEV: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 10);
    const SRV: Ipv4Addr = Ipv4Addr::new(52, 1, 1, 1);

    fn pkt(ts: f64, out: bool, bytes: u32) -> GatewayPacket {
        GatewayPacket {
            ts,
            src: if out { DEV } else { SRV },
            dst: if out { SRV } else { DEV },
            src_port: if out { 40000 } else { 443 },
            dst_port: if out { 443 } else { 40000 },
            proto: Proto::Tcp,
            bytes,
        }
    }

    #[test]
    fn bursts_emitted_incrementally() {
        let domains = DomainTable::new();
        let mut s = StreamingAssembler::new(FlowConfig::default());
        let mut out = Vec::new();
        s.push_into(&pkt(0.0, true, 100), &domains, &mut out);
        s.push_into(&pkt(0.2, false, 200), &domains, &mut out);
        assert!(out.is_empty());
        assert_eq!(s.open_bursts(), 1);
        // A packet 10 s later closes the previous burst of the same flow.
        s.push_into(&pkt(10.0, true, 100), &domains, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].n_packets, 2);
        assert_eq!(s.open_bursts(), 1);
        // A tick far in the future drains the rest.
        s.tick_into(100.0, &domains, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(s.open_bursts(), 0);
    }

    #[test]
    fn memory_bounded_by_eviction() {
        let domains = DomainTable::new();
        let mut s = StreamingAssembler::new(FlowConfig::default());
        // 1000 one-packet flows spread over time: eviction keeps the map
        // small.
        let mut max_open = 0;
        let mut sink = Vec::new();
        for i in 0..1000u32 {
            let p = GatewayPacket {
                ts: i as f64 * 0.5,
                src: DEV,
                dst: SRV,
                src_port: 10000 + (i % 500) as u16,
                dst_port: 443,
                proto: Proto::Tcp,
                bytes: 100,
            };
            s.push_into(&p, &domains, &mut sink);
            max_open = max_open.max(s.open_bursts());
        }
        assert!(max_open < 10, "open bursts peaked at {max_open}");
        // After flushing, every burst buffer has been recycled through the
        // (bounded) pool rather than dropped.
        s.flush_into(&domains, &mut sink);
        assert!(s.pool.len() <= POOL_CAP);
        assert!(!s.pool.is_empty());
    }

    #[test]
    fn backwards_clock_jump_does_not_flush_every_flow() {
        // Regression: eviction used the raw packet timestamp high-water
        // mark as `now`, so after one backwards clock jump (here: 1 hour)
        // every burst opened post-jump was instantly expired — each packet
        // became its own single-packet burst, forever.
        let domains = DomainTable::new();
        let mut s = StreamingAssembler::new(FlowConfig::default());
        let mut out = Vec::new();

        // Pre-jump: a burst around t = 3600.
        s.push_into(&pkt(3600.0, true, 100), &domains, &mut out);
        s.push_into(&pkt(3600.2, false, 200), &domains, &mut out);
        assert_eq!(s.open_bursts(), 1);

        // The capture clock steps back one hour; a new burst arrives on a
        // different flow over the next few hundred milliseconds.
        let post: Vec<GatewayPacket> = (0..4)
            .map(|i| GatewayPacket {
                ts: 10.0 + i as f64 * 0.2,
                src: DEV,
                dst: SRV,
                src_port: 41000,
                dst_port: 443,
                proto: Proto::Udp,
                bytes: 90,
            })
            .collect();
        for p in &post {
            s.push_into(p, &domains, &mut out);
        }
        // The jump closed the stranded pre-jump burst (it is unreachable
        // from the new timeline), and nothing else.
        assert_eq!(out.len(), 1, "post-jump bursts were wrongly flushed");
        assert_eq!(out[0].n_packets, 2);
        assert!((out[0].start - 3600.0).abs() < 1e-9);
        // The post-jump packets stayed one coherent open burst.
        assert_eq!(s.open_bursts(), 1);
        s.flush_into(&domains, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[1].n_packets, 4, "post-jump burst was fragmented");

        // And eviction still works on the new timeline.
        let mut s2 = StreamingAssembler::new(FlowConfig::default());
        let mut out2 = Vec::new();
        s2.push_into(&pkt(3600.0, true, 100), &domains, &mut out2);
        s2.push_into(&pkt(10.0, false, 200), &domains, &mut out2);
        s2.tick_into(20.0, &domains, &mut out2);
        assert_eq!(out2.len(), 2, "eviction dead after re-anchor");
    }

    #[test]
    fn small_reorder_below_tolerance_keeps_highwater_clock() {
        // A dip smaller than clock_jump_tolerance is packet reordering,
        // not a clock jump: the eviction clock must not move backwards.
        let domains = DomainTable::new();
        let mut s = StreamingAssembler::new(FlowConfig::default());
        let mut out = Vec::new();
        s.push_into(&pkt(100.0, true, 100), &domains, &mut out);
        s.push_into(&pkt(99.8, false, 200), &domains, &mut out);
        assert_eq!(s.open_bursts(), 1);
        assert!(out.is_empty());
        s.flush_into(&domains, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].n_packets, 2);
    }

    #[test]
    fn transit_ignored() {
        let domains = DomainTable::new();
        let mut s = StreamingAssembler::new(FlowConfig::default());
        let foreign = GatewayPacket {
            ts: 0.0,
            src: SRV,
            dst: Ipv4Addr::new(8, 8, 8, 8),
            src_port: 1,
            dst_port: 2,
            proto: Proto::Tcp,
            bytes: 100,
        };
        let mut out = Vec::new();
        s.push_into(&foreign, &domains, &mut out);
        assert_eq!(s.open_bursts(), 0);
        s.flush_into(&domains, &mut out);
        assert!(out.is_empty());
    }
}
