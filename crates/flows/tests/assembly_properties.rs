//! Property tests for flow assembly over generated multi-device captures.
//!
//! Each capture mixes three devices' cloud flows, one device-to-device LAN
//! flow (either endpoint may open a burst) and transit noise, at distinct,
//! strictly increasing timestamps with gaps on both sides of the 1 s burst
//! threshold.

use behaviot_flows::{
    assemble_flows, is_local, DomainTable, FlowConfig, FlowRecord, GatewayPacket,
};
use behaviot_net::Proto;
use proptest::prelude::*;
use std::net::Ipv4Addr;

const DEV: [Ipv4Addr; 3] = [
    Ipv4Addr::new(192, 168, 1, 10),
    Ipv4Addr::new(192, 168, 1, 11),
    Ipv4Addr::new(192, 168, 1, 12),
];
const CLOUD: Ipv4Addr = Ipv4Addr::new(52, 1, 1, 1);
const DNS: Ipv4Addr = Ipv4Addr::new(8, 8, 8, 8);

/// (a, a_port, b, b_port, proto): packets go a→b or b→a.
const TUPLES: [(Ipv4Addr, u16, Ipv4Addr, u16, Proto); 6] = [
    (DEV[0], 40000, CLOUD, 443, Proto::Tcp),
    (DEV[1], 40001, CLOUD, 443, Proto::Tcp),
    (DEV[2], 40002, DNS, 53, Proto::Udp),
    (DEV[2], 40003, CLOUD, 8883, Proto::Tcp),
    (DEV[0], 5000, DEV[1], 80, Proto::Tcp),
    (CLOUD, 1234, DNS, 53, Proto::Udp), // transit: dropped
];

type Step = (f64, usize, bool, u32);

fn capture(steps: &[Step]) -> Vec<GatewayPacket> {
    let mut ts = 0.0;
    steps
        .iter()
        .map(|&(dt, flow, forward, bytes)| {
            ts += dt;
            let (a, ap, b, bp, proto) = TUPLES[flow];
            let ((src, src_port), (dst, dst_port)) = if forward {
                ((a, ap), (b, bp))
            } else {
                ((b, bp), (a, ap))
            };
            GatewayPacket {
                ts,
                src,
                dst,
                src_port,
                dst_port,
                proto,
                bytes,
            }
        })
        .collect()
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        (
            0.01f64..2.5,
            0usize..TUPLES.len(),
            any::<bool>(),
            40u32..1500,
        ),
        1..200,
    )
}

/// Deterministic Fisher–Yates shuffle driven by a splitmix64 stream.
fn shuffle<T>(v: &mut [T], mut seed: u64) {
    for i in (1..v.len()).rev() {
        seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        v.swap(i, (z % (i as u64 + 1)) as usize);
    }
}

/// Endpoint pair of a burst, independent of which side it is attributed to.
fn unordered(f: &FlowRecord) -> ((Ipv4Addr, u16), (Ipv4Addr, u16), Proto) {
    let x = (f.device, f.device_port);
    let y = (f.remote, f.remote_port);
    (x.min(y), x.max(y), f.proto)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any input order gives the same bursts, in the same order, down to
    /// the last feature bit.
    #[test]
    fn output_is_invariant_under_shuffle(steps in steps(), seed in any::<u64>()) {
        let packets = capture(&steps);
        let cfg = FlowConfig::default();
        let domains = DomainTable::new();
        let want = format!("{:?}", assemble_flows(&packets, &domains, &cfg));
        let mut shuffled = packets.clone();
        shuffle(&mut shuffled, seed);
        prop_assert_eq!(format!("{:?}", assemble_flows(&shuffled, &domains, &cfg)), want);
    }

    /// Every locally addressed packet and byte lands in exactly one burst.
    #[test]
    fn packets_and_bytes_are_conserved(steps in steps()) {
        let packets = capture(&steps);
        let cfg = FlowConfig::default();
        let flows = assemble_flows(&packets, &DomainTable::new(), &cfg);
        let local: Vec<&GatewayPacket> = packets
            .iter()
            .filter(|p| is_local(p.src, cfg.subnet, cfg.prefix_len) || is_local(p.dst, cfg.subnet, cfg.prefix_len))
            .collect();
        prop_assert_eq!(flows.iter().map(|f| f.n_packets).sum::<usize>(), local.len());
        prop_assert_eq!(
            flows.iter().map(|f| f.total_bytes).sum::<u64>(),
            local.iter().map(|p| p.bytes as u64).sum::<u64>()
        );
    }

    /// Consecutive bursts of one 5-tuple are separated by more than the
    /// burst gap, and the output is sorted by start.
    #[test]
    fn bursts_of_one_flow_are_gap_separated(steps in steps()) {
        let cfg = FlowConfig::default();
        let flows = assemble_flows(&capture(&steps), &DomainTable::new(), &cfg);
        prop_assert!(flows.windows(2).all(|w| w[0].start <= w[1].start));
        for (i, f) in flows.iter().enumerate() {
            prop_assert!(f.end >= f.start);
            if let Some(next) = flows[i + 1..].iter().find(|g| unordered(g) == unordered(f)) {
                prop_assert!(
                    next.start - f.end > cfg.burst_gap,
                    "bursts {:?} and {:?} are {} s apart",
                    f, next, next.start - f.end
                );
            }
        }
    }
}
