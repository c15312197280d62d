//! The simulated sessions the GridFTP model produces, pinned bit for bit: a
//! fixed list of sessions over the production, clean and packet-exact
//! profiles (0 B to 5 MB, 1 to 8 streams, 64 KB and 1 MB buffers, cold and
//! warm, tiny payloads split over more streams than bytes) is run forward
//! and then in reverse. Each report's fields and what its outcome publishes
//! to a fresh registry are folded into one FNV-1a digest. Whatever caches
//! the simulator keeps, the digest must not move.

use gdmp_gridftp::sim::{SessionCache, SimTransferReport, WanProfile};
use gdmp_simnet::link::LinkSpec;
use gdmp_telemetry::Registry;

const KB: u64 = 1024;
const MB: u64 = 1024 * 1024;

/// The digest the list folds to.
const SESSIONS_DIGEST: u64 = 0x1cb1_e702_4f56_0abb;

fn fnv1a(hash: &mut u64, text: &str) {
    for b in text.bytes() {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

/// `(bytes, streams, buffer, warm)`: every size, stream count, buffer and
/// warmth at least once, `bytes < streams` twice, and shapes that share a
/// warm-up with different payloads.
const SHAPES: [(u64, u32, u64, bool); 11] = [
    (0, 1, 64 * KB, false),
    (1, 4, MB, true),
    (1, 8, 64 * KB, false),
    (8 * KB, 4, 64 * KB, false),
    (8 * KB, 8, MB, true),
    (8 * KB, 1, MB, false),
    (5 * MB, 1, 64 * KB, true),
    (5 * MB, 4, MB, false),
    (5 * MB, 8, 64 * KB, false),
    (8 * KB, 4, 64 * KB, true),
    (5 * MB, 4, 64 * KB, false),
];

fn profiles() -> [WanProfile; 3] {
    let production = WanProfile::cern_anl_production();
    [production, WanProfile::clean(LinkSpec::cern_anl()), production.exact()]
}

#[test]
fn session_results_are_pinned() {
    let mut list = Vec::new();
    for profile in profiles() {
        list.extend(SHAPES.iter().map(|&shape| (profile, shape)));
    }
    let reversed: Vec<_> = list.iter().rev().copied().collect();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    // Each pass on a cache of its own, so the reverse pass meets each
    // recipe first with another payload.
    for pass in [list, reversed] {
        let mut cache = SessionCache::default();
        for (profile, (bytes, streams, buffer, warm)) in pass {
            let outcome = cache.session(&profile, bytes, streams, buffer, warm);
            let SimTransferReport {
                bytes,
                streams,
                buffer,
                data_time,
                setup_time,
                retransmitted_segments,
                timeouts,
                events_processed,
                events_skipped,
                ..
            } = outcome.report;
            let reg = Registry::new();
            outcome.publish(&reg);
            fnv1a(
                &mut hash,
                &format!(
                    "{bytes} {streams} {buffer} {data_time:?} {setup_time:?} \
                     {retransmitted_segments} {timeouts} {events_processed} {events_skipped}\n"
                ),
            );
            fnv1a(&mut hash, &reg.export_json_lines());
        }
    }
    assert_eq!(hash, SESSIONS_DIGEST, "session digest {hash:#018x}");
}
