//! Same seed ⇒ the same sim metrics, counts and `sim_digest`, across
//! repetitions and across processes; another seed changes the op stream
//! and still passes every check.

use std::process::Command;

use gdmp_benchmark::meter::Meter;
use gdmp_benchmark::workloads::push_soak::{PushSoak, CHAOS_SEEDS};
use gdmp_benchmark::workloads::{by_name, Workload, NAMES};

fn one_rep(name: &str, seed: u64) -> gdmp_benchmark::workloads::Rep {
    let rep = by_name(name, seed).unwrap().rep(true, &mut Meter::new(false));
    assert!(rep.errors.is_empty(), "{name} seed {seed}: {:?}", rep.errors);
    assert_eq!(rep.failed, 0, "{name} seed {seed}");
    rep
}

#[test]
fn same_seed_same_outcome_other_seed_other_stream() {
    for name in NAMES {
        let (a, b, c) = (one_rep(name, 11), one_rep(name, 11), one_rep(name, 12));
        assert_eq!(a.sim, b.sim, "{name}: same seed, different outcome");
        assert_eq!(a.sim.digest(), b.sim.digest());
        assert_eq!(a.attempted, b.attempted);
        assert_ne!(a.sim.digest(), c.sim.digest(), "{name}: the seed does not reach the inputs");
    }
}

#[test]
fn telemetry_off_leaves_the_model_alone() {
    for name in ["grid_mix", "push_soak"] {
        let live = one_rep(name, 5);
        let off = by_name(name, 5).unwrap().rep(false, &mut Meter::new(false));
        assert_eq!(live.sim.counts_digest(), off.sim.counts_digest(), "{name}");
        assert_eq!(off.sim.export_digest, None);
    }
}

/// Two processes, one seed: every `sim_*` metric and the digest agree.
#[test]
fn same_seed_same_digest_across_processes() {
    let run = || {
        let out = Command::new(env!("CARGO_BIN_EXE_gdmp-benchmark"))
            .args(["--workload", "grid_mix", "--seed", "3", "--seconds", "1", "--trace", "0"])
            .output()
            .expect("benchmark binary runs");
        assert!(out.status.success());
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(text.lines().last().unwrap().starts_with("{\"correct\": true"), "{text}");
        let sim: Vec<String> =
            text.lines().filter(|l| l.starts_with("sim_")).map(str::to_string).collect();
        assert_eq!(sim.len(), 3, "sim_mbps, sim_fetch_p50_s, sim_digest");
        sim
    };
    assert_eq!(run(), run());
}

/// Every pool seed still finishes `push_soak` with no failed op (see
/// `CHAOS_SEEDS` for why there is a pool).
#[test]
fn chaos_seed_pool_is_clean() {
    for seed in CHAOS_SEEDS {
        let rep = PushSoak::with_chaos_seed(seed).rep(false, &mut Meter::new(false));
        assert!(rep.errors.is_empty(), "{seed:#x}: {:?}", rep.errors);
        assert_eq!(rep.failed, 0, "{seed:#x}");
    }
}
