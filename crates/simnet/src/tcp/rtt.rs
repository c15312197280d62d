//! Jacobson/Karels round-trip-time estimation and RTO computation.

use crate::time::SimDuration;

/// Smoothed RTT estimator (RFC 6298 constants: α=1/8, β=1/4, K=4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RttEstimator {
    srtt: Option<SimDuration>,
    rttvar: SimDuration,
    rto: SimDuration,
    min_rto: SimDuration,
    max_rto: SimDuration,
    /// Number of valid samples observed.
    pub samples: u64,
}

impl RttEstimator {
    pub fn new(min_rto: SimDuration) -> Self {
        RttEstimator {
            srtt: None,
            rttvar: SimDuration::ZERO,
            // RFC 6298: initial RTO of 1 s (clamped below by min_rto).
            rto: SimDuration::from_secs(1).max(min_rto),
            min_rto,
            max_rto: SimDuration::from_secs(60),
            samples: 0,
        }
    }

    /// Feed one RTT sample (only for segments never retransmitted — Karn).
    pub fn sample(&mut self, rtt: SimDuration) {
        self.samples += 1;
        match self.srtt {
            None => {
                self.srtt = Some(rtt);
                self.rttvar = SimDuration(rtt.nanos() / 2);
            }
            Some(srtt) => {
                let err = srtt.nanos().abs_diff(rtt.nanos());
                self.rttvar = SimDuration((self.rttvar.nanos() * 3 + err) / 4);
                self.srtt = Some(SimDuration((srtt.nanos() * 7 + rtt.nanos()) / 8));
            }
        }
        let srtt = self.srtt.unwrap();
        self.rto =
            SimDuration(srtt.nanos() + 4 * self.rttvar.nanos()).max(self.min_rto).min(self.max_rto);
    }

    /// Current retransmission timeout.
    pub fn rto(&self) -> SimDuration {
        self.rto
    }

    /// Exponential backoff after a timeout.
    pub fn backoff(&mut self) {
        self.rto = SimDuration(self.rto.nanos().saturating_mul(2)).min(self.max_rto);
    }

    pub fn srtt(&self) -> Option<SimDuration> {
        self.srtt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_sample_seeds_estimate() {
        let mut e = RttEstimator::new(SimDuration::from_millis(200));
        e.sample(SimDuration::from_millis(100));
        assert_eq!(e.srtt().unwrap().nanos(), 100_000_000);
        // RTO = srtt + 4*rttvar = 100 + 4*50 = 300 ms.
        assert_eq!(e.rto().nanos(), 300_000_000);
    }

    #[test]
    fn stable_samples_converge() {
        let mut e = RttEstimator::new(SimDuration::from_millis(200));
        for _ in 0..100 {
            e.sample(SimDuration::from_millis(125));
        }
        let srtt = e.srtt().unwrap().as_secs_f64();
        assert!((srtt - 0.125).abs() < 1e-3, "srtt={srtt}");
        // Variance decays; RTO approaches min(srtt + small, min_rto floor).
        assert!(e.rto().nanos() >= 200_000_000);
    }

    #[test]
    fn min_rto_floor_applies() {
        let mut e = RttEstimator::new(SimDuration::from_secs(1));
        for _ in 0..50 {
            e.sample(SimDuration::from_millis(1));
        }
        assert_eq!(e.rto(), SimDuration::from_secs(1));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let mut e = RttEstimator::new(SimDuration::from_millis(200));
        e.sample(SimDuration::from_millis(100));
        let r0 = e.rto().nanos();
        e.backoff();
        assert_eq!(e.rto().nanos(), 2 * r0);
        for _ in 0..20 {
            e.backoff();
        }
        assert_eq!(e.rto(), SimDuration::from_secs(60));
    }
}
