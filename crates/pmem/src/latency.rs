//! SCM latency emulation.
//!
//! The paper's evaluation platform injects extra latency into a reserved
//! DRAM region via a special BIOS, sweeping SCM latency from 90 ns (plain
//! DRAM) to 650 ns. We reproduce the effect in software: trees charge one
//! *read touch* per SCM cache line they inspect and the pool charges one
//! *write delay* per cache line it flushes. The delays are calibrated
//! busy-waits, so they consume CPU exactly like a stalled load would.

use std::time::Instant;

/// Baseline DRAM latency of the paper's platform in nanoseconds. Emulated
/// SCM latencies are expressed as *totals* (like the paper's 90/160/250/450/
/// 650 ns axis); the injected delay is the excess over this baseline.
pub const DRAM_BASELINE_NS: u64 = 90;

/// Extra latency charged on SCM accesses, per cache line.
///
/// `read_ns`/`write_ns` are the *additional* nanoseconds on top of a normal
/// DRAM access. Use [`LatencyProfile::from_total`] to build a profile from a
/// paper-style total-latency figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencyProfile {
    /// Additional nanoseconds per cache-line read from SCM.
    pub read_ns: u64,
    /// Additional nanoseconds per cache-line write-back (flush) to SCM.
    pub write_ns: u64,
}

impl LatencyProfile {
    /// No injected latency: SCM behaves exactly like DRAM (the paper's 90 ns
    /// ext4-DAX configuration).
    pub const DRAM: LatencyProfile = LatencyProfile {
        read_ns: 0,
        write_ns: 0,
    };

    /// Builds a profile from a total SCM latency in nanoseconds, e.g. 650.
    ///
    /// The paper's platform applies the same latency to reads and writes;
    /// write asymmetry can be modeled by adjusting `write_ns` afterwards.
    pub fn from_total(total_ns: u64) -> Self {
        let extra = total_ns.saturating_sub(DRAM_BASELINE_NS);
        LatencyProfile {
            read_ns: extra,
            write_ns: extra,
        }
    }

    /// True if no delay would ever be injected.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.read_ns == 0 && self.write_ns == 0
    }
}

/// Busy-waits for approximately `ns` nanoseconds.
///
/// Spin-based (no syscall, no yield): an emulated SCM stall occupies the CPU
/// just like a real memory stall. Accuracy is bounded below by the clock
/// read; on current Linux/vDSO that is ~20 ns, adequate for the 70–560 ns
/// excess latencies the paper sweeps.
#[inline]
pub fn busy_wait_ns(ns: u64) {
    if ns == 0 {
        return;
    }
    let start = Instant::now();
    while (start.elapsed().as_nanos() as u64) < ns {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_total_subtracts_dram_baseline() {
        let p = LatencyProfile::from_total(650);
        assert_eq!(p.read_ns, 560);
        assert_eq!(p.write_ns, 560);
        assert!(LatencyProfile::from_total(90).is_zero());
        assert!(LatencyProfile::from_total(10).is_zero());
    }

    #[test]
    fn zero_delay_returns_immediately() {
        assert!(LatencyProfile::DRAM.is_zero());
        let t = Instant::now();
        for _ in 0..20_000 {
            busy_wait_ns(LatencyProfile::DRAM.read_ns);
        }
        // 20k no-op delays must be far under a millisecond.
        assert!(t.elapsed().as_millis() < 50);
    }

    #[test]
    fn busy_wait_waits_at_least_requested() {
        let t = Instant::now();
        busy_wait_ns(200_000); // 200 µs, comfortably above timer noise
        assert!(t.elapsed().as_nanos() >= 200_000);
    }
}
