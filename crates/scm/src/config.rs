//! Configuration of the simulated SCM device and its performance model.

use crate::clock::EmulationMode;

/// Effective streaming (write-through) bandwidth in bytes per nanosecond:
/// the 4 GB/s cap of the paper's evaluation platform (§6.1).
pub const WRITE_BANDWIDTH_BYTES_PER_NS: f64 = 4.0;

/// Dirty lines the simulated cache holds before it starts writing lines
/// back in the background. Background write-backs make data durable
/// without the program asking — exactly like a real cache — which is why
/// consistent-update code can never rely on data *staying* volatile.
pub(crate) const CACHE_CAPACITY_LINES: usize = 1 << 14;

/// Configuration for an [`crate::ScmSim`].
///
/// Defaults reproduce the paper's evaluation platform (§6.1): 150 ns of
/// extra write latency relative to DRAM and [`WRITE_BANDWIDTH_BYTES_PER_NS`]
/// of streaming write bandwidth, values estimated from Numonyx PCM
/// projections. Loads carry no extra latency, as in the paper's emulator
/// (§6.1: "our emulator does not account for additional latency on
/// loads").
#[derive(Debug, Clone, PartialEq)]
pub struct ScmConfig {
    /// Size of the device in bytes. Rounded up to a multiple of 64.
    pub size: u64,
    /// Additional latency of a PCM write over a DRAM write, in nanoseconds.
    /// Charged when a dirty cache line is flushed and when a fence waits for
    /// outstanding writes (§6.1).
    pub write_latency_ns: u64,
    /// How delays are realised: not at all, or by spinning (wall-clock
    /// benchmarking, the paper's method).
    pub mode: EmulationMode,
}

impl ScmConfig {
    /// Paper-default configuration (§6.1): 150 ns extra write latency,
    /// 4 GB/s streaming bandwidth, spin-loop delay emulation.
    pub fn paper_default(size: u64) -> Self {
        ScmConfig {
            size,
            write_latency_ns: 150,
            mode: EmulationMode::Spin,
        }
    }

    /// Configuration for unit tests: no delay emulation at all, so tests run
    /// at full speed while keeping identical durability semantics.
    pub fn for_testing(size: u64) -> Self {
        ScmConfig {
            mode: EmulationMode::None,
            ..Self::paper_default(size)
        }
    }

    /// Overrides the extra write latency, returning the modified config.
    /// Used by the Figure 7 sensitivity sweep (150/1000/2000 ns).
    pub fn with_write_latency_ns(mut self, ns: u64) -> Self {
        self.write_latency_ns = ns;
        self
    }

    /// Device size rounded up to whole cache lines.
    pub fn rounded_size(&self) -> u64 {
        self.size.div_ceil(crate::CACHE_LINE) * crate::CACHE_LINE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_evaluation_setup() {
        let c = ScmConfig::paper_default(1 << 20);
        assert_eq!(c.write_latency_ns, 150);
        assert!((WRITE_BANDWIDTH_BYTES_PER_NS - 4.0).abs() < f64::EPSILON);
        assert_eq!(c.mode, EmulationMode::Spin);
    }

    #[test]
    fn testing_config_disables_delays() {
        assert_eq!(ScmConfig::for_testing(4096).mode, EmulationMode::None);
    }

    #[test]
    fn size_rounds_to_lines() {
        let c = ScmConfig::for_testing(100);
        assert_eq!(c.rounded_size(), 128);
        let c = ScmConfig::for_testing(128);
        assert_eq!(c.rounded_size(), 128);
    }

    #[test]
    fn latency_override() {
        let c = ScmConfig::for_testing(4096).with_write_latency_ns(2000);
        assert_eq!(c.write_latency_ns, 2000);
    }
}
