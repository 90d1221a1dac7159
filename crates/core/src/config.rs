//! Accelerator configuration (§VI-A "Accelerator Modeling").

use crate::request::{SimError, MAX_K};
use aurora_mapping::MappingPolicy;
use aurora_pe::PeConfig;
use serde::{Deserialize, Serialize};

/// Full static configuration of one Aurora instance, including the
/// ablation switches the experiment harness sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AcceleratorConfig {
    /// PE-array radix: the array is `k × k` (paper: 32).
    pub k: usize,
    /// Core clock in MHz (paper: 700).
    pub clock_mhz: u64,
    /// Per-PE parameters (100 KB bank buffer, MAC lanes, …).
    pub pe: PeConfig,
    /// Payload words per NoC flit: every on-chip message takes
    /// `⌈words / words_per_flit⌉` flits.
    pub words_per_flit: usize,
    /// DDR3-1600 channels (4 ⇒ ~51 GB/s, a typical accelerator budget).
    pub dram_channels: usize,
    /// Vertex-placement policy (degree-aware vs the hashing baseline).
    pub mapping_policy: MappingPolicy,
    /// Whether the reconfigurable NoC (bypass segments + ring mode) is
    /// active — disabling it is the flexible-NoC ablation.
    pub flexible_noc: bool,
    /// Whether Algorithm 2 sizes the sub-accelerators; when off, a fixed
    /// 50/50 split is used (the partition ablation).
    pub dynamic_partition: bool,
    /// Fraction of on-chip buffer capacity reserved for resident vertex
    /// features when tiling.
    pub feature_fraction: f64,
    /// Achievable fraction of raw NoC link bandwidth under irregular
    /// traffic (paper §VI-C's "efficient on-chip bandwidth"). Wormhole
    /// head-of-line blocking and power-law row/column skew keep real
    /// aggregation patterns well below 1.0; the 0.6 default matches the
    /// mean utilisation the cycle-level `aurora-noc` engine measures on
    /// R-MAT traffic. Recorded in the profile header so reports are
    /// self-describing.
    pub link_utilisation: f64,
    /// Record the controller instruction trace (tests/examples only; the
    /// trace grows with tile count).
    pub trace_instructions: bool,
}

impl Default for AcceleratorConfig {
    /// The paper's configuration.
    fn default() -> Self {
        Self {
            k: 32,
            clock_mhz: 700,
            pe: PeConfig::default(),
            words_per_flit: 4,
            dram_channels: 4,
            mapping_policy: MappingPolicy::DegreeAware,
            flexible_noc: true,
            dynamic_partition: true,
            feature_fraction: 0.5,
            link_utilisation: crate::noc_model::DEFAULT_LINK_UTILISATION,
            trace_instructions: false,
        }
    }
}

impl AcceleratorConfig {
    /// Total PEs (`k²`).
    pub fn num_pes(&self) -> usize {
        self.k * self.k
    }

    /// One PE's throughput in FLOP/s (each MAC lane retires a multiply and
    /// an add per cycle).
    pub fn flops_per_pe(&self) -> f64 {
        2.0 * self.pe.lanes as f64 * self.clock_mhz as f64 * 1e6
    }

    /// Total on-chip buffer bytes (paper: 1024 × 100 KB ≈ 100 MB).
    pub fn onchip_bytes(&self) -> usize {
        self.num_pes() * self.pe.buffer_bytes
    }

    /// Converts seconds to core cycles.
    pub fn cycles_of(&self, seconds: f64) -> u64 {
        (seconds * self.clock_mhz as f64 * 1e6).ceil() as u64
    }

    /// Rejects a configuration the engine cannot run, as one typed
    /// [`SimError::InvalidRequest`]: a radix outside `1..=MAX_K`, a zero
    /// clock, MAC-lane or DRAM-channel count (each a library assert), a
    /// zero flit payload (a division by zero in the flit count), and a
    /// `feature_fraction` or `link_utilisation` outside `(0, 1]` (each
    /// silently yields a meaningless report).
    pub fn validate(&self) -> Result<(), SimError> {
        let invalid = |msg: String| Err(SimError::InvalidRequest(msg));
        if !(1..=MAX_K).contains(&self.k) {
            return invalid(format!("config.k must be in 1..={MAX_K}, got {}", self.k));
        }
        for (name, value) in [
            ("clock_mhz", self.clock_mhz),
            ("pe.lanes", self.pe.lanes as u64),
            ("words_per_flit", self.words_per_flit as u64),
            ("dram_channels", self.dram_channels as u64),
        ] {
            if value == 0 {
                return invalid(format!("config.{name} must be >= 1, got 0"));
            }
        }
        for (name, value) in [
            ("feature_fraction", self.feature_fraction),
            ("link_utilisation", self.link_utilisation),
        ] {
            // written so that NaN fails too
            if !(value > 0.0 && value <= 1.0) {
                return invalid(format!("config.{name} must be in (0, 1], got {value}"));
            }
        }
        Ok(())
    }

    /// A small configuration for unit tests and detailed-NoC validation.
    pub fn small(k: usize) -> Self {
        Self {
            k,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = AcceleratorConfig::default();
        assert_eq!(c.num_pes(), 1024);
        assert_eq!(c.onchip_bytes(), 1024 * 100 * 1024);
        assert_eq!(c.clock_mhz, 700);
    }

    #[test]
    fn flops_per_pe() {
        let c = AcceleratorConfig::default();
        // 16 lanes × 2 flops × 700 MHz = 22.4 GFLOP/s
        assert!((c.flops_per_pe() - 22.4e9).abs() < 1.0);
    }

    #[test]
    fn link_utilisation_defaults_to_model_constant() {
        let c = AcceleratorConfig::default();
        assert_eq!(
            c.link_utilisation,
            crate::noc_model::DEFAULT_LINK_UTILISATION
        );
        assert_eq!(c.link_utilisation, 0.6);
    }

    #[test]
    fn validate_rejects_what_the_engine_cannot_run() {
        assert!(AcceleratorConfig::default().validate().is_ok());
        assert!(AcceleratorConfig::small(MAX_K).validate().is_ok());
        type Break = fn(&mut AcceleratorConfig);
        let bad: [(&str, Break); 13] = [
            ("k", |c| c.k = 0),
            ("k", |c| c.k = MAX_K + 1),
            ("clock_mhz", |c| c.clock_mhz = 0),
            ("pe.lanes", |c| c.pe.lanes = 0),
            ("words_per_flit", |c| c.words_per_flit = 0),
            ("dram_channels", |c| c.dram_channels = 0),
            ("feature_fraction", |c| c.feature_fraction = 0.0),
            ("feature_fraction", |c| c.feature_fraction = -1.0),
            ("feature_fraction", |c| c.feature_fraction = 2.0),
            ("feature_fraction", |c| c.feature_fraction = f64::NAN),
            ("link_utilisation", |c| c.link_utilisation = 0.0),
            ("link_utilisation", |c| c.link_utilisation = -1.0),
            ("link_utilisation", |c| c.link_utilisation = 1.5),
        ];
        for (field, break_it) in bad {
            let mut c = AcceleratorConfig::default();
            break_it(&mut c);
            match c.validate() {
                Err(SimError::InvalidRequest(msg)) => {
                    assert!(msg.contains(field), "{field}: {msg}")
                }
                other => panic!("{field}: {other:?}"),
            }
        }
        // the upper ends of both fractions are usable
        let mut c = AcceleratorConfig::default();
        (c.feature_fraction, c.link_utilisation) = (1.0, 1.0);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn cycle_conversion() {
        let c = AcceleratorConfig::default();
        assert_eq!(c.cycles_of(1e-6), 700);
        assert_eq!(c.cycles_of(0.0), 0);
    }
}
