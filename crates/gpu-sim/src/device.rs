//! Device configurations: the hardware parameters of the paper's Table 2
//! plus the timing primitives the simulator is built on.
//!
//! The *structural* parameters (`n_SM`, `n_V`, `M_SM`, `R_SM`, bank and
//! block limits) are taken verbatim from the paper's Table 2. The
//! *timing* primitives are chosen so that the micro-benchmarks of the
//! `microbench` crate — run against this simulator, exactly as the paper
//! ran theirs against hardware — recover values on the scale of the
//! paper's Tables 3 and 4. They are inputs to the machine, not to the
//! model: the model only ever sees what the micro-benchmarks measure.

use serde::{Deserialize, Serialize};

/// Full configuration of a simulated GPU.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceConfig {
    /// Device name ("GTX 980", "Titan X").
    pub name: String,

    // ---- structural parameters (paper Table 2) ----
    /// Number of streaming multiprocessors (`n_SM`).
    pub n_sm: usize,
    /// Vector lanes (CUDA cores) per SM (`n_V`).
    pub n_v: usize,
    /// Warp size (threads issued in lockstep).
    pub warp_size: usize,
    /// Shared-memory banks per SM.
    pub shared_banks: usize,
    /// Shared memory per SM in 4-byte words (`M_SM`; 96 KB).
    pub shared_mem_words: u64,
    /// Shared-memory limit per thread block in words (48 KB — the
    /// constraint the paper's Section 5.1 exploits to force k = 2).
    pub shared_per_block_words: u64,
    /// 32-bit registers per SM (`R_SM`).
    pub regs_per_sm: u64,
    /// Maximum architectural registers per thread.
    pub max_regs_per_thread: u32,
    /// The compiler's register-allocation ceiling per thread: demand of
    /// the unrolled body beyond this spills to local memory (nvcc caps
    /// allocations well below the architectural maximum to preserve
    /// occupancy).
    pub reg_alloc_target: u32,
    /// Maximum resident thread blocks per SM (`MTB_SM`).
    pub max_blocks_per_sm: usize,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: usize,
    /// Maximum threads per block.
    pub max_threads_per_block: usize,

    // ---- timing primitives (seconds) ----
    /// Global-memory cost per 4-byte word on one SM's memory pipe: the
    /// SM's *share* of the device bandwidth (device streaming bandwidth
    /// divided by `n_SM`). The micro-benchmark reports the device-level
    /// `L` (this divided by `n_SM`), which is what the paper's Table 3
    /// lists — and what its model optimistically charges *per tile*,
    /// ignoring that co-running tiles contend for the same DRAM.
    pub word_time: f64,
    /// Fixed non-hidden latency per global transfer batch (per sub-tile
    /// load or store). The paper's model has no such term — one of its
    /// deliberate optimisms.
    pub mem_latency: f64,
    /// Cost of one block-level barrier (`τ_sync`).
    pub tau_sync: f64,
    /// Kernel launch + host synchronization cost (`T_sync`).
    pub t_launch: f64,
    /// Issue+execute time of one arithmetic operation per vector slot.
    pub op_time: f64,
    /// Amortized shared-memory access time per operand.
    pub shared_access_time: f64,
    /// Compute slowdown per spilled-register fraction (see
    /// [`crate::cost`]).
    pub spill_coeff: f64,
}

impl DeviceConfig {
    /// The paper's NVIDIA GTX 980 (Maxwell GM204) — Table 2 column 1.
    pub fn gtx980() -> Self {
        DeviceConfig {
            name: "GTX 980".into(),
            n_sm: 16,
            n_v: 128,
            warp_size: 32,
            shared_banks: 32,
            shared_mem_words: 96 * 1024 / 4,
            shared_per_block_words: 48 * 1024 / 4,
            regs_per_sm: 65536,
            max_regs_per_thread: 255,
            reg_alloc_target: 128,
            max_blocks_per_sm: 32,
            max_threads_per_sm: 2048,
            max_threads_per_block: 1024,
            // Device streaming bandwidth per Table 3: L = 7.36e-3 s/GB
            // (136 GB/s); each of the 16 SMs owns a 1/16 share.
            word_time: 7.36e-3 * 4.0 / 1e9 * 16.0,
            mem_latency: 2.0e-8,
            tau_sync: 7.96e-10,
            t_launch: 9.24e-7,
            op_time: 1.6e-9,
            shared_access_time: 2.0e-9,
            spill_coeff: 0.8,
        }
    }

    /// The paper's NVIDIA Titan X (Maxwell GM200) — Table 2 column 2.
    pub fn titan_x() -> Self {
        DeviceConfig {
            name: "Titan X".into(),
            n_sm: 24,
            n_v: 128,
            warp_size: 32,
            shared_banks: 32,
            shared_mem_words: 96 * 1024 / 4,
            shared_per_block_words: 48 * 1024 / 4,
            regs_per_sm: 65536,
            max_regs_per_thread: 255,
            reg_alloc_target: 128,
            max_blocks_per_sm: 32,
            max_threads_per_sm: 2048,
            max_threads_per_block: 1024,
            // Device streaming bandwidth per Table 3: L = 5.42e-3 s/GB
            // (185 GB/s); each of the 24 SMs owns a 1/24 share.
            word_time: 5.42e-3 * 4.0 / 1e9 * 24.0,
            mem_latency: 1.6e-8,
            tau_sync: 6.74e-10,
            t_launch: 9.00e-7,
            op_time: 1.8e-9,
            shared_access_time: 2.3e-9,
            spill_coeff: 0.8,
        }
    }

    /// Both evaluation platforms, in the paper's order.
    pub fn paper_devices() -> Vec<DeviceConfig> {
        vec![Self::gtx980(), Self::titan_x()]
    }

    /// The names of the built-in device presets, in the paper's order
    /// (the canonical spellings accepted by [`Self::preset`]).
    pub fn preset_names() -> Vec<&'static str> {
        vec!["GTX 980", "Titan X"]
    }

    /// Look up a built-in device preset by name. Matching ignores case,
    /// spaces, and dashes, so `"gtx980"`, `"GTX-980"`, and `"GTX 980"`
    /// all resolve to the same device, and the bare shorthands `"980"`
    /// and `"titan"` are accepted; `None` for unknown names.
    pub fn preset(name: &str) -> Option<DeviceConfig> {
        let canon = |s: &str| {
            s.chars()
                .filter(|c| !c.is_whitespace() && *c != '-' && *c != '_')
                .map(|c| c.to_ascii_lowercase())
                .collect::<String>()
        };
        let wanted = match canon(name).as_str() {
            "980" => "gtx980".to_string(),
            "titan" => "titanx".to_string(),
            w => w.to_string(),
        };
        Self::paper_devices()
            .into_iter()
            .find(|d| canon(&d.name) == wanted)
    }

    /// Check that the configuration describes a device the simulator and
    /// the model can run on: every count is non-zero, no per-block limit
    /// exceeds its per-SM limit, every time is finite and positive, and
    /// the spill coefficient is finite and non-negative.
    pub fn validate(&self) -> Result<(), String> {
        let counts = [
            ("n_sm", self.n_sm as u64),
            ("n_v", self.n_v as u64),
            ("warp_size", self.warp_size as u64),
            ("shared_banks", self.shared_banks as u64),
            ("shared_mem_words", self.shared_mem_words),
            ("shared_per_block_words", self.shared_per_block_words),
            ("regs_per_sm", self.regs_per_sm),
            ("max_regs_per_thread", u64::from(self.max_regs_per_thread)),
            ("reg_alloc_target", u64::from(self.reg_alloc_target)),
            ("max_blocks_per_sm", self.max_blocks_per_sm as u64),
            ("max_threads_per_sm", self.max_threads_per_sm as u64),
            ("max_threads_per_block", self.max_threads_per_block as u64),
        ];
        for (name, v) in counts {
            if v == 0 {
                return Err(format!("device {name} must be >= 1"));
            }
        }
        if self.shared_per_block_words > self.shared_mem_words {
            return Err(format!(
                "device shared_per_block_words ({}) exceeds shared_mem_words ({})",
                self.shared_per_block_words, self.shared_mem_words
            ));
        }
        if self.max_threads_per_block > self.max_threads_per_sm {
            return Err(format!(
                "device max_threads_per_block ({}) exceeds max_threads_per_sm ({})",
                self.max_threads_per_block, self.max_threads_per_sm
            ));
        }
        let times = [
            ("word_time", self.word_time),
            ("mem_latency", self.mem_latency),
            ("tau_sync", self.tau_sync),
            ("t_launch", self.t_launch),
            ("op_time", self.op_time),
            ("shared_access_time", self.shared_access_time),
        ];
        for (name, v) in times {
            if !(v.is_finite() && v > 0.0) {
                return Err(format!("device {name} must be finite and > 0, got {v}"));
            }
        }
        if !(self.spill_coeff.is_finite() && self.spill_coeff >= 0.0) {
            return Err(format!(
                "device spill_coeff must be finite and >= 0, got {}",
                self.spill_coeff
            ));
        }
        Ok(())
    }

    /// Index-addressing overhead (in arithmetic ops per iteration) of the
    /// generated tile body, by stencil rank. Higher-rank tiles traverse
    /// skewed multi-dimensional shared-memory buffers, which is the main
    /// reason the paper's measured 3D `Citer` values (Table 4) are ~4×
    /// the 2D ones.
    pub fn addressing_ops(&self, rank: usize) -> u64 {
        match rank {
            1 => 2,
            2 => 6,
            _ => 56,
        }
    }

    /// Per-iteration compute cost of a loop body with `flops` arithmetic
    /// operations and `shared_accesses` shared-memory operands, for a
    /// stencil of dimensionality `rank` — the machine-level counterpart
    /// of the paper's `Citer`.
    pub fn iter_cost(&self, flops: u64, shared_accesses: u64, rank: usize) -> f64 {
        (flops + self.addressing_ops(rank)) as f64 * self.op_time
            + shared_accesses as f64 * self.shared_access_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_structural_parameters() {
        let g = DeviceConfig::gtx980();
        let t = DeviceConfig::titan_x();
        assert_eq!(g.n_sm, 16);
        assert_eq!(t.n_sm, 24);
        assert_eq!(g.n_v, 128);
        assert_eq!(t.n_v, 128);
        assert_eq!(g.shared_mem_words * 4, 96 * 1024);
        assert_eq!(g.regs_per_sm, 65536);
        assert_eq!(g.shared_banks, 32);
        assert_eq!(g.max_blocks_per_sm, 32);
        assert_eq!(g.validate(), Ok(()));
        assert_eq!(t.validate(), Ok(()));
    }

    #[test]
    fn word_time_matches_table3_scale() {
        // Device level: 7.36e-3 s/GB → ~2.94e-11 s per word; each SM's
        // pipe runs at a 1/n_SM share.
        let g = DeviceConfig::gtx980();
        assert!((g.word_time / g.n_sm as f64 - 2.944e-11).abs() < 1e-13);
        // Titan X has higher device bandwidth (smaller device-level L).
        let t = DeviceConfig::titan_x();
        assert!(t.word_time / (t.n_sm as f64) < g.word_time / g.n_sm as f64);
    }

    #[test]
    fn iter_cost_scale_matches_table4() {
        // Jacobi2D on GTX 980: paper Citer = 3.39e-8 s; the machine's
        // per-iteration cost must be on the same scale (±50%).
        let g = DeviceConfig::gtx980();
        let c = g.iter_cost(9, 6, 2);
        assert!((1.7e-8..=5.1e-8).contains(&c), "c = {c:e}");
        // 3D bodies are several times costlier (Table 4: ~4×).
        let c3 = g.iter_cost(13, 8, 3);
        assert!(c3 > 2.5 * c, "c3 = {c3:e}, c = {c:e}");
    }

    #[test]
    fn preset_lookup_is_name_insensitive() {
        for alias in ["GTX 980", "gtx980", "GTX-980", "gtx_980"] {
            assert_eq!(
                DeviceConfig::preset(alias).map(|d| d.name),
                Some("GTX 980".to_string()),
                "{alias}"
            );
        }
        assert_eq!(DeviceConfig::preset("titan x").map(|d| d.n_sm), Some(24));
        // Bare CLI shorthands resolve too.
        assert_eq!(
            DeviceConfig::preset("980").map(|d| d.name),
            Some("GTX 980".into())
        );
        assert_eq!(DeviceConfig::preset("Titan").map(|d| d.n_sm), Some(24));
        assert!(DeviceConfig::preset("H100").is_none());
        // Every advertised preset name resolves to itself.
        for name in DeviceConfig::preset_names() {
            assert_eq!(DeviceConfig::preset(name).unwrap().name, name);
        }
    }

    #[test]
    fn iter_cost_monotone_in_flops() {
        let g = DeviceConfig::gtx980();
        assert!(g.iter_cost(25, 10, 2) > g.iter_cost(9, 6, 2));
    }
}
