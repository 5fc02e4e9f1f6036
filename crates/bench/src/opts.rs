//! Shared experiment options and scaling presets.

use std::path::PathBuf;

/// Options shared by every experiment.
#[derive(Debug, Clone)]
pub struct ExpOpts {
    /// Uniform-environment host count (paper: 100 000).
    pub n: usize,
    /// Master seed.
    pub seed: u64,
    /// Where CSVs go (`None` = stdout only).
    pub out_dir: Option<PathBuf>,
    /// Quick mode: shrink populations and trace horizons ~100× for smoke
    /// runs; the shapes survive, the absolute errors get noisier.
    pub quick: bool,
}

impl Default for ExpOpts {
    fn default() -> Self {
        Self { n: 100_000, seed: 0xD15EA5E, out_dir: None, quick: false }
    }
}

impl ExpOpts {
    /// The quick-mode population rule: ~100× smaller, floored so the
    /// statistics stay meaningful. Scenario runs (`experiments run
    /// --quick`) apply the same rule to `n` and to `n`-sweep values.
    pub fn quick_scale(n: usize) -> usize {
        (n / 100).max(500)
    }

    /// Effective uniform-env population.
    pub fn population(&self) -> usize {
        if self.quick {
            Self::quick_scale(self.n)
        } else {
            self.n
        }
    }

    /// Quick-mode trace horizon, in simulated hours.
    pub const QUICK_TRACE_HOURS: u64 = 12;

    /// Fig. 6 network sizes.
    pub fn fig6_sizes(&self) -> Vec<usize> {
        if self.quick {
            vec![1_000, 10_000]
        } else {
            vec![1_000, 10_000, 100_000]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_mode_scales_down() {
        let full = ExpOpts::default();
        let quick = ExpOpts { quick: true, ..ExpOpts::default() };
        assert_eq!(full.population(), 100_000);
        assert_eq!(quick.population(), 1_000);
        assert_eq!(quick.fig6_sizes(), vec![1_000, 10_000]);
    }
}
