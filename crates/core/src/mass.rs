//! The `(weight, value)` mass vector of Push-Sum-family protocols.
//!
//! Kempe et al. call the pair of a host's weight `w` and sum `v` its
//! **mass**. The averaging protocols never create or destroy mass during an
//! exchange ("conservation of mass", paper §II-A / §III); they only move it
//! between hosts, which is why the derivable network-wide estimate `Σv/Σw`
//! is invariant while membership is stable.

use std::ops::{Add, AddAssign, Mul, Sub};

/// A mass vector `(weight, value)`.
#[derive(Debug, Clone, Copy, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct Mass {
    /// Normalization weight `w`.
    pub weight: f64,
    /// Value sum `v`.
    pub value: f64,
}

impl Mass {
    /// Zero mass.
    pub const ZERO: Mass = Mass { weight: 0.0, value: 0.0 };

    /// Mass `(w, v)`.
    #[inline]
    pub const fn new(weight: f64, value: f64) -> Self {
        Self { weight, value }
    }

    /// The canonical initial mass of an *averaging* host: `(1, value)`.
    #[inline]
    pub const fn averaging(value: f64) -> Self {
        Self { weight: 1.0, value }
    }

    /// `v / w`, the local estimate. `None` when the weight is too small to
    /// divide meaningfully (e.g. a Full-Transfer host that received nothing
    /// this round).
    #[inline]
    pub fn estimate(&self) -> Option<f64> {
        (self.weight.abs() > f64::EPSILON).then(|| self.value / self.weight)
    }

    /// Multiply both components by `f` (parcel splitting, reversion decay).
    #[inline]
    pub fn scale(&self, f: f64) -> Mass {
        Mass { weight: self.weight * f, value: self.value * f }
    }

    /// Split into `n` equal parcels (returns one parcel; callers send it
    /// `n` times — parcels are identical, Fig. 4 step 2).
    #[inline]
    pub fn parcel(&self, n: u32) -> Mass {
        debug_assert!(n > 0);
        self.scale(1.0 / f64::from(n))
    }

    /// Half the mass (the classic Push-Sum share, Fig. 1 step 2).
    #[inline]
    pub fn half(&self) -> Mass {
        self.scale(0.5)
    }

    /// True when both components are (almost) zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.weight.abs() < f64::EPSILON && self.value.abs() < f64::EPSILON
    }

    /// The reverted mass `(1−λ)·self + λ·initial` (paper §III): the local
    /// decay toward a host's initial mass that gives Push-Sum-Revert its
    /// self-healing behaviour.
    #[inline]
    pub fn revert_toward(&self, initial: Mass, lambda: f64) -> Mass {
        self.scale(1.0 - lambda) + initial.scale(lambda)
    }
}

impl Add for Mass {
    type Output = Mass;
    #[inline]
    fn add(self, rhs: Mass) -> Mass {
        Mass { weight: self.weight + rhs.weight, value: self.value + rhs.value }
    }
}

impl AddAssign for Mass {
    #[inline]
    fn add_assign(&mut self, rhs: Mass) {
        self.weight += rhs.weight;
        self.value += rhs.value;
    }
}

impl Sub for Mass {
    type Output = Mass;
    #[inline]
    fn sub(self, rhs: Mass) -> Mass {
        Mass { weight: self.weight - rhs.weight, value: self.value - rhs.value }
    }
}

impl Mul<f64> for Mass {
    type Output = Mass;
    #[inline]
    fn mul(self, rhs: f64) -> Mass {
        self.scale(rhs)
    }
}

/// Wire size of a mass message: two IEEE-754 doubles.
pub const MASS_WIRE_BYTES: usize = 16;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averaging_mass_estimates_its_value() {
        assert_eq!(Mass::averaging(42.0).estimate(), Some(42.0));
    }

    #[test]
    fn zero_weight_has_no_estimate() {
        assert_eq!(Mass::new(0.0, 5.0).estimate(), None);
        assert_eq!(Mass::ZERO.estimate(), None);
    }

    #[test]
    fn halves_sum_back_to_whole() {
        let m = Mass::new(1.0, 37.5);
        let h = m.half();
        assert_eq!(h + h, m);
    }

    #[test]
    fn parcels_conserve_mass() {
        let m = Mass::new(1.0, 99.0);
        for n in [1u32, 2, 4, 7] {
            let p = m.parcel(n);
            let mut total = Mass::ZERO;
            for _ in 0..n {
                total += p;
            }
            assert!((total.weight - m.weight).abs() < 1e-12);
            assert!((total.value - m.value).abs() < 1e-12);
        }
    }

    #[test]
    fn revert_is_identity_at_lambda_zero() {
        let m = Mass::new(0.7, 12.0);
        let init = Mass::averaging(50.0);
        assert_eq!(m.revert_toward(init, 0.0), m);
    }

    #[test]
    fn revert_is_reset_at_lambda_one() {
        let m = Mass::new(0.7, 12.0);
        let init = Mass::averaging(50.0);
        assert_eq!(m.revert_toward(init, 1.0), init);
    }

    #[test]
    fn revert_conserves_systemwide_mass_when_total_equals_initial_total() {
        // §III's conservation argument: Σ revert(v_i) = Σ v_i as long as the
        // current total equals the initial total. Model three hosts.
        let initials = [Mass::averaging(10.0), Mass::averaging(50.0), Mass::averaging(90.0)];
        // Any redistribution of the same total (e.g. after exchanges):
        let current = [Mass::new(1.5, 80.0), Mass::new(0.5, 40.0), Mass::new(1.0, 30.0)];
        let total_before: Mass = current.iter().copied().fold(Mass::ZERO, Mass::add);
        let lambda = 0.25;
        let total_after: Mass = current
            .iter()
            .zip(initials.iter())
            .map(|(c, i)| c.revert_toward(*i, lambda))
            .fold(Mass::ZERO, Mass::add);
        assert!((total_before.weight - total_after.weight).abs() < 1e-12);
        assert!((total_before.value - total_after.value).abs() < 1e-12);
    }

    #[test]
    fn summing_masses_estimate_the_sum() {
        // Kempe's sum mode: weight 1 only at one root, so `Σv/Σw = Σv`.
        let hosts = [Mass::new(1.0, 5.0), Mass::new(0.0, 10.0), Mass::new(0.0, 85.0)];
        let total: Mass = hosts.iter().copied().fold(Mass::ZERO, Mass::add);
        assert_eq!(total.estimate(), Some(100.0));
    }
}
