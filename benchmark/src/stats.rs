//! Order statistics over small samples: the median and quartiles every
//! report row carries, computed the way Python's
//! `statistics.quantiles(values, n=4)` computes them (exclusive method),
//! because that is what the acceptance driver uses for its spread check.

/// Median, quartiles and count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    /// Interquartile distance as a share of the median (0 when the
    /// median is 0, which only an all-zero count can produce).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_unstable_by(|a, b| a.partial_cmp(b).expect("metrics are never NaN"));
    v
}

/// The `p`-quantile (`0 < p < 1`) by the exclusive method: position
/// `p·(n+1)` in the 1-based sorted sample, linearly interpolated between
/// its neighbours — and, like Python, extrapolated from the outermost
/// pair when the position falls outside the sample.
fn quantile_sorted(v: &[f64], p: f64) -> f64 {
    let n = v.len();
    if n == 1 {
        return v[0];
    }
    let pos = p * (n as f64 + 1.0);
    let j = (pos.floor() as usize).clamp(1, n - 1);
    let frac = pos - j as f64;
    v[j - 1] + frac * (v[j] - v[j - 1])
}

pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// The `p`-quantile of an unsorted sample (used for latency percentiles).
pub fn quantile(values: &[f64], p: f64) -> f64 {
    quantile_sorted(&sorted(values), p)
}

pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "a summary needs at least one sample");
    let v = sorted(values);
    Summary {
        n: v.len(),
        median: quantile_sorted(&v, 0.5),
        q1: quantile_sorted(&v, 0.25),
        q3: quantile_sorted(&v, 0.75),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }
}
