//! Order statistics and fingerprint hashing shared by the runner and the
//! ledger.

/// `(q1, median, q3)` of `values` by linear interpolation between closest
/// ranks. Empty input gives zeros.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// The highest percentile that still has at least ten samples beyond it:
/// the value with exactly ten larger samples, and the percentile it sits
/// at. With ten or fewer samples this is the minimum (percentile 0).
pub fn tail(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let idx = n.saturating_sub(11);
    let pct = 100.0 * idx as f64 / n as f64;
    (sorted[idx], pct)
}

/// Nearest-rank `q`-quantile of integer samples (0 when empty).
pub fn quantile_u64(values: &[u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Geometric mean of `1 + x` minus one: the Figure 5 averaging rule.
pub fn geomean_overhead(overheads: &[f64]) -> f64 {
    if overheads.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = overheads.iter().map(|o| (1.0 + o).ln()).sum();
    (log_sum / overheads.len() as f64).exp() - 1.0
}

/// 64-bit FNV-1a over a stream of words: the simulated-behaviour
/// fingerprint of a job and of a whole workload.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    pub fn word(self, value: u64) -> Self {
        self.bytes(&value.to_le_bytes())
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// SplitMix64 step: the benchmark's only source of derived seeds.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fisher-Yates shuffle driven by [`splitmix`].
pub fn shuffle<T>(items: &mut [T], state: &mut u64) {
    for i in (1..items.len()).rev() {
        let j = (splitmix(state) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let values: Vec<f64> = (0..100).map(f64::from).collect();
        let (value, pct) = tail(&values);
        assert_eq!(value, 89.0);
        assert_eq!(values.iter().filter(|v| **v > value).count(), 10);
        assert!((pct - 89.0).abs() < 1e-9);
    }

    #[test]
    fn quartiles_interpolate() {
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (2.0, 3.0, 4.0));
    }

    #[test]
    fn geomean_of_equal_overheads_is_that_overhead() {
        assert!((geomean_overhead(&[0.1, 0.1]) - 0.1).abs() < 1e-12);
    }
}
