//! The benchmark's own seeded generator. It lives here rather than in the
//! `rand` shim so that a change to the library's random streams can never
//! change the benchmark's inputs.

/// SplitMix64: small, fast, and a fixed stream for a fixed seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    /// An independent stream for one purpose (`tag`) of the same seed, so
    /// that adding draws to one purpose never shifts another's.
    pub fn fork(seed: u64, tag: u64) -> Rng {
        let mut r = Rng::new(seed);
        r.0 ^= tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.unit() * n as f64) as usize).min(n - 1)
    }

    /// Uniform in `lo..=hi`.
    pub fn between(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    /// Exponential with the given rate (mean `1/rate`).
    pub fn exp(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }

    /// Index drawn from unnormalised weights.
    pub fn weighted(&mut self, cumulative: &[f64]) -> usize {
        let total = *cumulative.last().expect("non-empty weights");
        let x = self.unit() * total;
        cumulative
            .partition_point(|&c| c <= x)
            .min(cumulative.len() - 1)
    }
}

/// Running sums of `weights`, for [`Rng::weighted`].
pub fn cumulative(weights: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut sum = 0.0;
    weights
        .into_iter()
        .map(|w| {
            sum += w;
            sum
        })
        .collect()
}
