//! Order statistics, the host calibration kernel and the process's
//! peak memory. Nothing here touches the system under test.

use std::hint::black_box;
use std::time::Instant;

/// Nearest-rank percentile (`p` in 0..=1) of `samples`, which keep their
/// order: windows are runs of consecutive samples. 0 of no samples (a
/// layer a workload does not exercise).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// `a / b`, or 0 when `b` is 0 — for ratios of counts that may be empty.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Iterations of [`calibrate`]'s loop: about 100 ms on a quiet builder core.
const CALIB_ITERS: u64 = 45_000_000;

/// Milliseconds the fixed spin kernel took. It diagnoses a noisy host
/// (the same loop read 100-150 ms from one second to the next on the
/// shared builder); no metric is ever divided by it.
pub fn calibrate() -> f64 {
    let t = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..CALIB_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

/// `VmHWM` of this process in MB (0 where `/proc` is missing).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// xorshift64*: the harness's only random source, so a seed fixes every
/// generated input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        // splitmix64 of the seed: nearby seeds give unrelated streams and
        // the state is never 0
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A sequence of `len` indices into a pool of `n` texts, rank `r` drawn
/// with weight 1/(r+1) (Zipf with exponent 1).
pub fn zipf_sequence(rng: &mut Rng, n: usize, len: usize) -> Vec<u8> {
    let total: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
    let mut acc = 0.0;
    let cumulative: Vec<f64> = (1..=n)
        .map(|r| {
            acc += 1.0 / r as f64 / total;
            acc
        })
        .collect();
    (0..len)
        .map(|_| {
            let u = rng.unit();
            cumulative.iter().position(|&c| u < c).unwrap_or(n - 1) as u8
        })
        .collect()
}
