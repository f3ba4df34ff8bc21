//! Sample statistics, output checksums and process memory.

/// Median of `xs` (mean of the two middle values for an even count); 0
/// for no samples.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of `xs`; 0 for no samples.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest percentile, at most p99, that leaves at least ten of `n`
/// samples beyond it (nearest rank); the median below 20 samples, where no
/// tail can be told from noise.
pub fn tail_percentile(n: usize) -> f64 {
    if n < 20 {
        50.0
    } else {
        (100.0 * (1.0 - 10.0 / n as f64)).floor().min(99.0)
    }
}

/// Most windows [`windowed_tail`] splits a run into, and fewest samples
/// in each: 100 samples put a window's tail at p90.
pub const TAIL_WINDOWS: usize = 10;
pub const TAIL_WINDOW_MIN: usize = 100;

/// A run's tail latency, steady against a few bursts of host noise.
///
/// Splits `xs` (in completion order) into `k = n / TAIL_WINDOW_MIN`
/// consecutive windows, at least 1 and at most [`TAIL_WINDOWS`], takes
/// each window's [`tail_percentile`] and returns the median of those
/// window tails with the percentile of the smallest window and `k`. With
/// one window this is the [`tail_percentile`] of the whole run; with ten
/// a burst that spoils up to four windows does not move the result.
pub fn windowed_tail(xs: &[f64]) -> (f64, f64, usize) {
    let k = (xs.len() / TAIL_WINDOW_MIN).clamp(1, TAIL_WINDOWS);
    let size = xs.len() / k;
    let p = tail_percentile(size);
    let tails: Vec<f64> = (0..k)
        .map(|i| {
            let end = if i + 1 == k { xs.len() } else { (i + 1) * size };
            percentile(&xs[i * size..end], p)
        })
        .collect();
    (median(&tails), p, k)
}

/// FNV-1a over the IEEE-754 bit patterns of `rows`, row by row: equal
/// checksums mean bit-identical outputs (up to hash collisions).
pub fn checksum(rows: &[Vec<f32>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for row in rows {
        for x in row {
            for b in x.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// Largest absolute elementwise difference; infinite on a shape mismatch.
pub fn max_abs_diff(a: &[Vec<f32>], b: &[Vec<f32>]) -> f32 {
    if a.len() != b.len() {
        return f32::INFINITY;
    }
    let mut worst = 0.0f32;
    for (ra, rb) in a.iter().zip(b) {
        if ra.len() != rb.len() {
            return f32::INFINITY;
        }
        for (x, y) in ra.iter().zip(rb) {
            let d = (x - y).abs();
            if d.is_nan() {
                return f32::INFINITY;
            }
            worst = worst.max(d);
        }
    }
    worst
}

/// Reset this process's peak resident set (`VmHWM`) to its current RSS.
/// Returns false where the kernel does not allow it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// This process's peak resident set (`VmHWM`) in MiB, if readable. Child
/// processes are not counted.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0), 198.0);
        assert_eq!(percentile(&xs, 50.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(tail_percentile(1200), 99.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(6), 50.0);
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        let beyond = xs.iter().filter(|&&x| x > percentile(&xs, 75.0)).count();
        assert_eq!(beyond, 10);
    }

    #[test]
    fn windowed_tail_ignores_a_burst() {
        // Below two windows' worth it is the plain tail of the whole run.
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(windowed_tail(&xs), (percentile(&xs, 75.0), 75.0, 1));
        // 1000 samples of 1.0 with the third window all 9.0: ten windows
        // of p90, and the burst is outvoted.
        let mut xs = vec![1.0; 1000];
        xs[200..300].fill(9.0);
        assert_eq!(windowed_tail(&xs), (1.0, 90.0, 10));
        // The last window takes the remainder.
        let mut xs = vec![1.0; 1056];
        xs[1000..].fill(9.0);
        assert_eq!(windowed_tail(&xs).2, 10);
        assert_eq!(windowed_tail(&[]), (0.0, 50.0, 1));
    }

    #[test]
    fn checksum_sees_every_bit() {
        let a = vec![vec![1.0f32, 2.0], vec![3.0]];
        let mut b = a.clone();
        assert_eq!(checksum(&a), checksum(&b));
        b[1][0] = f32::from_bits(3.0f32.to_bits() ^ 1);
        assert_ne!(checksum(&a), checksum(&b));
        assert!(max_abs_diff(&a, &b) < 1e-6);
        assert_eq!(max_abs_diff(&a, &a[..1]), f32::INFINITY);
    }
}
