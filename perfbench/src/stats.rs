//! Small numeric helpers: medians, Jain's fairness index and the FNV-1a
//! digest the determinism check compares.

/// Median of `values` (mean of the middle two for an even count); `None`
/// when empty.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Jain's fairness index `(sum x)^2 / (n * sum x^2)`: 1 when every value is
/// equal, `1/n` when one value holds everything. `None` when empty or all
/// zero.
#[must_use]
pub fn jain_index(values: &[f64]) -> Option<f64> {
    let sum: f64 = values.iter().sum();
    let sum_sq: f64 = values.iter().map(|x| x * x).sum();
    (!values.is_empty() && sum_sq > 0.0).then(|| sum * sum / (values.len() as f64 * sum_sq))
}

/// 64-bit FNV-1a over `bytes`.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
