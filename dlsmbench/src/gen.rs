//! Input generation: a seeded RNG, a Zipfian rank sampler, and the key and
//! value codec the correctness oracle checks against.
//!
//! Everything here is a pure function of the run's `--seed`; the engine only
//! ever sees the bytes these functions produce.

/// Number of preloaded keys.
pub const NUM_KEYS: usize = 200_000;
/// Bytes per key.
pub const KEY_BYTES: usize = 20;
/// Bytes per value.
pub const VALUE_BYTES: usize = 400;
/// Logical user data held by the database: about 84 MB.
pub const DATA_BYTES: u64 = (NUM_KEYS * (KEY_BYTES + VALUE_BYTES)) as u64;
/// Value header: key index (u32), version (u32), seed tag (u64).
const HEADER: usize = 16;

/// splitmix64: a tiny, well-mixed 64-bit generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for `(seed, lane)`: clients, preload order and
    /// warm-up each draw from their own lane.
    pub fn stream(seed: u64, lane: u64) -> Rng {
        Rng(mix(seed ^ mix(lane.wrapping_add(0x5bd1_e995))))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `0..n` (n > 0), by multiply-shift.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The splitmix64 finaliser.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded permutation of `0..n` (Fisher-Yates).
pub fn permutation(n: usize, rng: &mut Rng) -> Vec<u32> {
    let mut p: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        p.swap(i, j);
    }
    p
}

/// Gray et al. rejection-free Zipfian sampler over ranks `0..n`:
/// `P(rank = r) ∝ 1 / (r + 1)^theta`.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Zipf {
        let zeta = |n: u64| (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zetan = zeta(n);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan);
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta,
        }
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.n - 1)
    }
}

/// The run's key space. Key `i` sorts before key `i + 1`, so a scan over
/// indices `s..e` must return exactly keys `s..e`; the seed moves the
/// keys' bytes.
#[derive(Debug, Clone, Copy)]
pub struct KeySpace {
    salt: u64,
    tag: u64,
}

impl KeySpace {
    pub fn new(seed: u64) -> KeySpace {
        KeySpace {
            salt: mix(seed) % 1_000_000_000_000,
            tag: mix(seed ^ 0xa5a5_a5a5),
        }
    }

    /// `"user"` + 16 zero-padded decimal digits: 20 bytes.
    pub fn key(&self, idx: u32) -> [u8; KEY_BYTES] {
        let mut out = *b"user0000000000000000";
        let mut v = self.salt + idx as u64 * 3;
        for b in out[4..].iter_mut().rev() {
            *b = b'0' + (v % 10) as u8;
            v /= 10;
        }
        out
    }

    /// A key that sorts after every key of the space (an open scan bound).
    pub fn end_key(&self) -> [u8; KEY_BYTES] {
        *b"user~~~~~~~~~~~~~~~~"
    }

    /// The value of version `version` of key `idx`: a header naming both,
    /// then filler derived from them, so any mix-up or corruption shows.
    pub fn value_into(&self, idx: u32, version: u32, out: &mut Vec<u8>) {
        out.clear();
        out.extend_from_slice(&idx.to_le_bytes());
        out.extend_from_slice(&version.to_le_bytes());
        out.extend_from_slice(&self.tag.to_le_bytes());
        let mut r = Rng::new(self.tag ^ ((idx as u64) << 32 | version as u64));
        while out.len() < VALUE_BYTES {
            let w = r.next_u64().to_le_bytes();
            let take = (VALUE_BYTES - out.len()).min(8);
            out.extend_from_slice(&w[..take]);
        }
    }
}

/// What the oracle found wrong with one answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wrong {
    /// The engine returned `Err`.
    Error,
    /// A key that must exist was reported absent.
    Missing,
    /// The value names another key.
    OtherKey,
    /// The value is an older or newer version than the shadow map holds.
    StaleVersion,
    /// The header is right but the bytes are not.
    Corrupt,
    /// A scan returned keys out of order, out of bounds, or a wrong count.
    ScanShape,
}

impl Wrong {
    pub fn name(self) -> &'static str {
        match self {
            Wrong::Error => "error",
            Wrong::Missing => "missing",
            Wrong::OtherKey => "other_key",
            Wrong::StaleVersion => "stale_version",
            Wrong::Corrupt => "corrupt",
            Wrong::ScanShape => "scan_shape",
        }
    }
}

/// Check `got` against version `version` of key `idx`. `scratch` is reused
/// to rebuild the expected bytes.
pub fn check_value(
    keys: &KeySpace,
    idx: u32,
    version: u32,
    got: &[u8],
    scratch: &mut Vec<u8>,
) -> Result<(), Wrong> {
    if got.len() < HEADER {
        return Err(Wrong::Corrupt);
    }
    let got_idx = u32::from_le_bytes(got[0..4].try_into().expect("4-byte slice"));
    let got_ver = u32::from_le_bytes(got[4..8].try_into().expect("4-byte slice"));
    if got_idx != idx {
        return Err(Wrong::OtherKey);
    }
    if got_ver != version {
        return Err(Wrong::StaleVersion);
    }
    keys.value_into(idx, version, scratch);
    if got != scratch.as_slice() {
        return Err(Wrong::Corrupt);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_sort_by_index_and_round_trip() {
        let ks = KeySpace::new(7);
        let mut prev = ks.key(0);
        for i in 1..NUM_KEYS as u32 {
            let k = ks.key(i);
            assert!(k > prev, "key {i} out of order");
            prev = k;
        }
        assert!(ks.end_key() > prev);
    }

    #[test]
    fn seed_changes_the_bytes() {
        assert_ne!(KeySpace::new(1).key(5), KeySpace::new(2).key(5));
    }

    #[test]
    fn oracle_accepts_right_and_names_each_wrong() {
        let ks = KeySpace::new(3);
        let mut v = Vec::new();
        let mut scratch = Vec::new();
        ks.value_into(10, 4, &mut v);
        assert_eq!(v.len(), VALUE_BYTES);
        assert_eq!(check_value(&ks, 10, 4, &v, &mut scratch), Ok(()));
        assert_eq!(
            check_value(&ks, 10, 5, &v, &mut scratch),
            Err(Wrong::StaleVersion)
        );
        assert_eq!(
            check_value(&ks, 11, 4, &v, &mut scratch),
            Err(Wrong::OtherKey)
        );
        v[200] ^= 1;
        assert_eq!(
            check_value(&ks, 10, 4, &v, &mut scratch),
            Err(Wrong::Corrupt)
        );
        assert_eq!(
            check_value(&ks, 10, 4, &v[..8], &mut scratch),
            Err(Wrong::Corrupt)
        );
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(100_000, 0.99);
        let mut rng = Rng::new(9);
        let mut top = 0;
        for _ in 0..100_000 {
            let r = z.sample(&mut rng);
            assert!(r < 100_000);
            top += (r < 10) as u32;
        }
        // Under theta = 0.99 the ten hottest of 1e5 ranks draw about 24%.
        assert!((18_000..30_000).contains(&top), "top-10 share {top}");
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut p = permutation(1000, &mut Rng::new(1));
        p.sort_unstable();
        assert!(p.iter().enumerate().all(|(i, &v)| i as u32 == v));
    }
}
