//! In-repo pseudo-random number generation: SplitMix64 for seeding and
//! xoshiro256** as the workhorse generator.
//!
//! The repo charter is "from scratch in Rust" — just as the crypto crate
//! hand-rolls SipHash-2-4, this module replaces the `rand` crate with the
//! two reference generators of Blackman & Vigna. Both are implemented
//! exactly per the public-domain reference C code, and golden-vector
//! tests pin the first outputs for several seeds so any drift is caught
//! immediately. Workload traces are a pure function of `(generator,
//! seed)`, so these vectors are what make every figure in `results/`
//! reproducible byte-for-byte on any machine.

/// SplitMix64: the recommended seeder for xoshiro-family state.
///
/// One 64-bit state word, period 2^64, equidistributed output. Used here
/// to expand a single `u64` seed into the 256-bit xoshiro state (and as
/// the per-case seed mixer of the property-test harness).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a raw 64-bit seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256**: the general-purpose generator behind [`Rng`].
///
/// 256-bit state, period 2^256 − 1, passes BigCrush. State is seeded by
/// feeding the `u64` seed through [`SplitMix64`], exactly as the
/// reference implementation recommends (an all-zero state is impossible
/// this way).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Seeds the 256-bit state from a single `u64` via SplitMix64.
    pub fn from_seed(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Self {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Returns the next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

/// The seedable generator used throughout the workspace, with a
/// `rand`-compatible surface (`gen_range`, `gen_bool`, `fill_bytes`).
///
/// ```
/// use scue_util::rng::Rng;
/// let mut rng = Rng::from_seed(1);
/// let die: u64 = rng.gen_range(1..=6);
/// assert!((1..=6).contains(&die));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    core: Xoshiro256StarStar,
}

impl Rng {
    /// Creates a generator from a `u64` seed (SplitMix64-expanded).
    pub fn from_seed(seed: u64) -> Self {
        Self {
            core: Xoshiro256StarStar::from_seed(seed),
        }
    }

    /// Returns the next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.core.next_u64()
    }

    /// Uniform sample strictly below `bound` (> 0), bias-free via
    /// rejection of the partial final stripe.
    fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Largest `zone` such that [0, zone] spans a whole number of
        // `bound`-sized stripes; values above it would bias the modulus.
        let zone = u64::MAX - (u64::MAX - bound + 1) % bound;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return v % bound;
            }
        }
    }

    /// Uniform sample from an integer range, `rand`-style.
    ///
    /// Accepts `lo..hi` and `lo..=hi` over the unsigned primitives.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range<T, R>(&mut self, range: R) -> T
    where
        T: SampleUniform,
        R: SampleRange<T>,
    {
        let (lo, hi) = range.bounds_inclusive();
        T::sample_inclusive(self, lo, hi)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
        // 53 uniform mantissa bits, the same construction rand uses.
        let unit = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        unit < p
    }

    /// Fills `dest` with uniform random bytes.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rest = chunks.into_remainder();
        if !rest.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rest.copy_from_slice(&bytes[..rest.len()]);
        }
    }
}

/// Integer types [`Rng::gen_range`] can sample uniformly.
pub trait SampleUniform: Copy + PartialOrd {
    /// Uniform sample from the inclusive range `[lo, hi]`.
    fn sample_inclusive(rng: &mut Rng, lo: Self, hi: Self) -> Self;
}

macro_rules! impl_sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_inclusive(rng: &mut Rng, lo: Self, hi: Self) -> Self {
                assert!(lo <= hi, "empty range in gen_range");
                let span = (hi as u64).wrapping_sub(lo as u64);
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(rng.next_below(span + 1) as $t)
            }
        }
    )*};
}

impl_sample_uniform!(u8, u16, u32, u64, usize);

/// Range forms accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// The `(lo, hi)` inclusive bounds of the range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn bounds_inclusive(self) -> (T, T);
}

impl<T: SampleUniform + One> SampleRange<T> for std::ops::Range<T> {
    fn bounds_inclusive(self) -> (T, T) {
        assert!(self.start < self.end, "empty range in gen_range");
        (self.start, self.end.minus_one())
    }
}

impl<T: SampleUniform> SampleRange<T> for std::ops::RangeInclusive<T> {
    fn bounds_inclusive(self) -> (T, T) {
        (*self.start(), *self.end())
    }
}

/// Decrement support for half-open ranges (internal plumbing).
pub trait One {
    /// `self - 1`; only called on values known to be above the type
    /// minimum.
    fn minus_one(self) -> Self;
}

macro_rules! impl_one {
    ($($t:ty),*) => {$(
        impl One for $t {
            fn minus_one(self) -> Self { self - 1 }
        }
    )*};
}

impl_one!(u8, u16, u32, u64, usize);

#[cfg(test)]
mod tests {
    use super::*;

    /// First 8 outputs of the reference SplitMix64 (public-domain C code
    /// by Sebastiano Vigna), cross-checked against an independent
    /// implementation of the same constants.
    #[test]
    fn splitmix64_golden_vectors() {
        let cases: [(u64, [u64; 8]); 3] = [
            (
                0,
                [
                    0xE220_A839_7B1D_CDAF,
                    0x6E78_9E6A_A1B9_65F4,
                    0x06C4_5D18_8009_454F,
                    0xF88B_B8A8_724C_81EC,
                    0x1B39_896A_51A8_749B,
                    0x53CB_9F0C_747E_A2EA,
                    0x2C82_9ABE_1F45_32E1,
                    0xC584_133A_C916_AB3C,
                ],
            ),
            (
                1,
                [
                    0x910A_2DEC_8902_5CC1,
                    0xBEEB_8DA1_658E_EC67,
                    0xF893_A2EE_FB32_555E,
                    0x71C1_8690_EE42_C90B,
                    0x71BB_54D8_D101_B5B9,
                    0xC34D_0BFF_9015_0280,
                    0xE099_EC6C_D736_3CA5,
                    0x85E7_BB0F_1227_8575,
                ],
            ),
            (
                0xDEAD_BEEF,
                [
                    0x4ADF_B90F_68C9_EB9B,
                    0xDE58_6A31_41A1_0922,
                    0x021F_BC2F_8E1C_FC1D,
                    0x7466_CE73_7BE1_6790,
                    0x3BFA_8764_F685_BD1C,
                    0xAB20_3E50_3CB5_5B3F,
                    0x5A2F_DC2B_F68C_EDB3,
                    0xB30A_4CCF_430B_1B5A,
                ],
            ),
        ];
        for (seed, expected) in cases {
            let mut g = SplitMix64::new(seed);
            for (i, &want) in expected.iter().enumerate() {
                assert_eq!(g.next_u64(), want, "seed {seed:#x} output {i}");
            }
        }
    }

    /// First 8 outputs of reference xoshiro256** seeded via SplitMix64,
    /// cross-checked the same way.
    #[test]
    fn xoshiro_golden_vectors() {
        let cases: [(u64, [u64; 8]); 3] = [
            (
                0,
                [
                    0x99EC_5F36_CB75_F2B4,
                    0xBF6E_1F78_4956_452A,
                    0x1A5F_849D_4933_E6E0,
                    0x6AA5_94F1_262D_2D2C,
                    0xBBA5_AD4A_1F84_2E59,
                    0xFFEF_8375_D9EB_CACA,
                    0x6C16_0DEE_D2F5_4C98,
                    0x8920_AD64_8FC3_0A3F,
                ],
            ),
            (
                42,
                [
                    0x1578_0B2E_0C2E_C716,
                    0x6104_D986_6D11_3A7E,
                    0xAE17_5332_39E4_99A1,
                    0xECB8_AD47_03B3_60A1,
                    0xFDE6_DC7F_E2EC_5E64,
                    0xC50D_A531_0179_5238,
                    0xB821_5485_5A65_DDB2,
                    0xD99A_2743_EBE6_0087,
                ],
            ),
            (
                0xDEAD_BEEF,
                [
                    0xC555_5444_A74D_7E83,
                    0x65C3_0D37_B4B1_6E38,
                    0x54F7_7320_0A4E_FA23,
                    0x429A_ED75_FB95_8AF7,
                    0xFB0E_1DD6_9C25_5B2E,
                    0x9D6D_02EC_5881_4A27,
                    0xF419_9B9D_A2E4_B2A3,
                    0x54BC_5B2C_11A4_540A,
                ],
            ),
        ];
        for (seed, expected) in cases {
            let mut g = Xoshiro256StarStar::from_seed(seed);
            for (i, &want) in expected.iter().enumerate() {
                assert_eq!(g.next_u64(), want, "seed {seed:#x} output {i}");
            }
        }
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = Rng::from_seed(7);
        for _ in 0..10_000 {
            let v: u64 = rng.gen_range(10..20);
            assert!((10..20).contains(&v));
            let w: usize = rng.gen_range(0..3);
            assert!(w < 3);
            let x: u8 = rng.gen_range(1..=255);
            assert!(x >= 1);
        }
    }

    #[test]
    fn gen_range_covers_every_value() {
        let mut rng = Rng::from_seed(11);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[rng.gen_range(0usize..8)] = true;
        }
        assert!(seen.iter().all(|&s| s), "uniform sampler missed a value");
    }

    #[test]
    fn gen_range_full_span_does_not_overflow() {
        let mut rng = Rng::from_seed(3);
        let _: u64 = rng.gen_range(0..=u64::MAX);
        let _: u64 = rng.gen_range(1..u64::MAX);
        let _: u8 = rng.gen_range(0..=u8::MAX);
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = Rng::from_seed(5);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.25)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.25).abs() < 0.01, "p=0.25 measured {frac}");
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }

    #[test]
    fn fill_bytes_handles_ragged_lengths() {
        for len in [0usize, 1, 7, 8, 9, 63, 64, 65] {
            let mut a = vec![0u8; len];
            let mut b = vec![0u8; len];
            Rng::from_seed(9).fill_bytes(&mut a);
            Rng::from_seed(9).fill_bytes(&mut b);
            assert_eq!(a, b, "len {len} not deterministic");
            if len >= 8 {
                assert_ne!(a, vec![0u8; len], "len {len} left zeroed");
            }
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::from_seed(123);
        let mut b = Rng::from_seed(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::from_seed(124);
        assert_ne!(a.next_u64(), c.next_u64());
    }
}
