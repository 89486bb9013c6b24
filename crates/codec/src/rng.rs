//! Deterministic pseudo-randomness: splitmix64 seeding + xoshiro256++.
//!
//! The whole workspace draws randomness from this one module so that every
//! simulation, property test, and benchmark is reproducible from a single
//! `u64` seed across platforms and releases.
//!
//! * [`SplitMix64`] — Steele/Lea/Flood's 64-bit mixer. Used only to expand a
//!   user seed into the 256-bit xoshiro state (its guaranteed-equidistributed
//!   output stream makes it the canonical xoshiro seeder).
//! * [`Xoshiro256pp`] — Blackman/Vigna's xoshiro256++ generator: 256 bits of
//!   state, period 2^256 − 1, passes BigCrush, and needs only shifts, rotates
//!   and xors — no multiplications on the hot path.
//!
//! Determinism guarantee: for a fixed seed, the output stream of every method
//! here is stable; nothing consults the OS, the clock, or address layout.

/// The splitmix64 mixer; primarily a seed expander for [`Xoshiro256pp`].
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a mixer from a seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
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

/// The xoshiro256++ generator.
#[derive(Clone, Debug)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Seeds the generator, expanding `seed` through splitmix64 as the
    /// xoshiro authors prescribe. Any seed (including 0) is valid.
    #[must_use]
    pub fn from_seed(seed: u64) -> Self {
        let mut mix = SplitMix64::new(seed);
        Xoshiro256pp {
            s: [
                mix.next_u64(),
                mix.next_u64(),
                mix.next_u64(),
                mix.next_u64(),
            ],
        }
    }

    /// Returns the next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform draw in `[0, bound)`; `bound` must be non-zero.
    ///
    /// Uses Lemire-style rejection via widening multiply, so the result is
    /// unbiased for every bound.
    ///
    /// # Panics
    ///
    /// Panics when `bound` is zero.
    pub fn bounded_u64(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bounded_u64 requires a non-zero bound");
        // Widening multiply: high 64 bits of x * bound are uniform in
        // [0, bound) once low-bits bias is rejected.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let x = self.next_u64();
            let wide = u128::from(x) * u128::from(bound);
            if (wide as u64) >= threshold {
                return (wide >> 64) as u64;
            }
        }
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn unit_f64(&mut self) -> f64 {
        // 53 top bits scaled by 2^-53 — the standard xoshiro recipe.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Fills a byte slice with generator output.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }

    /// Derives an independent generator for a labeled substream.
    ///
    /// The label is folded into fresh seed material, so `fork("a")` and
    /// `fork("b")` produce unrelated streams while remaining functions of the
    /// parent seed only.
    #[must_use]
    pub fn fork(&mut self, label: &str) -> Self {
        let mut h = crate::Fnv1a::with_state(self.next_u64());
        h.write(label.as_bytes());
        Xoshiro256pp::from_seed(h.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference output for seed 0 from the canonical C implementation.
        let mut sm = SplitMix64::new(0);
        assert_eq!(sm.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(sm.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(sm.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Xoshiro256pp::from_seed(42);
        let mut b = Xoshiro256pp::from_seed(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Xoshiro256pp::from_seed(1);
        let mut b = Xoshiro256pp::from_seed(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn bounded_is_in_range_and_unbiased_enough() {
        let mut rng = Xoshiro256pp::from_seed(7);
        let mut counts = [0usize; 5];
        for _ in 0..50_000 {
            let v = rng.bounded_u64(5);
            assert!(v < 5);
            counts[v as usize] += 1;
        }
        for &c in &counts {
            // Each bucket should hold ~10000 draws; allow a generous band.
            assert!((8_500..=11_500).contains(&c), "skewed bucket: {c}");
        }
    }

    #[test]
    fn unit_f64_in_half_open_interval() {
        let mut rng = Xoshiro256pp::from_seed(9);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = rng.unit_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut rng = Xoshiro256pp::from_seed(3);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn forks_differ_by_label_but_are_deterministic() {
        let mut parent1 = Xoshiro256pp::from_seed(5);
        let mut parent2 = Xoshiro256pp::from_seed(5);
        let mut a1 = parent1.fork("alpha");
        let mut a2 = parent2.fork("alpha");
        assert_eq!(a1.next_u64(), a2.next_u64());

        let mut p3 = Xoshiro256pp::from_seed(5);
        let mut p4 = Xoshiro256pp::from_seed(5);
        let mut a = p3.fork("alpha");
        let mut b = p4.fork("beta");
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn zero_seed_is_fine() {
        let mut rng = Xoshiro256pp::from_seed(0);
        // State must not be all-zero after splitmix expansion.
        assert_ne!(rng.next_u64(), 0_u64.wrapping_add(rng.next_u64()));
        let _ = rng.bounded_u64(1); // always 0, must not loop forever
    }
}
