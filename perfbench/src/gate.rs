//! The correctness gate: FNV-1a digests of canonical result JSON and
//! the digests pinned for the default seed.

/// The seed whose digests are pinned below.
pub const DEFAULT_SEED: u64 = 1;

/// FNV-1a over the canonical result JSON (`result_to_json`) of every
/// input of an engine workload at [`DEFAULT_SEED`], concatenated in
/// input order. After a deliberate change to the engine's results,
/// re-pin from the `result_digest` line of a `--seed 1 --trace 0` report.
pub const PINNED: &[(&str, u64)] = &[
    ("paper-powerlaw-1k", 0xff24_e983_80bb_c173),
    ("outbreak-subnet-100k", 0x0904_17a2_e0ae_3752),
    ("flat-powerlaw-20k", 0xa2ed_7d9d_59d6_9a04),
];

/// Streaming 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a of one byte string.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.update(bytes);
    h.finish()
}

/// The pinned digest of `workload`, if it has one.
pub fn pinned(workload: &str) -> Option<u64> {
    PINNED.iter().find(|(w, _)| *w == workload).map(|(_, d)| *d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_reference_vectors() {
        assert_eq!(digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
