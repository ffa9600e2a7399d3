//! FNV-1a output digests: a speed-only change must leave every digest
//! the benchmark prints unchanged.

#[cfg(test)]
use qi_pfs::ops::RunTrace;

/// 64-bit FNV-1a over everything fed to it.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Feed raw bytes.
    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Feed one integer (little-endian).
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Feed one float by its bit pattern.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Feed floats by their bit patterns.
    pub fn f32s(&mut self, v: &[f32]) -> &mut Self {
        for x in v {
            self.bytes(&x.to_bits().to_le_bytes());
        }
        self
    }

    /// Feed a string with its length, so concatenations cannot collide.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of every observable a run records: ops, RPCs, samples,
/// completions, failures, directives, the end instant, the event count
/// and the telemetry snapshot.
#[cfg(test)]
pub fn trace_digest(t: &RunTrace) -> u64 {
    let mut d = Digest::default();
    for o in &t.ops {
        d.u64(u64::from(o.token.app.0))
            .u64(u64::from(o.token.rank))
            .u64(o.token.seq)
            .str(o.kind.label())
            .u64(o.bytes)
            .u64(o.issued.0)
            .u64(o.completed.0);
    }
    for r in &t.rpcs {
        d.u64(u64::from(r.app.0))
            .u64(u64::from(r.dev.0))
            .str(r.kind.label())
            .u64(r.bytes)
            .u64(r.issued.0);
    }
    for s in t.samples.iter() {
        d.str(&format!("{s:?}"));
    }
    d.str(&format!("{:?}", t.app_completion))
        .str(&format!("{:?}", t.failed_ops))
        .str(&format!("{:?}", t.directives))
        .u64(t.end.0)
        .u64(t.events_processed)
        .str(&t.metrics.to_json());
    d.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(Digest::default().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(
            Digest::default().bytes(b"a").finish(),
            0xaf63_dc4c_8601_ec8c
        );
        assert_eq!(
            Digest::default().bytes(b"foobar").finish(),
            0x8594_4171_f739_67e8
        );
    }

    #[test]
    fn length_prefix_separates_concatenations() {
        let a = Digest::default().str("ab").str("c").finish();
        let b = Digest::default().str("a").str("bc").finish();
        assert_ne!(a, b);
    }
}
