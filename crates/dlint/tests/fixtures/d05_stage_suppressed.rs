// D05 suppressed twin.
pub fn norms(shards: usize, rng: &StreamRng) -> Vec<u64> {
    // dlint::allow(D05): StreamRng is immutable; draw forks a stream per shard id
    resume::stage(&mut None, "norms", shards, |s| s as u64 + draw(rng))
}
