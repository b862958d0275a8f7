// D05: a per-shard closure handed to the sharded driver's stage, which runs
// it on par_map, capturing an RNG without forking it.
pub fn norms(shards: usize, rng: &StreamRng) -> Vec<u64> {
    resume::stage(&mut None, "norms", shards, |s| s as u64 + draw(rng))
}
