//! The 64-bit FNV-1a digest behind every pinned hash of the workspace: RNG
//! fork labels, checkpoint segments, report digests and config digests.

/// FNV-1a 64 over `chunks` read as one byte stream: each byte is folded
/// into the running hash, which starts at the offset basis, so no chunks
/// hash to `0xcbf2_9ce4_8422_2325`.
pub fn fnv1a(chunks: impl IntoIterator<Item = impl AsRef<[u8]>>) -> u64 {
    chunks
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |hash, chunk| {
            chunk.as_ref().iter().fold(hash, |hash, &byte| {
                (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        })
}
