//! Seeded input generation: every byte and every choice the workloads
//! feed the program derives from `--seed`, so the same seed gives the
//! same inputs and a different seed gives different ones.

use bff_data::Payload;

/// SplitMix64: a full-period 64-bit generator whose every output is a
/// bijective mix of a counter, so streams forked with [`Rng::fork`] from
/// distinct tags never collide.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// An independent stream for `tag` (a client, an image, a round).
    pub fn fork(seed: u64, tag: u64) -> Self {
        let mut r = Rng(seed ^ tag.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.0 = r.next();
        r
    }

    // Not an `Iterator`: the stream never ends, so there is no `None`.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-40 for
    /// every `n` the workloads use.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Content streams: what a run of literal bytes is *for*. The tag keeps
/// streams of one seed apart.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    /// A whole uploaded image.
    Image(u64),
    /// Dirty content only `client` writes in `round`.
    Private { client: u64, round: u64 },
}

impl Stream {
    fn tag(self) -> u64 {
        match self {
            Stream::Image(i) => 1 << 60 | i,
            Stream::Private { client, round } => 3 << 60 | client << 48 | round,
        }
    }
}

/// `len` literal pseudo-random bytes of `stream` under `seed`. Literal
/// (not a synthetic descriptor) so that hashing, socket copies and log
/// appends move and digest every byte.
pub fn content(seed: u64, stream: Stream, len: u64) -> Payload {
    let mut rng = Rng::fork(seed, stream.tag());
    let mut bytes = vec![0u8; len as usize];
    let mut words = bytes.chunks_exact_mut(8);
    for w in &mut words {
        w.copy_from_slice(&rng.next().to_le_bytes());
    }
    let tail = words.into_remainder();
    let last = rng.next().to_le_bytes();
    tail.copy_from_slice(&last[..tail.len()]);
    Payload::from_bytes(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_different_seed_different_bytes() {
        let a = content(1, Stream::Image(0), 4099);
        let b = content(1, Stream::Image(0), 4099);
        let c = content(2, Stream::Image(0), 4099);
        assert_eq!(a.len(), 4099);
        assert_eq!(a.digest_sha256(), b.digest_sha256());
        assert_ne!(a.digest_sha256(), c.digest_sha256());
    }

    #[test]
    fn streams_of_one_seed_are_distinct() {
        let seed = 9;
        let digests = [
            content(seed, Stream::Image(0), 1024),
            content(seed, Stream::Image(1), 1024),
            content(
                seed,
                Stream::Private {
                    client: 0,
                    round: 1,
                },
                1024,
            ),
            content(
                seed,
                Stream::Private {
                    client: 0,
                    round: 0,
                },
                1024,
            ),
            content(
                seed,
                Stream::Private {
                    client: 1,
                    round: 0,
                },
                1024,
            ),
        ]
        .map(|p| p.digest_sha256());
        for (i, a) in digests.iter().enumerate() {
            for b in &digests[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
