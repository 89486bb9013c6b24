//! Trace digests of the commit that added this benchmark, per simulator
//! workload and seed. A run whose digest differs reports
//! `digest_changed: true` as information: a change that is meant to keep
//! behaviour should keep every digest here.

/// `(workload, seed, digest)`. A gossip digest folds the digests of the
/// twelve seeds of a rep; each of those equals `repro bubbles
/// --per-bubble 8 --seed S`'s, and each crowd digest equals `repro crowd`'s
/// at the same size, horizon, fault profile and seed.
const PARENT: &[(&str, u64, u64)] = &[
    ("crowd_100k", 1, 0x6a89b6d4b869e461),
    ("crowd_100k", 2, 0x807909e1748bcb2d),
    ("crowd_100k", 3, 0x3b42694ffbf66804),
    ("crowd_100k", 4, 0x157e2576cb1fbf7e),
    ("crowd_100k", 5, 0x37f53ef5c382895d),
    ("crowd_100k", 6, 0x5ee3225ac3343ef9),
    ("crowd_100k", 7, 0x80e50bd521cbe04f),
    ("crowd_100k", 8, 0x5e30df553d2d9306),
    ("crowd_100k", 9, 0x226c2ff65e9e30f7),
    ("crowd_100k", 10, 0xea919702ced542e5),
    ("crowd_lossy_20k", 1, 0x0a8343c58ee37be2),
    ("crowd_lossy_20k", 2, 0x47d27062a3c665b1),
    ("crowd_lossy_20k", 3, 0x2e9665f9e6dfdbb4),
    ("crowd_lossy_20k", 4, 0x0a46c72493c125c6),
    ("crowd_lossy_20k", 5, 0x9ec49cecc404a866),
    ("crowd_lossy_20k", 6, 0x18e1699058f58007),
    ("crowd_lossy_20k", 7, 0x86d1a1fa8a533afd),
    ("crowd_lossy_20k", 8, 0xa1839c8642c05b42),
    ("crowd_lossy_20k", 9, 0x24801ab7d745658a),
    ("crowd_lossy_20k", 10, 0x21e17fb50ca7527c),
    ("gossip_bubbles", 1, 0xf5b1827ecd361b26),
    ("gossip_bubbles", 2, 0x1b9b301c858233bf),
    ("gossip_bubbles", 3, 0x006b8a67e04fc5b2),
    ("gossip_bubbles", 4, 0x8aca6b31c75aabbb),
    ("gossip_bubbles", 5, 0xfebab5864da524d1),
    ("gossip_bubbles", 6, 0x339296400b09b3fd),
    ("gossip_bubbles", 7, 0x7aa4f0636dd9b325),
    ("gossip_bubbles", 8, 0xc91f60b2579a2c3e),
    ("gossip_bubbles", 9, 0xbfdddfed4d341156),
    ("gossip_bubbles", 10, 0xc748218892ff3fdd),
];

/// The recorded digest of `workload` at `seed`, if there is one.
pub fn parent(workload: &str, seed: u64) -> Option<u64> {
    PARENT
        .iter()
        .find(|(w, s, _)| *w == workload && *s == seed)
        .map(|&(_, _, d)| d)
}
