//! Golden integration digests: one FNV-1a digest per served query
//! graph, for every query protein on both served worlds (the Fig. 1
//! federation and the 11-source one).
//!
//! The benchmark's reference engine integrates with the same code as
//! the served one, so it cannot notice a change to the graphs
//! themselves; these pinned digests can. Each covers the node count,
//! every live node's id, label and `p` bits, every live edge in id
//! order with its endpoints and `q` bits, the source node, the answers
//! in order, and each answer's record key and label.

use biorank::mediator::IntegrationResult;
use biorank::prelude::*;
use biorank::service::WorldSpec;

/// `(protein, default world, extended world)`, in profile order.
const GOLDEN: [(&str, u64, u64); 31] = [
    ("ABCC8", 0xe6d63417f882055c, 0x2aa8e2347f447a1a),
    ("ABCD1", 0xf734c342257a4a6d, 0x07b604fc5bd0b617),
    ("AGPAT2", 0x3d650a162601b811, 0xe07206f0b7e5d1f1),
    ("ATP1A2", 0x5ba7751863732316, 0x24229910a4346aca),
    ("ATP7A", 0x9b361c9524e04f58, 0xd982ff85b2d4f350),
    ("CFTR", 0x1a2b8e2c96fb65f5, 0x8c21e6de9ec1fe91),
    ("CNTS", 0x6061dfc4f8644324, 0xa65854908eaec431),
    ("DARE", 0x931615a6c54f9ef4, 0x07c4d7c591acea27),
    ("EIF2B1", 0x1bbdd69029b59713, 0x3dcf8e4abde5eabc),
    ("EYA1", 0x98fcd4f421669425, 0xae229c378752d305),
    ("FGFR3", 0x1a0777a2b286f0f6, 0x3575d147903268d0),
    ("GALT", 0x2714f66077fbaea7, 0x0baee2c448b6c9d8),
    ("GCH1", 0x9b7fdeba97363ff7, 0x1c685a79f2365c69),
    ("GLDC", 0xb48c14b3f5f83421, 0x0fd83d7653517632),
    ("GNE", 0x31fd4658ced1a7ef, 0x81aa3b25ce68b99d),
    ("LPL", 0x0cd61b26ce3148ea, 0xedbd36ff60e48a82),
    ("MLH1", 0x651e9e9aa16d6669, 0x71e7ca7011dbade9),
    ("MUTL", 0x775be1b97bfe095b, 0x8ef0e9a8d13e1151),
    ("RYR2", 0xef170c0ccb54cf4a, 0x57a0a791979bf047),
    ("SLC17A5", 0xfe19cc69358bcfc6, 0xf7ed65ccf32c7387),
    ("DP0843", 0x8bddb05ec295b356, 0x48aa05978b53c8b0),
    ("DP1954", 0x1d65f0a115703738, 0x682abffcd070780b),
    ("NMC0498", 0x4836d779fecf6f4e, 0x2d55e60865c0f0f6),
    ("NMC1442", 0xe36b1b83a362256d, 0xc0b65b01dfef4a3a),
    ("NMC1815", 0x2dbb9b62a1f27bdd, 0x9e41cd209f08e974),
    ("SO_0025", 0x043e5bdb1ea3ccc1, 0xfdc0066ccfaa09e8),
    ("SO_0599", 0x72263bbb3c4c450d, 0x2e142fcc5539e992),
    ("SO_0828", 0xe3afcc8a8e3e358a, 0xb2760ca196b72fa8),
    ("SO_0887", 0xb26914cb6511a0d7, 0xf942629c8fa5bc43),
    ("SO_1523", 0xf95ee5848864afab, 0x49b822dd7162830f),
    ("WGLp528", 0x5809008120f09822, 0x60834d829a33cdc6),
];

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

fn digest(r: &IntegrationResult) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let g = r.query.graph();
    h.u64(g.node_count() as u64);
    for n in g.nodes() {
        h.u64(n.index() as u64);
        h.str(g.node_label(n));
        h.u64(g.node_p(n).get().to_bits());
    }
    h.u64(g.edge_count() as u64);
    for e in g.edges() {
        let (src, dst, q) = g.edge(e);
        h.u64(e.index() as u64);
        h.u64(src.index() as u64);
        h.u64(dst.index() as u64);
        h.u64(q.get().to_bits());
    }
    h.u64(r.query.source().index() as u64);
    h.u64(r.query.answers().len() as u64);
    for &a in r.query.answers() {
        h.u64(a.index() as u64);
        h.str(r.answer_key(a).expect("an answer has a record"));
        h.str(r.label(a));
    }
    h.0
}

/// The digest of every query protein's graph on one served world, in
/// profile order.
fn digests(extended: bool) -> Vec<(String, u64)> {
    let world = World::generate(WorldParams {
        extended,
        ..WorldParams::default()
    });
    let engine = WorldSpec {
        extended,
        ..WorldSpec::default()
    }
    .build();
    world
        .profiles
        .iter()
        .map(|p| {
            let q = ExploratoryQuery::protein_functions(&p.name);
            let r = engine.mediator().execute(&q).expect("integrates");
            (p.name.clone(), digest(&r))
        })
        .collect()
}

#[test]
fn served_integrations_match_their_golden_digests() {
    let plain = digests(false);
    let extended = digests(true);
    let got: Vec<(&str, u64, u64)> = plain
        .iter()
        .zip(&extended)
        .map(|((name, p), (ext_name, e))| {
            assert_eq!(name, ext_name);
            (name.as_str(), *p, *e)
        })
        .collect();
    assert_eq!(got, GOLDEN);
}
