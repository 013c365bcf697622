//! Property-based tests of the topology substrate.

use std::collections::HashSet;

use aoft_hypercube::{gray, routing, Hypercube, NodeId, NodeSet, Subcube};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// NodeSet agrees with a HashSet model under arbitrary operation
    /// sequences.
    #[test]
    fn nodeset_matches_hashset_model(
        ops in prop::collection::vec((0u8..4, 0u32..96), 1..64),
    ) {
        let mut set = NodeSet::empty(96);
        let mut model: HashSet<u32> = HashSet::new();
        for (op, raw) in ops {
            let node = NodeId::new(raw);
            match op {
                0 => {
                    prop_assert_eq!(set.insert(node), model.insert(raw));
                }
                1 => {
                    prop_assert_eq!(set.remove(node), model.remove(&raw));
                }
                2 => {
                    prop_assert_eq!(set.contains(node), model.contains(&raw));
                }
                _ => {
                    prop_assert_eq!(set.len(), model.len());
                    prop_assert_eq!(set.is_empty(), model.is_empty());
                }
            }
        }
        let from_set: HashSet<u32> = set.iter().map(|n| n.raw()).collect();
        prop_assert_eq!(from_set, model);
    }

    /// Bit operations agree with the model.
    #[test]
    fn nodeset_bitops_match_model(
        a in prop::collection::hash_set(0u32..128, 0..40),
        b in prop::collection::hash_set(0u32..128, 0..40),
    ) {
        let to_set = |m: &HashSet<u32>| -> NodeSet {
            let mut s = NodeSet::empty(128);
            for &x in m {
                s.insert(NodeId::new(x));
            }
            s
        };
        let (sa, sb) = (to_set(&a), to_set(&b));
        let check = |s: NodeSet, m: HashSet<u32>| {
            let got: HashSet<u32> = s.iter().map(|n| n.raw()).collect();
            got == m
        };
        prop_assert!(check(&sa | &sb, a.union(&b).copied().collect()));
        prop_assert!(check(&sa & &sb, a.intersection(&b).copied().collect()));
        prop_assert!(check(&sa ^ &sb, a.symmetric_difference(&b).copied().collect()));
        prop_assert_eq!(sa.is_subset_of(&sb), a.is_subset(&b));
    }

    /// Disjoint path families exist and verify for arbitrary pairs in
    /// larger cubes than the unit tests sweep.
    #[test]
    fn disjoint_paths_random_pairs(
        dim in 1u32..9,
        src_raw in any::<u32>(),
        dst_raw in any::<u32>(),
    ) {
        let cube = Hypercube::new(dim).unwrap();
        let n = cube.len() as u32;
        let src = NodeId::new(src_raw % n);
        let dst = NodeId::new(dst_raw % n);
        prop_assume!(src != dst);
        let family = routing::DisjointPaths::build(&cube, src, dst);
        prop_assert_eq!(family.len(), dim as usize);
        prop_assert!(family.verify_disjoint());
        let d = src.hamming_distance(dst) as usize;
        for path in family.paths() {
            prop_assert!(path.is_valid());
            prop_assert!(path.hops() == d || path.hops() == d + 2);
        }
    }

    /// E-cube routes are shortest and stay within the cube.
    #[test]
    fn ecube_routes(dim in 1u32..10, a in any::<u32>(), b in any::<u32>()) {
        let cube = Hypercube::new(dim).unwrap();
        let n = cube.len() as u32;
        let (src, dst) = (NodeId::new(a % n), NodeId::new(b % n));
        let path = routing::ecube_path(src, dst);
        prop_assert!(path.is_valid());
        prop_assert_eq!(path.hops() as u32, src.hamming_distance(dst));
        for node in path.nodes() {
            prop_assert!(cube.contains(*node));
        }
    }

    /// Home subcubes nest: SC_{i,j} ⊆ SC_{i+1,j}, and all members agree on
    /// their shared home subcube.
    #[test]
    fn home_subcubes_nest(dim in 0u32..10, node_raw in any::<u32>()) {
        let node = NodeId::new(node_raw % (1 << 12));
        let sub = Subcube::home(dim, node);
        let parent = Subcube::home(dim + 1, node);
        prop_assert!(parent.contains(sub.start()) && parent.contains(sub.end()));
        for member in sub.iter().take(64) {
            prop_assert_eq!(Subcube::home(dim, member), sub);
        }
        prop_assert_eq!(sub.len() * 2, parent.len());
    }

    /// The buddy relation partitions the parent.
    #[test]
    fn buddies_partition_parent(dim in 0u32..10, node_raw in any::<u32>()) {
        let node = NodeId::new(node_raw % (1 << 12));
        let sub = Subcube::home(dim, node);
        let buddy = sub.buddy();
        prop_assert_eq!(sub.parent(), buddy.parent());
        prop_assert!(sub.start() != buddy.start());
        // Together they tile the parent exactly.
        let parent = sub.parent();
        let total: usize = sub.len() + buddy.len();
        prop_assert_eq!(total, parent.len());
    }
}

#[test]
fn ring_embedding_is_hamiltonian_at_scale() {
    let ring = gray::ring_embedding(12);
    assert_eq!(ring.len(), 4096);
    let unique: HashSet<u32> = ring.iter().map(|n| n.raw()).collect();
    assert_eq!(unique.len(), 4096);
    for pair in ring.windows(2) {
        assert!(pair[0].is_neighbor_of(pair[1]));
    }
    assert!(ring[0].is_neighbor_of(ring[4095]));
}
