//! Differential test of the indexed edge storage: drive a
//! [`PartialInstance`] and a naive flat-set oracle through identical
//! random insert/remove sequences and require every public view — nodes,
//! edges, labeled scans, successor/predecessor/incidence lookups,
//! equality, ordering, hashing — to agree at every step.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use receivers_objectbase::examples::beer_schema;
use receivers_objectbase::{DeltaOp, Edge, Oid, PartialInstance, PropId};

/// The reference model: the flat item sets the pre-index implementation
/// stored directly.
#[derive(Default, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Oracle {
    nodes: BTreeSet<Oid>,
    edges: BTreeSet<Edge>,
}

impl Oracle {
    fn successors(&self, o: Oid, p: PropId) -> Vec<Oid> {
        self.edges
            .iter()
            .filter(|e| e.src == o && e.prop == p)
            .map(|e| e.dst)
            .collect()
    }

    fn predecessors(&self, o: Oid, p: PropId) -> Vec<Oid> {
        self.edges
            .iter()
            .filter(|e| e.dst == o && e.prop == p)
            .map(|e| e.src)
            .collect()
    }
}

struct Universe {
    props: Vec<(
        PropId,
        receivers_objectbase::ClassId,
        receivers_objectbase::ClassId,
    )>,
    classes: Vec<receivers_objectbase::ClassId>,
    objects_per_class: u32,
}

impl Universe {
    fn random_node(&self, rng: &mut StdRng) -> Oid {
        let c = self.classes[rng.random_range(0..self.classes.len())];
        Oid::new(c, rng.random_range(0..self.objects_per_class))
    }

    /// A well-typed (possibly dangling) edge.
    fn random_edge(&self, rng: &mut StdRng) -> Edge {
        let (p, src, dst) = self.props[rng.random_range(0..self.props.len())];
        Edge::new(
            Oid::new(src, rng.random_range(0..self.objects_per_class)),
            p,
            Oid::new(dst, rng.random_range(0..self.objects_per_class)),
        )
    }
}

fn check_agreement(subject: &PartialInstance, oracle: &Oracle, u: &Universe) {
    subject.check_index_consistent();

    assert_eq!(
        subject.nodes().collect::<Vec<_>>(),
        oracle.nodes.iter().copied().collect::<Vec<_>>(),
        "node views diverged"
    );
    assert_eq!(
        subject.edges().collect::<Vec<_>>(),
        oracle.edges.iter().copied().collect::<Vec<_>>(),
        "edge views diverged (canonical order)"
    );
    assert_eq!(subject.node_count(), oracle.nodes.len());
    assert_eq!(subject.edge_count(), oracle.edges.len());

    for &(p, _, _) in &u.props {
        assert_eq!(
            subject.edges_labeled(p).collect::<Vec<_>>(),
            oracle
                .edges
                .iter()
                .filter(|e| e.prop == p)
                .copied()
                .collect::<Vec<_>>(),
            "labeled scan diverged"
        );
    }
    for &c in &u.classes {
        assert_eq!(
            subject.class_members(c).collect::<Vec<_>>(),
            oracle
                .nodes
                .iter()
                .filter(|o| o.class == c)
                .copied()
                .collect::<Vec<_>>(),
            "class members diverged"
        );
    }
    // Point lookups on every node that occurs in some edge, plus a few
    // absent ones.
    let touched: BTreeSet<Oid> = oracle
        .edges
        .iter()
        .flat_map(|e| [e.src, e.dst])
        .chain(oracle.nodes.iter().copied())
        .collect();
    for &o in &touched {
        for &(p, _, _) in &u.props {
            assert_eq!(
                subject.successors(o, p).collect::<Vec<_>>(),
                oracle.successors(o, p),
                "successors diverged"
            );
            assert_eq!(
                subject.predecessors(o, p).collect::<Vec<_>>(),
                oracle.predecessors(o, p),
                "predecessors diverged"
            );
        }
        assert_eq!(
            subject.edges_incident(o).collect::<Vec<_>>(),
            oracle
                .edges
                .iter()
                .filter(|e| e.src == o || e.dst == o)
                .copied()
                .collect::<Vec<_>>(),
            "incident edges diverged"
        );
    }
}

fn hash_of(p: &PartialInstance) -> u64 {
    let mut h = DefaultHasher::new();
    p.hash(&mut h);
    h.finish()
}

/// Rebuild a partial instance from an oracle state by inserting items in
/// a shuffled order, so equality/ordering/hashing are exercised across
/// different construction histories.
fn rebuild_shuffled(
    oracle: &Oracle,
    schema: &Arc<receivers_objectbase::Schema>,
    rng: &mut StdRng,
) -> PartialInstance {
    let mut p = PartialInstance::empty(Arc::clone(schema));
    let mut edges: Vec<Edge> = oracle.edges.iter().copied().collect();
    // Fisher–Yates on the insertion order.
    for i in (1..edges.len()).rev() {
        edges.swap(i, rng.random_range(0..i + 1));
    }
    for e in edges {
        p.insert_edge(e).expect("oracle edges are well typed");
    }
    for &o in &oracle.nodes {
        p.insert_node(o);
    }
    p
}

#[test]
fn random_sequences_agree_with_flat_set_oracle() {
    let s = beer_schema();
    let u = Universe {
        props: [s.frequents, s.likes, s.serves]
            .iter()
            .map(|&p| {
                let prop = s.schema.property(p);
                (p, prop.src, prop.dst)
            })
            .collect(),
        classes: vec![s.drinker, s.bar, s.beer],
        objects_per_class: 12,
    };

    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(0xED6E ^ seed);
        let mut subject = PartialInstance::empty(Arc::clone(&s.schema));
        let mut oracle = Oracle::default();

        for step in 0..400 {
            match rng.random_range(0..10u32) {
                // Inserts dominate so the structures actually grow.
                0..=2 => {
                    let o = u.random_node(&mut rng);
                    assert_eq!(subject.insert_node(o), oracle.nodes.insert(o));
                }
                3..=6 => {
                    let e = u.random_edge(&mut rng);
                    assert_eq!(
                        subject.insert_edge(e).expect("well typed"),
                        oracle.edges.insert(e)
                    );
                }
                7 => {
                    let o = u.random_node(&mut rng);
                    assert_eq!(subject.remove_node(o), oracle.nodes.remove(&o));
                }
                8 => {
                    let e = u.random_edge(&mut rng);
                    assert_eq!(subject.remove_edge(&e), oracle.edges.remove(&e));
                }
                // Remove an *existing* edge, so removals hit often enough
                // to exercise index pruning.
                _ => {
                    if !oracle.edges.is_empty() {
                        let k = rng.random_range(0..oracle.edges.len());
                        let e = *oracle.edges.iter().nth(k).expect("index in range");
                        assert!(subject.remove_edge(&e));
                        assert!(oracle.edges.remove(&e));
                    }
                }
            }
            if step % 40 == 0 {
                check_agreement(&subject, &oracle, &u);
            }
        }
        check_agreement(&subject, &oracle, &u);

        // Equality, ordering, and hashing must be insertion-order
        // independent and match the oracle's set semantics.
        let rebuilt = rebuild_shuffled(&oracle, &s.schema, &mut rng);
        assert_eq!(subject, rebuilt);
        assert_eq!(subject.cmp(&rebuilt), std::cmp::Ordering::Equal);
        assert_eq!(hash_of(&subject), hash_of(&rebuilt));

        // Mutating one edge must be visible to Eq/Ord exactly as it is on
        // the flat sets.
        let mut other = rebuilt.clone();
        let mut other_oracle = oracle.clone();
        let e = u.random_edge(&mut rng);
        if other.insert_edge(e).expect("well typed") {
            other_oracle.edges.insert(e);
            assert_ne!(subject, other);
            assert_eq!(
                subject.cmp(&other),
                (oracle.nodes.clone(), oracle.edges.clone())
                    .cmp(&(other_oracle.nodes.clone(), other_oracle.edges.clone())),
                "ordering diverged from flat-set lexicographic order"
            );
        }
    }
}

/// The oracle's reading of a bulk replace: each row in turn loses every
/// `p`-successor, then gains its values — the loop the primitive
/// replaced.
fn oracle_replace(oracle: &mut Oracle, p: PropId, rows: &[(Oid, Vec<Oid>)]) {
    for (src, values) in rows {
        oracle.edges.retain(|e| !(e.src == *src && e.prop == p));
        oracle
            .edges
            .extend(values.iter().map(|&v| Edge::new(*src, p, v)));
    }
}

/// A random replace batch on property `p`. Rows mix every shape the
/// primitive distinguishes: values overlapping the old successors, an
/// empty new list, sources with no old edges, and (when `messy`)
/// unsorted duplicate values and a repeated row.
fn random_batch(
    oracle: &Oracle,
    u: &Universe,
    p_idx: usize,
    row_count: usize,
    messy: bool,
    rng: &mut StdRng,
) -> Vec<(Oid, Vec<Oid>)> {
    let (p, src_class, dst_class) = u.props[p_idx];
    let mut srcs: Vec<u32> = (0..u.objects_per_class).collect();
    for i in (1..srcs.len()).rev() {
        srcs.swap(i, rng.random_range(0..i + 1));
    }
    let mut rows: Vec<(Oid, Vec<Oid>)> = srcs[..row_count]
        .iter()
        .map(|&k| {
            let src = Oid::new(src_class, k);
            let old = oracle.successors(src, p);
            let mut values: Vec<Oid> = match rng.random_range(0..4u32) {
                0 => Vec::new(),
                // Overlap: keep a random part of the old values.
                1 | 2 => old
                    .iter()
                    .copied()
                    .filter(|_| rng.random_bool(0.6))
                    .collect(),
                _ => old.clone(),
            };
            let fresh = rng.random_range(0..u.objects_per_class as usize / 2);
            values.extend(
                (0..fresh).map(|_| Oid::new(dst_class, rng.random_range(0..u.objects_per_class))),
            );
            values.sort_unstable();
            values.dedup();
            if messy && values.len() > 1 {
                values.reverse();
                values.push(values[0]);
            }
            (src, values)
        })
        .collect();
    if messy {
        rows.reverse();
        let again = rows[0].0;
        rows.push((again, vec![Oid::new(dst_class, 0)]));
    }
    rows
}

/// `replace_successors` against the flat-set oracle: every public view
/// agrees after every batch, the log is exactly the effective edits in
/// canonical order (each edge at most once), and an ill-typed batch is
/// refused without touching the instance. Batches of one row changing
/// a few edges stay below the rebuild threshold of the dense index
/// views (point edits); batches of most rows cross it (sorted-merge
/// rebuilds).
#[test]
fn replace_successors_agrees_with_flat_set_oracle() {
    let s = beer_schema();
    let u = Universe {
        props: [s.frequents, s.likes, s.serves]
            .iter()
            .map(|&p| {
                let prop = s.schema.property(p);
                (p, prop.src, prop.dst)
            })
            .collect(),
        classes: vec![s.drinker, s.bar, s.beer],
        objects_per_class: 24,
    };

    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(0x5E7A ^ seed);
        let mut subject = PartialInstance::empty(Arc::clone(&s.schema));
        let mut oracle = Oracle::default();
        // A dense start, so one-row batches are small against the views.
        for _ in 0..600 {
            let e = u.random_edge(&mut rng);
            subject.insert_edge(e).expect("well typed");
            oracle.edges.insert(e);
        }
        for step in 0..60 {
            let p_idx = rng.random_range(0..u.props.len());
            let p = u.props[p_idx].0;
            let row_count = match step % 3 {
                0 => 1,
                1 => rng.random_range(2..6),
                _ => rng.random_range(12..=u.objects_per_class as usize),
            };
            let messy = rng.random_range(0..5u32) == 0;
            let rows = random_batch(&oracle, &u, p_idx, row_count, messy, &mut rng);
            let before = oracle.clone();
            oracle_replace(&mut oracle, p, &rows);

            let borrowed: Vec<(Oid, &[Oid])> =
                rows.iter().map(|(o, v)| (*o, v.as_slice())).collect();
            let mut ops = Vec::new();
            subject
                .replace_successors(p, &borrowed, &mut ops)
                .expect("well typed");
            check_agreement(&subject, &oracle, &u);

            let logged: Vec<Edge> = ops
                .iter()
                .map(|op| match *op {
                    DeltaOp::AddedEdge(e) => {
                        assert!(!before.edges.contains(&e) && oracle.edges.contains(&e));
                        e
                    }
                    DeltaOp::RemovedEdge(e) => {
                        assert!(before.edges.contains(&e) && !oracle.edges.contains(&e));
                        e
                    }
                    other => panic!("node op {other:?} from an edge replace"),
                })
                .collect();
            let changed: Vec<Edge> = before
                .edges
                .symmetric_difference(&oracle.edges)
                .copied()
                .collect();
            assert_eq!(logged, changed, "log is not the canonical effective diff");
        }

        // An ill-typed value anywhere in the batch refuses the whole
        // batch before anything changes.
        let (p, src_class, dst_class) = u.props[0];
        let good = [Oid::new(dst_class, 1)];
        let bad = [Oid::new(src_class, 1), Oid::new(dst_class, 2)];
        let rows: [(Oid, &[Oid]); 2] = [
            (Oid::new(src_class, 0), &good),
            (Oid::new(src_class, 1), &bad),
        ];
        let snapshot = subject.clone();
        let mut ops = Vec::new();
        assert!(subject.replace_successors(p, &rows, &mut ops).is_err());
        assert!(ops.is_empty());
        assert_eq!(subject, snapshot);
        check_agreement(&subject, &oracle, &u);
    }
}
