//! Pins the snapshot byte format.
//!
//! A fixed, edited validator state — tombstoned vertices, an arena-end
//! insert, a set-valued column, and a structural violation — must encode
//! to exactly the bytes committed in `fixtures/snapshot_v2.hex`. Those
//! bytes were produced by the original copy-based encoder (export the
//! state, then serialize the copies), so the fixture proves the borrowed
//! encoder writes the unchanged v2 format. The same bytes must come out
//! whether the encoder borrows the live validator or an exported
//! [`xic_validate::LiveState`], and they must decode back to a validator
//! with the same report.

use xic_constraints::{Constraint, DtdC, DtdStructure, Field, Language};
use xic_model::{AttrValue, DataTree, NodeId, TreeBuilder};
use xic_storage::{decode_snapshot, encode_snapshot, SNAPSHOT_VERSION};
use xic_validate::{BatchEdit, LiveValidator, MatcherKind, Options, Validator};

const FIXTURE: &str = include_str!("fixtures/snapshot_v2.hex");

/// The WAL sequence the golden snapshot is stamped with.
const LAST_SEQ: u64 = 7;

fn golden_dtdc() -> DtdC {
    let structure = DtdStructure::builder("db")
        .elem("db", "(t0 + t1 + e1)*")
        .elem("t0", "(e0)*")
        .attr("t0", "k", "S")
        .elem("t1", "(e0)*")
        .attr("t1", "refs", "S*")
        .elem("e0", "S")
        .elem("e1", "S")
        .build()
        .expect("golden structure is well-formed");
    let sigma = vec![
        Constraint::Key {
            tau: "t0".into(),
            fields: vec![Field::attr("k")],
        },
        Constraint::SetForeignKey {
            tau: "t1".into(),
            attr: "refs".into(),
            target: "t0".into(),
            target_field: Field::attr("k"),
        },
    ];
    DtdC::new_unchecked(structure, Language::Lu, sigma)
}

fn set(members: &[&str]) -> AttrValue {
    AttrValue::set(members.iter().map(ToString::to_string))
}

/// `db` holding a duplicate key, a dangling set reference, and a `t0`
/// whose `e1` child breaks its content model.
fn golden_tree() -> DataTree {
    let mut b = TreeBuilder::new();
    let db = b.node("db");
    for (k, child) in [
        ("a", Some(("e0", "x"))),
        ("b", None),
        ("a", None),
        ("c", Some(("e1", "bad"))),
    ] {
        let t0 = b.child_node(db, "t0").unwrap();
        b.attr(t0, "k", AttrValue::single(k)).unwrap();
        if let Some((label, text)) = child {
            b.leaf(t0, label, text).unwrap();
        }
    }
    for refs in [&["a", "z"][..], &["b", "c"]] {
        let t1 = b.child_node(db, "t1").unwrap();
        b.attr(t1, "refs", set(refs)).unwrap();
    }
    b.finish(db).unwrap()
}

fn nth(live: &LiveValidator<'_, '_>, label: &str, n: usize) -> NodeId {
    let t = live.tree();
    t.node_ids()
        .filter(|&x| t.label(x).as_str() == label)
        .nth(n)
        .unwrap()
}

/// Deletes two `t0` subtrees (three tombstones), retargets a set, and
/// inserts a fresh `t0` at the arena end.
fn edit(live: &mut LiveValidator<'_, '_>) {
    let first = nth(live, "t0", 0);
    let second = nth(live, "t0", 1);
    let t1 = nth(live, "t1", 1);
    let mut fb = TreeBuilder::new();
    let fresh = fb.node("t0");
    fb.attr(fresh, "k", AttrValue::single("y")).unwrap();
    fb.leaf(fresh, "e0", "new").unwrap();
    let fragment = fb.finish(fresh).unwrap();
    let root = live.tree().root();
    live.apply_batch(&[
        BatchEdit::DeleteSubtree { node: first },
        BatchEdit::DeleteSubtree { node: second },
        BatchEdit::SetAttr {
            node: t1,
            attr: "refs".into(),
            value: set(&["c", "y", "q"]),
        },
        BatchEdit::InsertSubtree {
            parent: root,
            position: 1,
            fragment,
        },
    ])
    .unwrap();
}

fn fixture_bytes() -> Vec<u8> {
    let hex: String = FIXTURE.split_whitespace().collect();
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("fixture is hex"))
        .collect()
}

#[test]
fn snapshot_bytes_match_the_committed_v2_fixture() {
    assert_eq!(SNAPSHOT_VERSION, 2);
    let dtdc = golden_dtdc();
    let v = Validator::with_matcher(&dtdc, MatcherKind::Dfa, Options::default());
    let mut live = LiveValidator::new(&v, golden_tree());
    edit(&mut live);
    let report = live.report().to_string();
    assert!(report.contains("content model"), "{report}");
    assert!(report.contains("z"), "{report}");

    let borrowed = encode_snapshot(live.state_view(), LAST_SEQ);
    assert_eq!(borrowed, fixture_bytes(), "snapshot v2 byte format changed");
    assert_eq!(encode_snapshot(&live.export_state(), LAST_SEQ), borrowed);

    let (state, last_seq) = decode_snapshot(&borrowed).unwrap();
    assert_eq!(last_seq, LAST_SEQ);
    let warm = LiveValidator::from_state(&v, state).unwrap();
    assert_eq!(warm.report().to_string(), report);
}
