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
//!
//! A second pair of fixtures, `layout_init.hex` and `layout_edited.hex`,
//! pins the column layout itself. Its schema gives one element type two
//! single attribute fields, a unique sub-element field and two set
//! attributes, so the bytes fix the column order (singles ascending by
//! `(τ, field)`, then sets ascending by `(τ, attribute)`) and
//! `LiveValidator::new`'s interning order (single fields row by row per
//! element type, then set columns one column at a time), as well as the
//! cells an edit batch re-extracts and fills.

use xic_constraints::{Constraint, DtdC, DtdStructure, Field, Language};
use xic_model::{AttrValue, DataTree, NodeId, TreeBuilder};
use xic_storage::{decode_snapshot, encode_snapshot, SNAPSHOT_VERSION};
use xic_validate::{BatchEdit, LiveValidator, MatcherKind, Options, Validator};

const FIXTURE: &str = include_str!("fixtures/snapshot_v2.hex");
const LAYOUT_INIT: &str = include_str!("fixtures/layout_init.hex");
const LAYOUT_EDITED: &str = include_str!("fixtures/layout_edited.hex");

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
    hex_bytes(FIXTURE)
}

fn hex_bytes(fixture: &str) -> Vec<u8> {
    let hex: String = fixture.split_whitespace().collect();
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

/// `item` carries two single attribute fields (`@a`, `@b`), a unique
/// sub-element field (`name`) and two set attributes (`tags`, `also`);
/// `ref` adds a second element type with a single field.
fn layout_dtdc() -> DtdC {
    let structure = DtdStructure::builder("db")
        .elem("db", "(item + ref)*")
        .elem("item", "(name)")
        .attr("item", "a", "S")
        .attr("item", "b", "S")
        .attr("item", "tags", "S*")
        .attr("item", "also", "S*")
        .elem("name", "S")
        .elem("ref", "EMPTY")
        .attr("ref", "to", "S")
        .build()
        .expect("layout structure is well-formed");
    let sigma = vec![
        Constraint::Key {
            tau: "item".into(),
            fields: vec![Field::attr("a"), Field::attr("b")],
        },
        Constraint::ForeignKey {
            tau: "ref".into(),
            fields: vec![Field::attr("to")],
            target: "item".into(),
            target_fields: vec![Field::sub("name")],
        },
        Constraint::SetForeignKey {
            tau: "item".into(),
            attr: "tags".into(),
            target: "item".into(),
            target_field: Field::attr("a"),
        },
        Constraint::SetForeignKey {
            tau: "item".into(),
            attr: "also".into(),
            target: "item".into(),
            target_field: Field::attr("b"),
        },
    ];
    DtdC::new_unchecked(structure, Language::Lu, sigma)
}

/// Three `item`s and two `ref`s. Every value string is distinct unless a
/// violation needs it shared, so any change to the interning order moves
/// symbol numbers and hence snapshot bytes.
fn layout_tree() -> DataTree {
    let mut b = TreeBuilder::new();
    let db = b.node("db");
    for (a, bv, name, tags, also) in [
        ("a1", "b1", "n1", &["a2", "t1"][..], &["b3"][..]),
        ("a2", "b2", "n2", &[][..], &["u1", "b1"][..]),
        ("a1", "b1", "n3", &["a3"][..], &[][..]),
    ] {
        let item = b.child_node(db, "item").unwrap();
        b.attr(item, "a", AttrValue::single(a)).unwrap();
        b.attr(item, "b", AttrValue::single(bv)).unwrap();
        if !tags.is_empty() {
            b.attr(item, "tags", set(tags)).unwrap();
        }
        if !also.is_empty() {
            b.attr(item, "also", set(also)).unwrap();
        }
        b.leaf(item, "name", name).unwrap();
    }
    for to in ["n2", "r9"] {
        let r = b.child_node(db, "ref").unwrap();
        b.attr(r, "to", AttrValue::single(to)).unwrap();
    }
    b.finish(db).unwrap()
}

/// One batch touching every column kind: a set rewrite, a single
/// attribute rewrite, a sub-element text rewrite, a deletion, and an
/// inserted `item` that is filled from scratch.
fn layout_edit(live: &mut LiveValidator<'_, '_>) {
    let first = nth(live, "item", 0);
    let second = nth(live, "item", 1);
    let third = nth(live, "item", 2);
    let name = live.tree().node(third).child_nodes().next().unwrap();
    let mut fb = TreeBuilder::new();
    let fresh = fb.node("item");
    fb.attr(fresh, "a", AttrValue::single("a9")).unwrap();
    fb.attr(fresh, "b", AttrValue::single("b9")).unwrap();
    fb.attr(fresh, "tags", set(&["x1", "a9"])).unwrap();
    fb.attr(fresh, "also", set(&["b9", "x2"])).unwrap();
    fb.leaf(fresh, "name", "n9").unwrap();
    let fragment = fb.finish(fresh).unwrap();
    let root = live.tree().root();
    live.apply_batch(&[
        BatchEdit::SetAttr {
            node: first,
            attr: "tags".into(),
            value: set(&["q1", "a1"]),
        },
        BatchEdit::SetAttr {
            node: third,
            attr: "b".into(),
            value: AttrValue::single("b7"),
        },
        BatchEdit::SetText {
            node: name,
            index: 0,
            text: "r9".into(),
        },
        BatchEdit::DeleteSubtree { node: second },
        BatchEdit::InsertSubtree {
            parent: root,
            position: 0,
            fragment,
        },
    ])
    .unwrap();
}

/// Encodes `live`, checks it against `fixture`, and checks the bytes
/// decode back to a validator with the same report.
fn assert_layout_fixture(v: &Validator<'_>, live: &LiveValidator<'_, '_>, fixture: &str) {
    let report = live.report().to_string();
    let bytes = encode_snapshot(live.state_view(), LAST_SEQ);
    assert_eq!(
        bytes,
        hex_bytes(fixture),
        "column layout or interning order changed"
    );
    assert_eq!(encode_snapshot(&live.export_state(), LAST_SEQ), bytes);
    let (state, _) = decode_snapshot(&bytes).unwrap();
    let warm = LiveValidator::from_state(v, state).unwrap();
    assert_eq!(warm.report().to_string(), report);
}

#[test]
fn fresh_snapshot_pins_column_layout_and_interning_order() {
    let dtdc = layout_dtdc();
    let v = Validator::with_matcher(&dtdc, MatcherKind::Dfa, Options::default());
    let live = LiveValidator::new(&v, layout_tree());
    let report = live.report().to_string();
    assert!(report.contains("a1, b1"), "{report}");
    assert!(report.contains("r9"), "{report}");
    assert!(report.contains("u1"), "{report}");
    assert_layout_fixture(&v, &live, LAYOUT_INIT);
}

#[test]
fn edited_snapshot_pins_reextracted_and_filled_cells() {
    let dtdc = layout_dtdc();
    let v = Validator::with_matcher(&dtdc, MatcherKind::Dfa, Options::default());
    let mut live = LiveValidator::new(&v, layout_tree());
    layout_edit(&mut live);
    let report = live.report().to_string();
    assert!(report.contains("q1"), "{report}");
    assert!(report.contains("x1"), "{report}");
    assert!(!report.contains("r9"), "{report}");
    assert_eq!(report, v.validate(live.tree()).to_string());
    assert_layout_fixture(&v, &live, LAYOUT_EDITED);
}
