//! Seeded inputs: documents of the E11 constraint-heavy schema (suppliers,
//! parts and orders under ten `L_u` constraints) with a chosen share of
//! dangling references, and the edit scripts the editors send.
//!
//! The program under test only ever sees what this module renders: XML
//! text with its internal DTD subset, the Σ file, and edit-script text.

use std::path::PathBuf;

use rand::rngs::SmallRng;
use rand::Rng;
use xic::prelude::*;

use crate::common::WorkDir;

/// A generated document: the schema it was built for and its XML text.
pub struct Doc {
    pub dtdc: DtdC,
    pub xml: String,
    /// Vertices in the document.
    pub nodes: usize,
}

/// Builds a document of about `n` vertices from `seed`. One order in
/// `1 / dangle_every` gets a dangling reference (0 keeps it valid),
/// cycling through `order.part`, `order.refs` and `part.sup`.
pub fn document(n: usize, seed: u64, dangle_every: usize) -> Doc {
    let (dtdc, tree) = tree(n, seed, dangle_every);
    Doc {
        nodes: tree.len(),
        xml: render(&dtdc, &tree),
        dtdc,
    }
}

/// The schema and tree [`document`] serializes.
pub fn tree(n: usize, seed: u64, dangle_every: usize) -> (DtdC, DataTree) {
    let (dtdc, mut tree) = xic_bench::constraint_heavy_workload(n, seed);
    let orders: Vec<NodeId> = tree.ext("order").collect();
    let parts: Vec<NodeId> = tree.ext("part").collect();
    let mut r = xic_bench::rng(seed ^ 0xD1A6);
    for k in 0..orders.len().checked_div(dangle_every).unwrap_or(0) {
        let i = r.gen_range(0..orders.len());
        let (node, attr, value) = match k % 3 {
            0 => (orders[i], "part", AttrValue::single(format!("px{k}"))),
            1 => (
                orders[i],
                "refs",
                AttrValue::set([format!("p{i}"), format!("px{k}")]),
            ),
            _ => (parts[i], "sup", AttrValue::single(format!("sx{k}"))),
        };
        tree.set_attr(node, attr, value)
            .expect("generated vertices are alive");
    }
    (dtdc, tree)
}

/// A document's XML text, with its DTD as the internal subset.
pub fn render(dtdc: &DtdC, tree: &DataTree) -> String {
    format!(
        "<!DOCTYPE db [\n{}]>\n{}",
        serialize_dtd(dtdc.structure()),
        serialize_document(tree)
    )
}

/// Σ as the `--sigma` file holds it: one constraint per line.
pub fn sigma_text(dtdc: &DtdC) -> String {
    dtdc.constraints()
        .iter()
        .map(|c| format!("{c}\n"))
        .collect()
}

/// The library's report for a document, from the tree engine on a fresh
/// parse of its text — the reference every daemon and CLI answer is
/// compared against.
pub fn reference_report(doc: &Doc) -> String {
    let parsed = parse_document(&doc.xml).expect("generated XML parses");
    Validator::new(&doc.dtdc).validate(&parsed.tree).to_string()
}

/// The documents a daemon workload serves, with what the benchmark needs
/// to check answers about them and to edit them.
pub struct Corpus {
    pub docs: Vec<Doc>,
    /// Each document's edit targets, numbered as the daemon parses it.
    pub targets: Vec<Targets>,
    /// Each document's library report ([`reference_report`]).
    pub reference: Vec<String>,
    /// The `--sigma` file every daemon is started with.
    pub sigma: PathBuf,
    pub seed: u64,
}

impl Corpus {
    /// `count` documents of about `nodes` vertices drawn from `seed` (see
    /// [`document`] for `dangle_every`), with Σ written under `work`.
    pub fn new(
        count: usize,
        nodes: usize,
        seed: u64,
        dangle_every: usize,
        work: &WorkDir,
    ) -> Result<Corpus, String> {
        let docs: Vec<Doc> = (0..count)
            .map(|d| document(nodes, seed * 31 + d as u64, dangle_every))
            .collect();
        let targets = docs
            .iter()
            .map(|doc| {
                let parsed = parse_document(&doc.xml).expect("generated XML parses");
                Targets::new(&parsed.tree, seed)
            })
            .collect();
        let reference = docs.iter().map(reference_report).collect();
        let sigma = work.path("sigma.txt");
        std::fs::write(&sigma, sigma_text(&docs[0].dtdc)).map_err(|e| e.to_string())?;
        Ok(Corpus {
            docs,
            targets,
            reference,
            sigma,
            seed,
        })
    }
}

/// Number of orders whose edits may raise violations. Keeping them few
/// bounds the live violation count, and with it the size of every edit
/// response.
pub const HOT_ORDERS: usize = 32;

/// One order an editor may touch.
#[derive(Clone, Copy)]
struct Order {
    node: NodeId,
    memo: NodeId,
    /// `i` of the order's `o{i}` key; its memo text starts as `m{i}`.
    row: usize,
}

/// The vertices of a parsed document that the edit scripts address.
pub struct Targets {
    orders: Vec<Order>,
    hot: Vec<usize>,
    /// Rows in the document: suppliers `s0..`, parts `p0..`.
    rows: usize,
}

impl Targets {
    /// Finds every order of `tree` (as the daemon numbers them after
    /// parsing the same text) and picks the hot set from `seed`.
    pub fn new(tree: &DataTree, seed: u64) -> Targets {
        let orders: Vec<Order> = tree
            .ext("order")
            .map(|node| {
                let oid = tree.attr(node, "oid").and_then(AttrValue::as_single);
                let row = oid
                    .and_then(|v| v.strip_prefix('o'))
                    .and_then(|d| d.parse().ok())
                    .expect("orders carry oid o{i}");
                let memo = tree
                    .node(node)
                    .child_nodes()
                    .next()
                    .expect("orders have a memo");
                Order { node, memo, row }
            })
            .collect();
        let mut r = xic_bench::rng(seed ^ 0x407);
        let mut hot: Vec<usize> = Vec::with_capacity(HOT_ORDERS);
        while hot.len() < HOT_ORDERS.min(orders.len()) {
            let i = r.gen_range(0..orders.len());
            if !hot.contains(&i) {
                hot.push(i);
            }
        }
        Targets {
            rows: orders.len(),
            orders,
            hot,
        }
    }
}

/// One edit of a script.
pub enum Op {
    Sup(NodeId, String),
    Refs(NodeId, String, String),
    Memo(NodeId, String),
}

impl Op {
    /// The edit as an `apply-edits` script line.
    pub fn line(&self) -> String {
        match self {
            Op::Sup(n, v) => format!("set-attr {} sup {v}\n", n.index()),
            Op::Refs(n, a, b) => format!("set-attr {} refs {a},{b}\n", n.index()),
            Op::Memo(n, v) => format!("set-text {} 0 {v}\n", n.index()),
        }
    }

    /// The edit as the [`BatchEdit`] the daemon parses that line into.
    pub fn batch_edit(&self) -> BatchEdit {
        match self {
            Op::Sup(n, v) => BatchEdit::SetAttr {
                node: *n,
                attr: "sup".into(),
                value: AttrValue::single(v.clone()),
            },
            Op::Refs(n, a, b) => BatchEdit::SetAttr {
                node: *n,
                attr: "refs".into(),
                value: AttrValue::set([a.clone(), b.clone()]),
            },
            Op::Memo(n, v) => BatchEdit::SetText {
                node: *n,
                index: 0,
                text: v.clone(),
            },
        }
    }
}

/// The script text of `ops`.
pub fn script(ops: &[Op]) -> String {
    ops.iter().map(Op::line).collect()
}

/// The batch the daemon applies for `ops`.
pub fn batch(ops: &[Op]) -> Vec<BatchEdit> {
    ops.iter().map(Op::batch_edit).collect()
}

/// A deterministic stream of edits over one document: `set-attr sup`,
/// `set-attr refs` and `set-text` of the memo, one of the three at
/// random. A quarter of the edits hit the hot orders, where values may
/// dangle or duplicate another hot memo; every other edit writes a value
/// that keeps the document valid. No edit is structural, so the tree's
/// arena never grows, and every value comes from a bounded set, so
/// neither does the intern pool.
pub struct EditGen<'t> {
    t: &'t Targets,
    rng: SmallRng,
}

impl<'t> EditGen<'t> {
    pub fn new(t: &'t Targets, seed: u64) -> EditGen<'t> {
        EditGen {
            t,
            rng: xic_bench::rng(seed),
        }
    }

    /// The next script of the edit-stream mix: one edit nine times in
    /// ten, sixteen otherwise.
    pub fn next_request(&mut self) -> Vec<Op> {
        let size = if self.rng.gen_range(0..10) == 0 {
            16
        } else {
            1
        };
        self.next_script(size)
    }

    /// The next script of exactly `size` edits.
    pub fn next_script(&mut self, size: usize) -> Vec<Op> {
        (0..size).map(|_| self.next_op()).collect()
    }

    fn next_op(&mut self) -> Op {
        let t = self.t;
        let r = &mut self.rng;
        let hot = r.gen_range(0..4) == 0;
        let o = if hot {
            t.orders[t.hot[r.gen_range(0..t.hot.len())]]
        } else {
            loop {
                let i = r.gen_range(0..t.orders.len());
                if !t.hot.contains(&i) {
                    break t.orders[i];
                }
            }
        };
        let dangle = hot && r.gen_range(0..2) == 0;
        match r.gen_range(0..3) {
            0 if dangle => Op::Sup(o.node, format!("sz{}", r.gen_range(0..4))),
            0 => Op::Sup(o.node, format!("s{}", r.gen_range(0..t.rows))),
            1 => {
                let a = r.gen_range(0..t.rows);
                let b = if dangle {
                    format!("pz{}", r.gen_range(0..4))
                } else {
                    format!("p{}", (a + 1 + r.gen_range(0..t.rows - 1)) % t.rows)
                };
                Op::Refs(o.node, format!("p{a}"), b)
            }
            _ if dangle => {
                let other = t.orders[t.hot[r.gen_range(0..t.hot.len())]].row;
                Op::Memo(o.memo, format!("m{other}"))
            }
            _ => {
                let prefix = if r.gen_range(0..2) == 0 { 'm' } else { 'x' };
                Op::Memo(o.memo, format!("{prefix}{}", o.row))
            }
        }
    }
}
