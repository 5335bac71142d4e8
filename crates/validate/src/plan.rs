//! The compiled constraint-validation plan and its columnar document index.
//!
//! The naive checker ([`crate::check_constraint`]) re-extracts field values
//! from the tree for every constraint. On realistic schemas many
//! constraints share element types and fields (a key and three foreign keys
//! all touching `person.@oid`), so the [`Validator`] instead compiles Σ
//! once into a [`Plan`]: the layout of the `(element type, field)` columns
//! any constraint will read, with dense column ids that the tree engine,
//! the streaming fill and the live validator all share. Validating a
//! document then proceeds in two stages:
//!
//! 1. **Extraction** — [`extract_columns`], the one walk that reads planned
//!    columns from a tree (the live validator's bulk init runs it too),
//!    builds a columnar [`DocIndex`]: per `(τ, field)` a `Vec<Option<Sym>>`
//!    aligned with `ext(τ)`, with every value interned to a `u32` [`Sym`].
//!    Each field is extracted once, no matter how many constraints read
//!    it, and all subsequent equality/hash/set operations are integer
//!    operations.
//! 2. **Checking** — every constraint is checked against the shared
//!    columns. With `threads > 1` the checks fan out across constraints,
//!    and large extents additionally split into chunks whose violation
//!    lists are concatenated in document order.
//!
//! Both stages are engineered to reproduce the sequential checker's
//! violation reports **byte for byte**: constraints report in Σ order,
//! chunks merge in extent order, and interning is a bijection on the value
//! strings so every probe/dedup decision matches the string-based path.
//!
//! [`Validator`]: crate::Validator

use std::cell::OnceCell;
use std::collections::{BTreeMap, BTreeSet};

use xic_constraints::{Constraint, DtdC, DtdStructure, Field};
use xic_model::{DataTree, ExtIndex, FastHashMap, FastHashSet, Interner, Name, NodeId, Sym};
use xic_obs::Obs;

use crate::constraints::unique_sub;
use crate::par::{chunked, fan_out};
use crate::report::Violation;

/// A dense bitset over the symbols of one document's [`Interner`].
///
/// Membership sets in foreign-key scans are probed once per referencing
/// value; with symbols being dense `u32`s a bitset makes each probe one
/// shift/mask instead of a hash — and it is freely shared by the chunked
/// parallel scans.
pub(crate) struct SymSet {
    words: Vec<u64>,
}

impl SymSet {
    /// An empty set able to hold all `sym_count` symbols of an interner.
    pub(crate) fn new(sym_count: usize) -> Self {
        SymSet {
            words: vec![0; sym_count.div_ceil(64)],
        }
    }

    #[inline]
    pub(crate) fn insert(&mut self, sym: Sym) {
        self.words[sym.index() / 64] |= 1 << (sym.index() % 64);
    }

    #[inline]
    pub(crate) fn contains(&self, sym: Sym) -> bool {
        self.words[sym.index() / 64] & (1 << (sym.index() % 64)) != 0
    }
}

/// A flattened column of symbol *sets*: all members of all rows live in one
/// contiguous `Vec<Sym>`, with a `Vec<u32>` of row offsets (row `i` spans
/// `syms[offsets[i]..offsets[i+1]]`).
///
/// A `Vec<Vec<Sym>>` column costs one heap allocation and 24 bytes of
/// header per row; scanning a million-row column chases a million pointers.
/// The flat layout is two allocations total and the foreign-key scans walk
/// it linearly, cache line by cache line. Rows keep `AttrValue`'s
/// sorted-string member order, so iteration matches `set_value`.
#[derive(Clone, Debug)]
pub(crate) struct SetCol {
    offsets: Vec<u32>,
    syms: Vec<Sym>,
}

impl Default for SetCol {
    fn default() -> Self {
        SetCol {
            offsets: vec![0],
            syms: Vec::new(),
        }
    }
}

impl SetCol {
    /// Appends one row (possibly empty) of already-sorted members.
    pub(crate) fn push_row(&mut self, row: impl IntoIterator<Item = Sym>) {
        self.syms.extend(row);
        self.offsets
            .push(u32::try_from(self.syms.len()).expect("set column fits u32"));
    }

    /// Row `i`'s members (empty slice for an absent attribute).
    #[inline]
    pub(crate) fn row(&self, i: usize) -> &[Sym] {
        &self.syms[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.offsets.len() - 1
    }
}

/// A [`SymSet`] with *removal*: each symbol carries an occurrence count, so
/// membership survives duplicates and can be retracted one occurrence at a
/// time. Incremental revalidation uses this for foreign-key target sets,
/// where edits add and remove target values in any order; the dense layout
/// keeps probes a single index like the bitset, and the table grows on
/// demand as the live document interns new values.
#[derive(Default)]
pub(crate) struct CountedSymSet {
    counts: Vec<u32>,
}

impl CountedSymSet {
    /// Adds one occurrence of `sym`. Returns `true` iff the symbol was
    /// absent before (a 0 → 1 presence transition).
    pub(crate) fn insert(&mut self, sym: Sym) -> bool {
        if sym.index() >= self.counts.len() {
            self.counts.resize(sym.index() + 1, 0);
        }
        self.counts[sym.index()] += 1;
        self.counts[sym.index()] == 1
    }

    /// Removes one occurrence of `sym`. Returns `true` iff this was the
    /// last occurrence (a 1 → 0 presence transition).
    ///
    /// # Panics
    /// Panics if `sym` has no recorded occurrence (an accounting bug in
    /// the caller).
    pub(crate) fn remove(&mut self, sym: Sym) -> bool {
        let slot = &mut self.counts[sym.index()];
        assert!(*slot > 0, "removing an absent symbol from a counted set");
        *slot -= 1;
        *slot == 0
    }

    /// Membership test: at least one occurrence recorded.
    #[inline]
    pub(crate) fn contains(&self, sym: Sym) -> bool {
        self.counts.get(sym.index()).copied().unwrap_or(0) > 0
    }
}

/// A constraint name rendered lazily: `Display` on `Constraint` is only
/// paid when a violation is actually reported, so clean documents never
/// format Σ.
pub(crate) struct CName<'c> {
    c: &'c Constraint,
    cache: OnceCell<String>,
}

impl<'c> CName<'c> {
    pub(crate) fn new(c: &'c Constraint) -> Self {
        CName {
            c,
            cache: OnceCell::new(),
        }
    }

    /// The rendered name (formatted on first use, cloned thereafter).
    pub(crate) fn get(&self) -> String {
        self.cache.get_or_init(|| self.c.to_string()).clone()
    }
}

/// The columns a constraint set will read, compiled once per `DTD^C`.
///
/// Every planned column has a dense id: single-valued columns first,
/// ascending by `(τ, field)`, then set-valued columns ascending by
/// `(τ, attribute)`. The tree engine, the streaming fill and the live
/// store all index their columns by these ids, and snapshots list columns
/// in this order. Each planned τ also gets a [`TauCols`] recipe naming its
/// fields with their ids, so extraction never touches the key lists.
#[derive(Clone, Debug)]
pub(crate) struct Plan {
    /// Whether any `L_id` ID constraint needs the document-wide ID table.
    pub(crate) needs_ids: bool,
    /// Single-valued column id ↦ its `(τ, field)` key.
    pub(crate) single_keys: Vec<(Name, Field)>,
    /// Set-valued column [`Plan::set_slot`] ↦ its `(τ, attribute)` key.
    pub(crate) set_keys: Vec<(Name, Name)>,
    /// One recipe per planned τ, ascending by τ.
    taus: Vec<TauCols>,
}

/// The planned columns of one element type τ, with their dense ids.
#[derive(Clone, Debug)]
pub(crate) struct TauCols {
    pub(crate) tau: Name,
    /// Single-valued fields in ascending order — attributes, then unique
    /// sub-elements (§3.4) — each with its column id.
    pub(crate) singles: Vec<(Field, u32)>,
    /// How many of `singles` are attributes.
    n_attrs: usize,
    /// Set-valued attributes in ascending order, each with its column id.
    pub(crate) sets: Vec<(Name, u32)>,
}

impl TauCols {
    /// The single-valued attribute fields.
    pub(crate) fn attr_singles(&self) -> &[(Field, u32)] {
        &self.singles[..self.n_attrs]
    }

    /// The unique sub-element fields.
    pub(crate) fn sub_singles(&self) -> &[(Field, u32)] {
        &self.singles[self.n_attrs..]
    }
}

/// `(τ, field)` keys for each of `fields`.
fn keyed<'a>(tau: &'a Name, fields: &'a [Field]) -> impl Iterator<Item = (Name, Field)> + 'a {
    fields.iter().map(move |f| (tau.clone(), f.clone()))
}

impl Plan {
    /// Compiles the column layout for `dtdc`'s Σ.
    pub(crate) fn build(dtdc: &DtdC) -> Self {
        let s = dtdc.structure();
        let id_col = |tau: &Name| {
            s.id_attr(tau)
                .map(|a| (tau.clone(), Field::Attr(a.clone())))
        };
        let mut singles: BTreeSet<(Name, Field)> = BTreeSet::new();
        let mut sets: BTreeSet<(Name, Name)> = BTreeSet::new();
        let mut needs_ids = false;
        for c in dtdc.constraints() {
            match c {
                Constraint::Key { tau, fields } => singles.extend(keyed(tau, fields)),
                Constraint::ForeignKey {
                    tau,
                    fields,
                    target,
                    target_fields,
                } => {
                    singles.extend(keyed(tau, fields));
                    singles.extend(keyed(target, target_fields));
                }
                Constraint::SetForeignKey {
                    tau,
                    attr,
                    target,
                    target_field,
                } => {
                    sets.insert((tau.clone(), attr.clone()));
                    singles.insert((target.clone(), target_field.clone()));
                }
                Constraint::InverseU {
                    tau,
                    key,
                    attr,
                    target,
                    target_key,
                    target_attr,
                } => {
                    singles.insert((tau.clone(), key.clone()));
                    sets.insert((tau.clone(), attr.clone()));
                    singles.insert((target.clone(), target_key.clone()));
                    sets.insert((target.clone(), target_attr.clone()));
                }
                Constraint::Id { tau } => {
                    needs_ids = true;
                    singles.extend(id_col(tau));
                }
                Constraint::FkToId { tau, attr, target } => {
                    singles.insert((tau.clone(), Field::Attr(attr.clone())));
                    singles.extend(id_col(target));
                }
                Constraint::SetFkToId { tau, attr, target } => {
                    sets.insert((tau.clone(), attr.clone()));
                    singles.extend(id_col(target));
                }
                Constraint::InverseId {
                    tau,
                    attr,
                    target,
                    target_attr,
                } => {
                    sets.insert((tau.clone(), attr.clone()));
                    sets.insert((target.clone(), target_attr.clone()));
                    singles.extend(id_col(tau));
                    singles.extend(id_col(target));
                }
            }
        }
        if needs_ids {
            // The document-wide ID table spans every type with an ID
            // attribute, not just the types named in Σ.
            singles.extend(s.element_types().filter_map(id_col));
        }
        let single_keys: Vec<(Name, Field)> = singles.into_iter().collect();
        let set_keys: Vec<(Name, Name)> = sets.into_iter().collect();
        // Column ids ascend with the keys, singles before sets.
        let mut by_tau: BTreeMap<Name, TauCols> = BTreeMap::new();
        let empty = |tau: &Name| TauCols {
            tau: tau.clone(),
            singles: Vec::new(),
            n_attrs: 0,
            sets: Vec::new(),
        };
        for (id, (tau, field)) in (0u32..).zip(&single_keys) {
            let tc = by_tau.entry(tau.clone()).or_insert_with(|| empty(tau));
            tc.n_attrs += usize::from(matches!(field, Field::Attr(_)));
            tc.singles.push((field.clone(), id));
        }
        let n_singles = u32::try_from(single_keys.len()).expect("column count fits u32");
        for (id, (tau, attr)) in (n_singles..).zip(&set_keys) {
            let tc = by_tau.entry(tau.clone()).or_insert_with(|| empty(tau));
            tc.sets.push((attr.clone(), id));
        }
        Plan {
            needs_ids,
            single_keys,
            set_keys,
            taus: by_tau.into_values().collect(),
        }
    }

    /// τ's recipe, if Σ reads any column of τ.
    pub(crate) fn tau(&self, tau: &str) -> Option<&TauCols> {
        let i = self
            .taus
            .binary_search_by(|tc| tc.tau.as_str().cmp(tau))
            .ok()?;
        Some(&self.taus[i])
    }

    /// The id of column `(τ, field)`, if planned.
    pub(crate) fn single_id(&self, tau: &str, field: &Field) -> Option<u32> {
        let tc = self.tau(tau)?;
        tc.singles
            .iter()
            .find(|(f, _)| f == field)
            .map(|&(_, id)| id)
    }

    /// The id of set column `(τ, attr)`, if planned.
    pub(crate) fn set_id(&self, tau: &str, attr: &str) -> Option<u32> {
        let tc = self.tau(tau)?;
        tc.sets
            .iter()
            .find(|(a, _)| a.as_str() == attr)
            .map(|&(_, id)| id)
    }

    /// Where set column `id` sits among the set columns alone.
    pub(crate) fn set_slot(&self, id: u32) -> usize {
        id as usize - self.single_keys.len()
    }

    /// Number of `(τ, field)` columns the plan extracts (for diagnostics).
    pub(crate) fn column_count(&self) -> usize {
        self.single_keys.len() + self.set_keys.len()
    }
}

/// The per-document columnar index: one interned column per planned
/// `(τ, field)`, aligned with `ext(τ)` and indexed by the plan's column
/// ids, plus the document-wide ID table.
pub(crate) struct DocIndex<'p> {
    plan: &'p Plan,
    interner: Interner,
    /// Single-valued column id ↦ `ext(τ)`-aligned values.
    singles: Vec<Vec<Option<Sym>>>,
    /// Set-valued column slot ↦ `ext(τ)`-aligned rows, each in
    /// `AttrValue`'s sorted-string order (so iteration matches
    /// `set_value`).
    sets: Vec<SetCol>,
    /// ID value ↦ carriers, in `element_types()` × document order
    /// (matching the sequential `build_global_ids`).
    global_ids: FastHashMap<Sym, Vec<NodeId>>,
}

impl<'p> DocIndex<'p> {
    /// Extracts every planned column from `tree` in one [`extract_columns`]
    /// walk.
    pub(crate) fn build(tree: &DataTree, idx: &ExtIndex, s: &DtdStructure, plan: &'p Plan) -> Self {
        let mut interner = Interner::new();
        let mut singles: Vec<Vec<Option<Sym>>> = plan
            .single_keys
            .iter()
            .map(|(tau, _)| Vec::with_capacity(idx.ext(tau).len()))
            .collect();
        let mut sets = vec![SetCol::default(); plan.set_keys.len()];
        extract_columns(tree, idx, plan, &mut interner, |col, _, cell| match cell {
            Cell::Single(val) => singles[col as usize].push(val),
            Cell::Set(members) => {
                sets[plan.set_slot(col)].push_row(members.iter().copied());
            }
        });
        DocIndex::from_parts(interner, singles, sets, idx, s, plan)
    }

    /// Assembles an index from already-extracted columns (the streaming
    /// builder fills them without a tree) and derives the document-wide ID
    /// table. Interning order does not matter for report equality: symbols
    /// are only compared for equality/membership, never for order, and
    /// every violation sequence follows extent order, so any bijective
    /// interning yields byte-identical reports.
    pub(crate) fn from_parts(
        interner: Interner,
        singles: Vec<Vec<Option<Sym>>>,
        sets: Vec<SetCol>,
        idx: &ExtIndex,
        s: &DtdStructure,
        plan: &'p Plan,
    ) -> Self {
        let mut global_ids: FastHashMap<Sym, Vec<NodeId>> = FastHashMap::default();
        if plan.needs_ids {
            for tau in s.element_types() {
                let Some(id_attr) = s.id_attr(tau) else {
                    continue;
                };
                let Some(col) = plan.single_id(tau, &Field::Attr(id_attr.clone())) else {
                    continue;
                };
                let ext = idx.ext(tau);
                for (pos, sym) in singles[col as usize].iter().enumerate() {
                    if let Some(sym) = sym {
                        global_ids.entry(*sym).or_default().push(ext[pos]);
                    }
                }
            }
        }
        DocIndex {
            plan,
            interner,
            singles,
            sets,
            global_ids,
        }
    }

    fn single(&self, tau: &Name, field: &Field) -> &[Option<Sym>] {
        let col = self
            .plan
            .single_id(tau, field)
            .expect("plan covers every single field a constraint reads");
        &self.singles[col as usize]
    }

    fn set(&self, tau: &Name, attr: &Name) -> &SetCol {
        let col = self
            .plan
            .set_id(tau, attr)
            .expect("plan covers every set attribute a constraint reads");
        &self.sets[self.plan.set_slot(col)]
    }

    fn resolve(&self, sym: Sym) -> &str {
        self.interner.resolve(sym)
    }

    fn join(&self, syms: &[Sym]) -> String {
        syms.iter()
            .map(|&s| self.resolve(s))
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// Number of distinct symbols interned (the [`SymSet`] capacity).
    fn sym_count(&self) -> usize {
        self.interner.len()
    }

    /// Distinct ID values of `ext(τ)` (empty when τ has no ID attribute).
    fn ids_of(&self, s: &DtdStructure, tau: &Name) -> SymSet {
        let mut ids = SymSet::new(self.sym_count());
        let Some(id_attr) = s.id_attr(tau) else {
            return ids;
        };
        for sym in self
            .single(tau, &Field::Attr(id_attr.clone()))
            .iter()
            .flatten()
        {
            ids.insert(*sym);
        }
        ids
    }
}

/// The value of one column cell, as [`extract_columns`] hands it to its
/// sink with the column id and the vertex.
pub(crate) enum Cell<'a> {
    Single(Option<Sym>),
    /// The sink may take the members; the walk clears the buffer before
    /// the next row either way.
    Set(&'a mut Vec<Sym>),
}

/// The one walk that extracts a tree's planned columns, handing every
/// cell to `sink` in extent order per column.
///
/// Single-valued fields come first: one walk per planned τ extracts all of
/// a vertex's fields together, so its node record and attribute list stay
/// hot across fields. Set columns follow, one column at a time. Values
/// are interned through `interner` in exactly this order, which snapshots
/// of a freshly built live validator record.
pub(crate) fn extract_columns(
    tree: &DataTree,
    idx: &ExtIndex,
    plan: &Plan,
    interner: &mut Interner,
    mut sink: impl FnMut(u32, NodeId, Cell<'_>),
) {
    for tc in &plan.taus {
        for &x in idx.ext(&tc.tau) {
            for (field, col) in &tc.singles {
                let val = extract_single(tree, x, field, interner);
                sink(*col, x, Cell::Single(val));
            }
        }
    }
    let mut members = Vec::new();
    for tc in &plan.taus {
        for (attr, col) in &tc.sets {
            for &x in idx.ext(&tc.tau) {
                members.clear();
                extract_set(tree, x, attr, interner, &mut members);
                sink(*col, x, Cell::Set(&mut members));
            }
        }
    }
}

/// Single-valued field extraction; must agree with
/// [`crate::constraints::field_value`].
pub(crate) fn extract_single(
    tree: &DataTree,
    x: NodeId,
    field: &Field,
    interner: &mut Interner,
) -> Option<Sym> {
    match field {
        Field::Attr(l) => tree.attr(x, l)?.as_single().map(|v| interner.intern(v)),
        Field::Sub(e) => {
            let child = unique_sub(tree, x, e)?;
            Some(interner.intern(&tree.node(child).text()))
        }
    }
}

/// Set-valued field extraction: appends the members of attribute `l` of
/// `x` to `out`, interned in `AttrValue`'s sorted order (nothing for an
/// absent attribute).
pub(crate) fn extract_set(
    tree: &DataTree,
    x: NodeId,
    l: &Name,
    interner: &mut Interner,
    out: &mut Vec<Sym>,
) {
    if let Some(v) = tree.attr(x, l) {
        // Exact, so a row taken into the live store holds no slack: most
        // sets have fewer members than a growing `Vec`'s first capacity.
        out.reserve_exact(v.values().len());
        out.extend(v.values().iter().map(|s| interner.intern(s)));
    }
}

/// Checks all of Σ against the planned columns, appending violations in Σ
/// order. `threads` is the total worker budget: constraints fan out first,
/// and whatever budget remains per constraint splits large extents.
pub(crate) fn check_all_planned(
    tree: &DataTree,
    idx: &ExtIndex,
    dtdc: &DtdC,
    plan: &Plan,
    threads: usize,
    obs: &Obs,
    out: &mut Vec<Violation>,
) {
    let doc = {
        let _plan = obs.span("plan");
        DocIndex::build(tree, idx, dtdc.structure(), plan)
    };
    check_planned(idx, dtdc, &doc, threads, tree.len(), obs, out);
}

/// The span name of one constraint kind's share of the `check` phase.
fn kind_span(c: &Constraint) -> &'static str {
    match c {
        Constraint::Key { .. } => "check.key",
        Constraint::ForeignKey { .. } => "check.foreign_key",
        Constraint::SetForeignKey { .. } => "check.set_foreign_key",
        Constraint::InverseU { .. } => "check.inverse",
        Constraint::Id { .. } => "check.id",
        Constraint::FkToId { .. } => "check.fk_to_id",
        Constraint::SetFkToId { .. } => "check.set_fk_to_id",
        Constraint::InverseId { .. } => "check.inverse_id",
    }
}

/// Checks all of Σ against a pre-built [`DocIndex`] (shared by the tree
/// and streaming paths), appending violations in Σ order.
///
/// `doc_nodes` (the document's vertex count) gates the thread budget: below
/// [`crate::par::MIN_NODES_PER_THREAD`] vertices per worker, spawn/merge
/// overhead exceeds the scan itself (E11 measured threads=2/4 *slower* than
/// 1 at 10⁵ vertices), so the budget is clamped to what the document can
/// amortize.
pub(crate) fn check_planned(
    idx: &ExtIndex,
    dtdc: &DtdC,
    doc: &DocIndex,
    threads: usize,
    doc_nodes: usize,
    obs: &Obs,
    out: &mut Vec<Violation>,
) {
    let s = dtdc.structure();
    let cs = dtdc.constraints();
    let affordable = (doc_nodes / crate::par::MIN_NODES_PER_THREAD).max(1);
    let outer = threads.max(1).min(affordable);
    let inner = (outer / cs.len().max(1)).max(1);
    let per_constraint = {
        let _check = obs.span("check");
        fan_out(outer, cs.iter().collect(), obs, "par.constraint", |c| {
            let _kind = obs.span(kind_span(c));
            let mut v = Vec::new();
            check_one_planned(idx, s, doc, c, inner, obs, &mut v);
            v
        })
    };
    let _merge = obs.span("merge");
    for v in per_constraint {
        out.extend(v);
    }
}

fn check_one_planned(
    idx: &ExtIndex,
    s: &DtdStructure,
    doc: &DocIndex,
    c: &Constraint,
    inner: usize,
    obs: &Obs,
    out: &mut Vec<Violation>,
) {
    match c {
        Constraint::Key { tau, fields } => {
            // First-seen dedup is order-dependent, so the scan itself stays
            // sequential; with shared columns it is a pure Sym-tuple pass.
            let cname = CName::new(c);
            let ext = idx.ext(tau);
            if let [field] = fields.as_slice() {
                // Unary key: dedup on a dense first-seen table indexed by
                // symbol — no per-element tuple allocation, no hashing.
                let col = doc.single(tau, field);
                const UNSEEN: u32 = u32::MAX;
                let mut first = vec![UNSEEN; doc.sym_count()];
                for (pos, &x) in ext.iter().enumerate() {
                    let Some(sym) = col[pos] else {
                        continue; // undefined fields cannot witness equality
                    };
                    let slot = &mut first[sym.index()];
                    if *slot == UNSEEN {
                        *slot = u32::try_from(pos).expect("extent fits u32");
                    } else {
                        out.push(Violation::Key {
                            constraint: cname.get(),
                            a: ext[*slot as usize],
                            b: x,
                            value: doc.resolve(sym).to_string(),
                        });
                    }
                }
                return;
            }
            let cols: Vec<&[Option<Sym>]> = fields.iter().map(|f| doc.single(tau, f)).collect();
            let mut seen: FastHashMap<Vec<Sym>, NodeId> = FastHashMap::default();
            for (pos, &x) in ext.iter().enumerate() {
                let Some(t) = cols
                    .iter()
                    .map(|col| col[pos])
                    .collect::<Option<Vec<Sym>>>()
                else {
                    continue; // undefined tuples cannot witness equality
                };
                match seen.get(&t) {
                    Some(&prev) => out.push(Violation::Key {
                        constraint: cname.get(),
                        a: prev,
                        b: x,
                        value: doc.join(&t),
                    }),
                    None => {
                        seen.insert(t, x);
                    }
                }
            }
        }
        Constraint::ForeignKey {
            tau,
            fields,
            target,
            target_fields,
        } => {
            let ext = idx.ext(tau);
            if let ([field], [target_field]) = (fields.as_slice(), target_fields.as_slice()) {
                // Unary FK: target membership is a symbol bitset probe.
                let mut targets = SymSet::new(doc.sym_count());
                for sym in doc.single(target, target_field).iter().flatten() {
                    targets.insert(*sym);
                }
                let col = doc.single(tau, field);
                for chunk in chunked(inner, ext.len(), obs, "par.chunk", |range| {
                    let cname = CName::new(c);
                    let mut v = Vec::new();
                    for pos in range {
                        match col[pos] {
                            Some(sym) => {
                                if !targets.contains(sym) {
                                    v.push(Violation::ForeignKey {
                                        constraint: cname.get(),
                                        node: ext[pos],
                                        value: doc.resolve(sym).to_string(),
                                    });
                                }
                            }
                            None => v.push(Violation::MissingField {
                                constraint: cname.get(),
                                node: ext[pos],
                                field: field.to_string(),
                            }),
                        }
                    }
                    v
                }) {
                    out.extend(chunk);
                }
                return;
            }
            let target_cols: Vec<&[Option<Sym>]> = target_fields
                .iter()
                .map(|f| doc.single(target, f))
                .collect();
            let targets: FastHashSet<Vec<Sym>> = (0..idx.ext(target).len())
                .filter_map(|pos| {
                    target_cols
                        .iter()
                        .map(|col| col[pos])
                        .collect::<Option<Vec<Sym>>>()
                })
                .collect();
            let cols: Vec<&[Option<Sym>]> = fields.iter().map(|f| doc.single(tau, f)).collect();
            for chunk in chunked(inner, ext.len(), obs, "par.chunk", |range| {
                let cname = CName::new(c);
                let mut v = Vec::new();
                for pos in range {
                    match cols
                        .iter()
                        .map(|col| col[pos])
                        .collect::<Option<Vec<Sym>>>()
                    {
                        Some(t) => {
                            if !targets.contains(&t) {
                                v.push(Violation::ForeignKey {
                                    constraint: cname.get(),
                                    node: ext[pos],
                                    value: doc.join(&t),
                                });
                            }
                        }
                        None => v.push(Violation::MissingField {
                            constraint: cname.get(),
                            node: ext[pos],
                            field: fields
                                .iter()
                                .map(ToString::to_string)
                                .collect::<Vec<_>>()
                                .join(", "),
                        }),
                    }
                }
                v
            }) {
                out.extend(chunk);
            }
        }
        Constraint::SetForeignKey {
            tau,
            attr,
            target,
            target_field,
        } => {
            let mut targets = SymSet::new(doc.sym_count());
            for sym in doc.single(target, target_field).iter().flatten() {
                targets.insert(*sym);
            }
            scan_set_fk(idx, doc, c, tau, attr, &targets, inner, obs, out);
        }
        Constraint::InverseU {
            tau,
            key,
            attr,
            target,
            target_key,
            target_attr,
        } => {
            check_inverse_planned(
                idx,
                doc,
                c,
                tau,
                key,
                attr,
                target,
                target_key,
                target_attr,
                inner,
                obs,
                out,
            );
            check_inverse_planned(
                idx,
                doc,
                c,
                target,
                target_key,
                target_attr,
                tau,
                key,
                attr,
                inner,
                obs,
                out,
            );
        }
        Constraint::Id { tau } => {
            let Some(id_attr) = s.id_attr(tau) else {
                return; // rejected at well-formedness; nothing to check
            };
            let col = doc.single(tau, &Field::Attr(id_attr.clone()));
            let ext = idx.ext(tau);
            for chunk in chunked(inner, ext.len(), obs, "par.chunk", |range| {
                let cname = CName::new(c);
                let mut v = Vec::new();
                for pos in range {
                    let x = ext[pos];
                    match col[pos] {
                        None => v.push(Violation::MissingField {
                            constraint: cname.get(),
                            node: x,
                            field: format!("@{id_attr}"),
                        }),
                        Some(value) => {
                            for &y in doc.global_ids.get(&value).into_iter().flatten() {
                                if y != x {
                                    v.push(Violation::DuplicateId {
                                        constraint: cname.get(),
                                        a: x,
                                        b: y,
                                        value: doc.resolve(value).to_string(),
                                    });
                                }
                            }
                        }
                    }
                }
                v
            }) {
                out.extend(chunk);
            }
        }
        Constraint::FkToId { tau, attr, target } => {
            let targets = doc.ids_of(s, target);
            let col = doc.single(tau, &Field::Attr(attr.clone()));
            let ext = idx.ext(tau);
            for chunk in chunked(inner, ext.len(), obs, "par.chunk", |range| {
                let cname = CName::new(c);
                let mut v = Vec::new();
                for pos in range {
                    let Some(value) = col[pos] else {
                        continue;
                    };
                    if !targets.contains(value) {
                        v.push(Violation::ForeignKey {
                            constraint: cname.get(),
                            node: ext[pos],
                            value: doc.resolve(value).to_string(),
                        });
                    }
                }
                v
            }) {
                out.extend(chunk);
            }
        }
        Constraint::SetFkToId { tau, attr, target } => {
            let targets = doc.ids_of(s, target);
            scan_set_fk(idx, doc, c, tau, attr, &targets, inner, obs, out);
        }
        Constraint::InverseId {
            tau,
            attr,
            target,
            target_attr,
        } => {
            let (Some(id_tau), Some(id_target)) = (s.id_attr(tau), s.id_attr(target)) else {
                return; // rejected at well-formedness
            };
            // Reference typing first (τ.l ⊆_S τ'.id and τ'.l' ⊆_S τ.id),
            // then both inverse directions — the exact sequential order.
            for (src, src_attr, dst) in [(tau, attr, target), (target, target_attr, tau)] {
                let targets = doc.ids_of(s, dst);
                scan_set_fk(idx, doc, c, src, src_attr, &targets, inner, obs, out);
            }
            let key_tau = Field::Attr(id_tau.clone());
            let key_target = Field::Attr(id_target.clone());
            check_inverse_planned(
                idx,
                doc,
                c,
                tau,
                &key_tau,
                attr,
                target,
                &key_target,
                target_attr,
                inner,
                obs,
                out,
            );
            check_inverse_planned(
                idx,
                doc,
                c,
                target,
                &key_target,
                target_attr,
                tau,
                &key_tau,
                attr,
                inner,
                obs,
                out,
            );
        }
    }
}

/// The shared scan of set-valued FK variants: every member of `ext(τ).attr`
/// must appear in `targets`.
#[allow(clippy::too_many_arguments)]
fn scan_set_fk(
    idx: &ExtIndex,
    doc: &DocIndex,
    c: &Constraint,
    tau: &Name,
    attr: &Name,
    targets: &SymSet,
    inner: usize,
    obs: &Obs,
    out: &mut Vec<Violation>,
) {
    let col = doc.set(tau, attr);
    let ext = idx.ext(tau);
    for chunk in chunked(inner, ext.len(), obs, "par.chunk", |range| {
        let cname = CName::new(c);
        let mut v = Vec::new();
        for pos in range {
            for &value in col.row(pos) {
                if !targets.contains(value) {
                    v.push(Violation::ForeignKey {
                        constraint: cname.get(),
                        node: ext[pos],
                        value: doc.resolve(value).to_string(),
                    });
                }
            }
        }
        v
    }) {
        out.extend(chunk);
    }
}

/// One direction of an inverse constraint over the columns:
/// `∀x ∈ ext(τ) ∀y ∈ ext(τ') (x.key ∈ y.attr' → y.key' ∈ x.attr)`.
///
/// `ext(τ)` is indexed on the key sequentially (doc order matters for the
/// violation sequence); the `ext(τ')` scan is per-`y` independent and
/// splits across chunks.
#[allow(clippy::too_many_arguments)]
fn check_inverse_planned(
    idx: &ExtIndex,
    doc: &DocIndex,
    c: &Constraint,
    tau: &Name,
    key: &Field,
    attr: &Name,
    target: &Name,
    target_key: &Field,
    target_attr: &Name,
    inner: usize,
    obs: &Obs,
    out: &mut Vec<Violation>,
) {
    let key_col = doc.single(tau, key);
    let ext_tau = idx.ext(tau);
    // Group `ext(τ)` positions by key symbol with a counting sort over the
    // dense symbol space (a CSR layout: `grouped[starts[s]..starts[s+1]]`
    // holds the positions carrying key `s`, in document order). Probing a
    // referenced value inside the scan is then two array reads — the scan
    // touches every member of every set, so a hash per member dominated.
    let n_syms = doc.sym_count();
    let mut starts = vec![0u32; n_syms + 1];
    for sym in key_col.iter().flatten() {
        starts[sym.index() + 1] += 1;
    }
    for i in 1..=n_syms {
        starts[i] += starts[i - 1];
    }
    let mut grouped = vec![0u32; starts[n_syms] as usize];
    let mut cursor: Vec<u32> = starts[..n_syms].to_vec();
    for (pos, sym) in key_col.iter().enumerate() {
        if let Some(sym) = sym {
            let c = &mut cursor[sym.index()];
            grouped[*c as usize] = u32::try_from(pos).expect("extent fits u32");
            *c += 1;
        }
    }
    let echo_col = doc.set(tau, attr);
    let target_key_col = doc.single(target, target_key);
    let target_attr_col = doc.set(target, target_attr);
    let ext_target = idx.ext(target);
    for chunk in chunked(inner, ext_target.len(), obs, "par.chunk", |range| {
        let cname = CName::new(c);
        let mut v = Vec::new();
        for ypos in range {
            let Some(yk) = target_key_col[ypos] else {
                continue;
            };
            for value in target_attr_col.row(ypos) {
                let (lo, hi) = (starts[value.index()], starts[value.index() + 1]);
                for &xpos in &grouped[lo as usize..hi as usize] {
                    // x.key ∈ y.target_attr holds; require
                    // y.target_key ∈ x.attr.
                    if !echo_col.row(xpos as usize).contains(&yk) {
                        v.push(Violation::Inverse {
                            constraint: cname.get(),
                            from: ext_target[ypos],
                            to: ext_tau[xpos as usize],
                        });
                    }
                }
            }
        }
        v
    }) {
        out.extend(chunk);
    }
}
