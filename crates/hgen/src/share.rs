//! The resource-sharing problem and its clique-based solution
//! (§4.1.1–§4.1.2, Figure 5 of the paper).
//!
//! Each expensive RTL operator instance (and each memory port) is a
//! *node*. The compatibility matrix `A` has `A[i][j] = 1` when nodes
//! `i` and `j` can share one piece of hardware — they never operate at
//! the same time. The rules:
//!
//! 1. nodes in the same operation cannot share (all of an operation's
//!    RTL evaluates in the same cycle; this subsumes the paper's
//!    "same RTL statement" rule for a single-issue-per-cycle datapath),
//!    *except* nodes belonging to different options of the same
//!    non-terminal parameter, which are mutually exclusive by decode;
//! 2. nodes performing different tasks cannot share; `add` and `sub`
//!    are subset-compatible and merge into one adder/subtractor;
//! 3. nodes of operations in the same field (or options of one
//!    non-terminal) can share — one field issues one operation;
//! 4. nodes of operations in different fields cannot share, unless the
//!    constraints (or an `archinfo` share hint) prove the operations
//!    never co-occur.
//!
//! Maximal cliques of the compatibility graph are found with
//! Bron–Kerbosch (with pivoting); a greedy cover then assigns each
//! node to one clique, and the datapath instantiates one functional
//! unit per clique.

use isdl::model::{CExpr, Constraint, Machine, OpRef};
use isdl::rtl::StorageId;
use std::collections::HashMap;
use vlog::ast::VBinOp;

/// The task class of a shareable node (rule 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShareClass {
    /// Adders and subtractors (subset-compatible).
    AddSub,
    /// Any other binary operator, shareable only with its own kind.
    Bin(VBinOp),
    /// A read port on an addressed storage.
    MemRead(StorageId),
    /// A write port on an addressed storage.
    MemWrite(StorageId),
}

/// Where a node comes from, for the exclusivity rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeOwner {
    /// The operation whose RTL contains the node.
    pub op: OpRef,
    /// Non-terminal option context: `(param_path_key, option_index)`
    /// per non-terminal level the node sits under. Two nodes of the
    /// same operation are mutually exclusive iff they disagree on the
    /// option of a common key.
    pub nt_context: Vec<(u32, usize)>,
}

impl NodeOwner {
    /// An owner with no non-terminal context.
    #[must_use]
    pub fn plain(op: OpRef) -> Self {
        Self { op, nt_context: Vec::new() }
    }

    fn exclusive_within_op(&self, other: &Self) -> bool {
        self.nt_context
            .iter()
            .any(|(k, o)| other.nt_context.iter().any(|(k2, o2)| k == k2 && o != o2))
    }
}

/// One shareable hardware node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShareNode {
    /// The task class.
    pub class: ShareClass,
    /// Operand width in bits (units only merge at equal widths).
    pub width: u32,
    /// Origin.
    pub owner: NodeOwner,
}

/// Sharing configuration (the ablation knobs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShareOptions {
    /// Master switch; off instantiates one unit per node.
    pub enabled: bool,
    /// Use the constraints section to prove cross-field exclusivity
    /// (rule 4's refinement).
    pub use_constraints: bool,
    /// Use `archinfo` share hints.
    pub use_hints: bool,
}

impl Default for ShareOptions {
    fn default() -> Self {
        Self { enabled: true, use_constraints: true, use_hints: true }
    }
}

/// The sharing result: a partition of the nodes into hardware units.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharePlan {
    /// `groups[u]` = node indices implemented by unit `u`.
    pub groups: Vec<Vec<usize>>,
}

impl SharePlan {
    /// Number of hardware units instantiated.
    #[must_use]
    pub fn unit_count(&self) -> usize {
        self.groups.len()
    }

    /// Number of units saved versus no sharing.
    #[must_use]
    pub fn units_saved(&self) -> usize {
        let nodes: usize = self.groups.iter().map(Vec::len).sum();
        nodes - self.groups.len()
    }
}

/// Computes the sharing plan for a set of nodes (Figure 5).
#[must_use]
pub fn plan(machine: &Machine, nodes: &[ShareNode], opts: ShareOptions) -> SharePlan {
    if !opts.enabled || nodes.is_empty() {
        return SharePlan { groups: (0..nodes.len()).map(|i| vec![i]).collect() };
    }
    let matrix = compatibility_matrix(machine, nodes, opts);
    let cliques = maximal_cliques(&matrix);
    SharePlan { groups: clique_cover(nodes.len(), &cliques) }
}

/// Node sets as bitsets: bit `v % 64` of word `v / 64` is node `v`.
fn has(set: &[u64], v: usize) -> bool {
    (set[v / 64] >> (v % 64)) & 1 == 1
}

fn insert(set: &mut [u64], v: usize) {
    set[v / 64] |= 1 << (v % 64);
}

fn remove(set: &mut [u64], v: usize) {
    set[v / 64] &= !(1 << (v % 64));
}

/// `|a ∩ b|`.
fn common(a: &[u64], b: &[u64]) -> u32 {
    a.iter().zip(b).map(|(x, y)| (x & y).count_ones()).sum()
}

/// The members of `set`, ascending.
fn members(set: &[u64]) -> impl Iterator<Item = usize> + '_ {
    set.iter().enumerate().flat_map(|(k, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                k * 64 + b
            })
        })
    })
}

/// The compatibility matrix `A`, one bitset row per node.
struct Matrix {
    /// Nodes.
    n: usize,
    /// Words per row.
    words: usize,
    /// Row `i` is `rows[i * words..][..words]`.
    rows: Vec<u64>,
}

impl Matrix {
    fn row(&self, i: usize) -> &[u64] {
        &self.rows[i * self.words..][..self.words]
    }
}

/// Builds the `n × n` compatibility matrix.
fn compatibility_matrix(machine: &Machine, nodes: &[ShareNode], opts: ShareOptions) -> Matrix {
    let n = nodes.len();
    let words = n.div_ceil(64);
    let mut m = Matrix { n, words, rows: vec![0; n * words] };
    // Cross-field exclusivity depends on the two operations alone.
    let mut exclusive: HashMap<(OpRef, OpRef), bool> = HashMap::new();
    for i in 0..n {
        for j in (i + 1)..n {
            if compatible(machine, &nodes[i], &nodes[j], opts, &mut exclusive) {
                insert(&mut m.rows[i * words..][..words], j);
                insert(&mut m.rows[j * words..][..words], i);
            }
        }
    }
    m
}

fn compatible(
    machine: &Machine,
    a: &ShareNode,
    b: &ShareNode,
    opts: ShareOptions,
    exclusive: &mut HashMap<(OpRef, OpRef), bool>,
) -> bool {
    // Rule 2: same task class and width.
    if a.class != b.class || a.width != b.width {
        return false;
    }
    let (x, y) = (a.owner.op, b.owner.op);
    if x == y {
        // Rule 1 (+ non-terminal refinement).
        return a.owner.exclusive_within_op(&b.owner);
    }
    // Rule 3: same field.
    if x.field == y.field {
        return true;
    }
    // Rule 4: different fields — only with proof of exclusivity.
    *exclusive.entry((x.min(y), x.max(y))).or_insert_with(|| {
        (opts.use_hints && hinted_together(machine, x, y))
            || (opts.use_constraints && constraints_exclude(machine, x, y))
    })
}

/// Whether an `archinfo` share hint names both operations.
fn hinted_together(machine: &Machine, a: OpRef, b: OpRef) -> bool {
    machine.share_hints.iter().any(|h| h.ops.contains(&a) && h.ops.contains(&b))
}

/// Whether the constraints prove operations `a` and `b` can never be
/// selected in the same instruction.
#[must_use]
pub fn constraints_exclude(machine: &Machine, a: OpRef, b: OpRef) -> bool {
    // Fast path: a two-operation forbid naming exactly this pair.
    for c in &machine.constraints {
        if let Constraint::Forbid(ops) = c {
            if ops.len() == 2 && ops.contains(&a) && ops.contains(&b) {
                return true;
            }
        }
    }
    // General path: brute-force satisfiability over the fields any
    // constraint mentions (others pinned to an arbitrary op — their
    // value cannot matter to the mentioned constraints).
    let mut mentioned: Vec<usize> = vec![a.field.0, b.field.0];
    for c in &machine.constraints {
        collect_fields(c, &mut mentioned);
    }
    mentioned.sort_unstable();
    mentioned.dedup();
    let combos: u64 = mentioned.iter().map(|&f| machine.fields[f].ops.len() as u64).product();
    if combos > 65_536 {
        return false; // too large to prove; assume co-occurrence possible
    }
    let mut selection: Vec<usize> = machine.fields.iter().map(|_| 0).collect();
    !any_valid_selection(machine, &mentioned, 0, &mut selection, a, b)
}

fn collect_fields(c: &Constraint, out: &mut Vec<usize>) {
    match c {
        Constraint::Forbid(ops) => out.extend(ops.iter().map(|r| r.field.0)),
        Constraint::Assert(e) => collect_cexpr_fields(e, out),
    }
}

fn collect_cexpr_fields(e: &CExpr, out: &mut Vec<usize>) {
    match e {
        CExpr::Op(r) => out.push(r.field.0),
        CExpr::Not(x) => collect_cexpr_fields(x, out),
        CExpr::And(x, y) | CExpr::Or(x, y) => {
            collect_cexpr_fields(x, out);
            collect_cexpr_fields(y, out);
        }
    }
}

/// Depth-first search for a constraint-satisfying selection containing
/// both `a` and `b`.
fn any_valid_selection(
    machine: &Machine,
    mentioned: &[usize],
    depth: usize,
    selection: &mut Vec<usize>,
    a: OpRef,
    b: OpRef,
) -> bool {
    if depth == mentioned.len() {
        return machine.check_constraints(selection).is_none();
    }
    let f = mentioned[depth];
    if f == a.field.0 {
        selection[f] = a.op;
        return any_valid_selection(machine, mentioned, depth + 1, selection, a, b);
    }
    if f == b.field.0 {
        selection[f] = b.op;
        return any_valid_selection(machine, mentioned, depth + 1, selection, a, b);
    }
    for o in 0..machine.fields[f].ops.len() {
        selection[f] = o;
        if any_valid_selection(machine, mentioned, depth + 1, selection, a, b) {
            return true;
        }
    }
    false
}

/// Maximal cliques, flattened: clique `c` holds the nodes
/// `members[ends[c - 1]..ends[c]]` in the order Bron–Kerbosch added them
/// (the order `emit_unit` nests a unit's input muxes in).
struct Cliques {
    members: Vec<u32>,
    ends: Vec<usize>,
}

impl Cliques {
    fn len(&self) -> usize {
        self.ends.len()
    }

    fn members(&self, c: usize) -> &[u32] {
        let start = if c == 0 { 0 } else { self.ends[c - 1] };
        &self.members[start..self.ends[c]]
    }
}

/// Enumerates all maximal cliques with Bron–Kerbosch (pivoting on the
/// vertex of `P ∪ X` with most neighbours in `P`, the last such in the
/// order `P` ascending, then `X` in insertion order).
fn maximal_cliques(matrix: &Matrix) -> Cliques {
    let mut all = vec![0u64; matrix.words];
    for v in 0..matrix.n {
        insert(&mut all, v);
    }
    let mut search = CliqueSearch {
        m: matrix,
        r: Vec::new(),
        sets: all,
        xs: Vec::new(),
        out: Cliques { members: Vec::new(), ends: Vec::new() },
    };
    search.expand(0, 0);
    search.out
}

/// Bron–Kerbosch state. Each recursion level's `P` and candidate set
/// live on the `sets` stack and its `X` on the `xs` stack, so the search
/// allocates nothing per call.
struct CliqueSearch<'a> {
    m: &'a Matrix,
    /// The clique being grown, in push order.
    r: Vec<u32>,
    sets: Vec<u64>,
    xs: Vec<u32>,
    out: Cliques,
}

impl CliqueSearch<'_> {
    /// Expands `R` with `P = sets[p..][..words]` and `X = xs[x..]`.
    fn expand(&mut self, p: usize, x: usize) {
        let (m, words) = (self.m, self.m.words);
        let p_set = &self.sets[p..][..words];
        if self.xs.len() == x && p_set.iter().all(|&w| w == 0) {
            self.out.members.extend_from_slice(&self.r);
            self.out.ends.push(self.out.members.len());
            return;
        }
        let mut pivot = (0, usize::MAX);
        for u in members(p_set).chain(self.xs[x..].iter().map(|&u| u as usize)) {
            let count = common(m.row(u), p_set);
            if pivot.1 == usize::MAX || count >= pivot.0 {
                pivot = (count, u);
            }
        }
        // The candidates `P \ N(pivot)` sit on the stack above `P`.
        let candidates = self.sets.len();
        for (k, n) in m.row(pivot.1).iter().enumerate() {
            self.sets.push(self.sets[p + k] & !n);
        }
        for k in 0..words {
            let mut bits = self.sets[candidates + k];
            while bits != 0 {
                let v = k * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let row = m.row(v);
                let child_p = self.sets.len();
                for (i, n) in row.iter().enumerate() {
                    self.sets.push(self.sets[p + i] & n);
                }
                let x_end = self.xs.len();
                for i in x..x_end {
                    let u = self.xs[i];
                    if has(row, u as usize) {
                        self.xs.push(u);
                    }
                }
                self.r.push(v as u32);
                self.expand(child_p, x_end);
                self.r.pop();
                self.sets.truncate(child_p);
                self.xs.truncate(x_end);
                remove(&mut self.sets[p..][..words], v);
                self.xs.push(v as u32);
            }
        }
        self.sets.truncate(candidates);
    }
}

/// Greedy clique cover: repeatedly take the largest clique restricted
/// to still-uncovered nodes (the last one on a tie), in its own member
/// order. Each clique keeps a count of its uncovered nodes, lowered
/// through a node-to-clique index as nodes get covered.
fn clique_cover(n: usize, cliques: &Cliques) -> Vec<Vec<usize>> {
    // `containing[starts[v]..starts[v + 1]]`: the cliques holding node `v`.
    let mut starts = vec![0u32; n + 1];
    for &v in &cliques.members {
        starts[v as usize + 1] += 1;
    }
    for v in 0..n {
        starts[v + 1] += starts[v];
    }
    let mut containing = vec![0u32; cliques.members.len()];
    let mut next = starts.clone();
    let mut uncovered: Vec<u32> = Vec::with_capacity(cliques.len());
    for c in 0..cliques.len() {
        let members = cliques.members(c);
        for &v in members {
            containing[next[v as usize] as usize] = c as u32;
            next[v as usize] += 1;
        }
        uncovered.push(members.len() as u32);
    }
    let mut covered = vec![false; n];
    let mut groups = Vec::new();
    loop {
        let most = uncovered.iter().copied().max().unwrap_or(0);
        if most == 0 {
            break;
        }
        let best = uncovered.iter().rposition(|&count| count == most).expect("a maximum");
        let group: Vec<usize> =
            cliques.members(best).iter().map(|&v| v as usize).filter(|&v| !covered[v]).collect();
        for &v in &group {
            covered[v] = true;
            for &c in &containing[starts[v] as usize..starts[v + 1] as usize] {
                uncovered[c as usize] -= 1;
            }
        }
        groups.push(group);
    }
    // Any isolated leftovers (no cliques at all for them).
    groups.extend((0..n).filter(|&v| !covered[v]).map(|v| vec![v]));
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use isdl::model::FieldId;

    fn opref(f: usize, o: usize) -> OpRef {
        OpRef { field: FieldId(f), op: o }
    }

    fn node(class: ShareClass, width: u32, f: usize, o: usize) -> ShareNode {
        ShareNode { class, width, owner: NodeOwner::plain(opref(f, o)) }
    }

    fn toy() -> Machine {
        isdl::load(isdl::samples::TOY).expect("loads")
    }

    #[test]
    fn same_field_different_ops_share() {
        let m = toy();
        let nodes = vec![
            node(ShareClass::AddSub, 16, 0, 0), // ALU.add
            node(ShareClass::AddSub, 16, 0, 1), // ALU.sub
        ];
        let p = plan(&m, &nodes, ShareOptions::default());
        assert_eq!(p.unit_count(), 1, "add and sub merge into one adder");
        assert_eq!(p.units_saved(), 1);
    }

    #[test]
    fn same_op_nodes_do_not_share() {
        let m = toy();
        let nodes = vec![node(ShareClass::AddSub, 16, 0, 0), node(ShareClass::AddSub, 16, 0, 0)];
        let p = plan(&m, &nodes, ShareOptions::default());
        assert_eq!(p.unit_count(), 2);
    }

    #[test]
    fn different_class_or_width_do_not_share() {
        let m = toy();
        let nodes = vec![
            node(ShareClass::AddSub, 16, 0, 0),
            node(ShareClass::Bin(VBinOp::Mul), 16, 0, 1),
            node(ShareClass::AddSub, 8, 0, 2),
        ];
        let p = plan(&m, &nodes, ShareOptions::default());
        assert_eq!(p.unit_count(), 3);
    }

    #[test]
    fn cross_field_needs_constraint_proof() {
        let m = toy();
        // TOY forbids ALU.mac (field 0, op 9) with MOVE.mvacc (field 1,
        // op 1): their nodes may share.
        let mac = m.op_by_name("ALU", "mac").expect("mac");
        let mvacc = m.op_by_name("MOVE", "mvacc").expect("mvacc");
        let nodes = vec![
            ShareNode { class: ShareClass::AddSub, width: 16, owner: NodeOwner::plain(mac) },
            ShareNode { class: ShareClass::AddSub, width: 16, owner: NodeOwner::plain(mvacc) },
        ];
        let with = plan(&m, &nodes, ShareOptions::default());
        assert_eq!(with.unit_count(), 1, "constraint proves exclusivity");
        let without = plan(
            &m,
            &nodes,
            ShareOptions { use_constraints: false, use_hints: false, enabled: true },
        );
        assert_eq!(without.unit_count(), 2, "rule 4 alone forbids sharing");
    }

    #[test]
    fn cross_field_without_constraint_does_not_share() {
        let m = toy();
        let add = m.op_by_name("ALU", "add").expect("add");
        let mv = m.op_by_name("MOVE", "mv").expect("mv");
        let nodes = vec![
            ShareNode { class: ShareClass::AddSub, width: 16, owner: NodeOwner::plain(add) },
            ShareNode { class: ShareClass::AddSub, width: 16, owner: NodeOwner::plain(mv) },
        ];
        let p = plan(&m, &nodes, ShareOptions::default());
        assert_eq!(p.unit_count(), 2, "add and mv can co-occur");
    }

    #[test]
    fn nt_options_within_one_op_share() {
        let m = toy();
        let add = m.op_by_name("ALU", "add").expect("add");
        let mk = |option| ShareNode {
            class: ShareClass::MemRead(StorageId(1)),
            width: 16,
            owner: NodeOwner { op: add, nt_context: vec![(2, option)] },
        };
        let nodes = vec![mk(0), mk(1)];
        let p = plan(&m, &nodes, ShareOptions::default());
        assert_eq!(p.unit_count(), 1, "exclusive addressing modes share a port");
    }

    #[test]
    fn sharing_disabled_gives_one_unit_per_node() {
        let m = toy();
        let nodes = vec![
            node(ShareClass::AddSub, 16, 0, 0),
            node(ShareClass::AddSub, 16, 0, 1),
            node(ShareClass::AddSub, 16, 0, 2),
        ];
        let p = plan(&m, &nodes, ShareOptions { enabled: false, ..ShareOptions::default() });
        assert_eq!(p.unit_count(), 3);
        assert_eq!(p.units_saved(), 0);
    }

    #[test]
    fn bron_kerbosch_finds_triangle_and_edge() {
        // Graph: 0-1, 1-2, 0-2 (triangle), 3-4 (edge), 5 isolated.
        let mut m = Matrix { n: 6, words: 1, rows: vec![0; 6] };
        for &(a, b) in &[(0, 1), (1, 2), (0, 2), (3, 4)] {
            insert(&mut m.rows[a..=a], b);
            insert(&mut m.rows[b..=b], a);
        }
        let found = maximal_cliques(&m);
        let mut cliques: Vec<Vec<u32>> = (0..found.len())
            .map(|c| {
                let mut members = found.members(c).to_vec();
                members.sort_unstable();
                members
            })
            .collect();
        cliques.sort();
        assert_eq!(cliques, vec![vec![0, 1, 2], vec![3, 4], vec![5]]);
    }

    #[test]
    fn clique_cover_partitions_all_nodes() {
        let m = toy();
        // Seven nodes: 3 shareable ALU adders + mul + 2 cross-field.
        let nodes = vec![
            node(ShareClass::AddSub, 16, 0, 0),
            node(ShareClass::AddSub, 16, 0, 1),
            node(ShareClass::AddSub, 16, 0, 4),
            node(ShareClass::Bin(VBinOp::Mul), 16, 0, 9),
            node(ShareClass::AddSub, 16, 1, 0),
            node(ShareClass::AddSub, 16, 1, 1),
            node(ShareClass::Bin(VBinOp::Xor), 16, 0, 3),
        ];
        let p = plan(&m, &nodes, ShareOptions::default());
        let mut all: Vec<usize> = p.groups.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..nodes.len()).collect::<Vec<_>>(), "exact partition");
        // The three field-0 adders share; the two MOVE-field adders share.
        assert!(p.unit_count() <= 4);
    }
}
