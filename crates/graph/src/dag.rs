//! Dependency DAGs for the reversible pebbling game.
//!
//! Following the paper (Section II-A), a [`Dag`] contains one node per
//! operation of a decomposed computation; an edge runs from `v` to `w`
//! when `w` consumes the value computed by `v`. **Primary inputs are not
//! nodes**: they are tracked separately and referenced through
//! [`Source::Input`], so a node whose fanins are all primary inputs has no
//! children in the pebbling sense (`C(v) = ∅`, cf. Example 1 in the paper).
//!
//! Nodes are added in topological order by construction — a fanin must
//! already exist — so node ids double as a topological order.

use std::collections::BTreeMap;
use std::fmt;

use crate::op::Op;

/// Identifier of a DAG node (dense, also a topological index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Creates a node id from a dense index.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        NodeId(index as u32)
    }

    /// The dense index of this node.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a primary input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InputId(pub(crate) u32);

impl InputId {
    /// The dense index of this input.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for InputId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A fanin reference: either a primary input or another node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Source {
    /// A primary input.
    Input(InputId),
    /// The value computed by another node.
    Node(NodeId),
}

impl Source {
    /// Returns the node id if this source is a node.
    #[inline]
    pub fn as_node(self) -> Option<NodeId> {
        match self {
            Source::Node(id) => Some(id),
            Source::Input(_) => None,
        }
    }
}

impl From<NodeId> for Source {
    fn from(id: NodeId) -> Self {
        Source::Node(id)
    }
}

impl From<InputId> for Source {
    fn from(id: InputId) -> Self {
        Source::Input(id)
    }
}

/// A DAG node: an operation applied to fanin values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    /// Human-readable name (for reports and DOT output).
    pub name: String,
    /// The operation computed by the node.
    pub op: Op,
    /// Fanins, in argument order.
    pub fanins: Vec<Source>,
    /// Number of memory resources (qubits) the node's value occupies.
    /// `1` for plain Boolean nodes; straight-line programs may use the
    /// word width. Used by the weighted pebbling extension.
    pub weight: u32,
}

/// Errors produced when constructing or validating a [`Dag`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagError {
    /// A fanin refers to a node or input that does not exist (yet).
    UnknownSource {
        /// Name of the node being added.
        node: String,
    },
    /// The operation's arity does not match the number of fanins.
    ArityMismatch {
        /// Name of the node being added.
        node: String,
        /// The operation.
        op: Op,
        /// Number of fanins supplied.
        fanins: usize,
    },
    /// A node that no other node consumes is not marked as an output;
    /// the pebbling game requires the final configuration to be exactly
    /// the set of sinks.
    UnmarkedSink {
        /// The offending node.
        node: NodeId,
    },
    /// A node weight of zero was supplied.
    ZeroWeight {
        /// Name of the node being added.
        node: String,
    },
}

impl fmt::Display for DagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagError::UnknownSource { node } => {
                write!(f, "node {node:?} references an unknown fanin")
            }
            DagError::ArityMismatch { node, op, fanins } => {
                write!(
                    f,
                    "node {node:?}: operation {op} cannot take {fanins} fanins"
                )
            }
            DagError::UnmarkedSink { node } => {
                write!(f, "sink {node} is not marked as an output")
            }
            DagError::ZeroWeight { node } => write!(f, "node {node:?} has weight zero"),
        }
    }
}

impl std::error::Error for DagError {}

/// A dependency DAG (see the [module documentation](self)).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Dag {
    inputs: Vec<String>,
    nodes: Vec<Node>,
    outputs: Vec<NodeId>,
    is_output: Vec<bool>,
}

impl Dag {
    /// Creates an empty DAG.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a primary input and returns a [`Source`] referring to it.
    pub fn add_input(&mut self, name: impl Into<String>) -> Source {
        let id = InputId(self.inputs.len() as u32);
        self.inputs.push(name.into());
        Source::Input(id)
    }

    /// Adds `n` anonymous inputs named `x0, x1, …` and returns them.
    pub fn add_inputs(&mut self, n: usize) -> Vec<Source> {
        (0..n)
            .map(|_| {
                let name = format!("x{}", self.inputs.len());
                self.add_input(name)
            })
            .collect()
    }

    /// Adds a node with weight 1.
    ///
    /// # Errors
    ///
    /// Returns [`DagError::UnknownSource`] if a fanin does not exist and
    /// [`DagError::ArityMismatch`] if the operation's arity is violated
    /// (unary ops need exactly one fanin, `Maj` exactly three, all others
    /// at least one).
    pub fn add_node(
        &mut self,
        name: impl Into<String>,
        op: Op,
        fanins: impl IntoIterator<Item = Source>,
    ) -> Result<NodeId, DagError> {
        self.add_node_weighted(name, op, fanins, 1)
    }

    /// Adds a node with an explicit weight (see [`Node::weight`]).
    ///
    /// # Errors
    ///
    /// As [`add_node`](Self::add_node), plus [`DagError::ZeroWeight`] when
    /// `weight == 0`.
    pub fn add_node_weighted(
        &mut self,
        name: impl Into<String>,
        op: Op,
        fanins: impl IntoIterator<Item = Source>,
        weight: u32,
    ) -> Result<NodeId, DagError> {
        let name = name.into();
        let fanins: Vec<Source> = fanins.into_iter().collect();
        if weight == 0 {
            return Err(DagError::ZeroWeight { node: name });
        }
        for &source in &fanins {
            let known = match source {
                Source::Input(i) => i.index() < self.inputs.len(),
                Source::Node(n) => n.index() < self.nodes.len(),
            };
            if !known {
                return Err(DagError::UnknownSource { node: name });
            }
        }
        let arity_ok = match op {
            Op::Not | Op::Buf | Op::Sqr => fanins.len() == 1,
            Op::Maj => fanins.len() == 3,
            _ => !fanins.is_empty(),
        };
        if !arity_ok {
            return Err(DagError::ArityMismatch {
                node: name,
                op,
                fanins: fanins.len(),
            });
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            name,
            op,
            fanins,
            weight,
        });
        self.is_output.push(false);
        Ok(id)
    }

    /// Marks a node as a primary output. Idempotent.
    pub fn mark_output(&mut self, node: NodeId) {
        if !self.is_output[node.index()] {
            self.is_output[node.index()] = true;
            self.outputs.push(node);
        }
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// The input names.
    pub fn input_names(&self) -> &[String] {
        &self.inputs
    }

    /// Borrows a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Iterates over all node ids in topological order.
    pub fn node_ids(&self) -> impl DoubleEndedIterator<Item = NodeId> + ExactSizeIterator {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// The output nodes, in the order they were marked.
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// `true` if `id` is marked as an output.
    pub fn is_output(&self, id: NodeId) -> bool {
        self.is_output[id.index()]
    }

    /// The *children* of `v` in the paper's sense: fanins that are nodes
    /// (primary inputs are always available and never pebbled).
    pub fn children(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes[id.index()]
            .fanins
            .iter()
            .filter_map(|s| s.as_node())
    }

    /// Computes, for every node, the list of nodes that consume it.
    pub fn fanouts(&self) -> Vec<Vec<NodeId>> {
        let mut fanouts = vec![Vec::new(); self.nodes.len()];
        for id in self.node_ids() {
            for child in self.children(id) {
                fanouts[child.index()].push(id);
            }
        }
        fanouts
    }

    /// Nodes that no other node consumes.
    pub fn sinks(&self) -> Vec<NodeId> {
        let mut has_fanout = vec![false; self.nodes.len()];
        for id in self.node_ids() {
            for child in self.children(id) {
                has_fanout[child.index()] = true;
            }
        }
        self.node_ids()
            .filter(|id| !has_fanout[id.index()])
            .collect()
    }

    /// Marks every sink as an output (convenience for generated DAGs).
    pub fn mark_sinks_as_outputs(&mut self) {
        for sink in self.sinks() {
            self.mark_output(sink);
        }
    }

    /// Checks the invariant required by the pebbling game: every sink is an
    /// output (a non-output sink could never be unpebbled afterwards, so
    /// no valid strategy would exist).
    ///
    /// # Errors
    ///
    /// Returns [`DagError::UnmarkedSink`] naming the first violating node.
    pub fn validate_for_pebbling(&self) -> Result<(), DagError> {
        for sink in self.sinks() {
            if !self.is_output(sink) {
                return Err(DagError::UnmarkedSink { node: sink });
            }
        }
        Ok(())
    }

    /// The level of each node: `1 + max(level of node fanins)`, where nodes
    /// fed only by primary inputs have level 1.
    pub fn levels(&self) -> Vec<u32> {
        let mut levels = vec![0u32; self.nodes.len()];
        for id in self.node_ids() {
            let max_child = self
                .children(id)
                .map(|c| levels[c.index()])
                .max()
                .unwrap_or(0);
            levels[id.index()] = max_child + 1;
        }
        levels
    }

    /// Depth of the DAG (maximum level; 0 for an empty DAG).
    pub fn depth(&self) -> u32 {
        self.levels().into_iter().max().unwrap_or(0)
    }

    /// The transitive fanin cone of `root`, including `root` itself,
    /// as a sorted list of node ids.
    pub fn cone(&self, root: NodeId) -> Vec<NodeId> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![root];
        seen[root.index()] = true;
        while let Some(v) = stack.pop() {
            for child in self.children(v) {
                if !seen[child.index()] {
                    seen[child.index()] = true;
                    stack.push(child);
                }
            }
        }
        self.node_ids().filter(|v| seen[v.index()]).collect()
    }

    /// Evaluates every node on the given primary-input values using
    /// [`Op::eval`] semantics; returns one value per node.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from [`num_inputs`](Self::num_inputs).
    pub fn evaluate(&self, inputs: &[bool]) -> Vec<bool> {
        assert_eq!(inputs.len(), self.num_inputs(), "wrong number of inputs");
        let mut values = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let fanin_values: Vec<bool> = node
                .fanins
                .iter()
                .map(|s| match s {
                    Source::Input(i) => inputs[i.index()],
                    Source::Node(n) => values[n.index()],
                })
                .collect();
            values.push(node.op.eval(&fanin_values));
        }
        values
    }

    /// Evaluates only the outputs on the given primary-input values.
    pub fn evaluate_outputs(&self, inputs: &[bool]) -> Vec<bool> {
        let values = self.evaluate(inputs);
        self.outputs.iter().map(|o| values[o.index()]).collect()
    }

    /// Counts nodes per operation.
    pub fn op_counts(&self) -> BTreeMap<Op, usize> {
        let mut counts = BTreeMap::new();
        for node in &self.nodes {
            *counts.entry(node.op).or_insert(0) += 1;
        }
        counts
    }

    /// Sum of all node weights (total memory if everything stayed pebbled).
    pub fn total_weight(&self) -> u64 {
        self.nodes.iter().map(|n| u64::from(n.weight)).sum()
    }

    /// Returns a copy of the DAG with free nodes (`Not`/`Buf`) collapsed:
    /// their consumers are rewired to the free node's single fanin, and an
    /// output mark on a free node moves to its fanin. Logic polarity is
    /// deliberately dropped — pebbling only sees structure.
    pub fn collapse_free_nodes(&self) -> Dag {
        let mut result = Dag::new();
        for name in &self.inputs {
            result.add_input(name.clone());
        }
        // Map from old node to its replacement source in the new DAG.
        let mut remap: Vec<Option<Source>> = vec![None; self.nodes.len()];
        for id in self.node_ids() {
            let node = &self.nodes[id.index()];
            let mapped: Vec<Source> = node
                .fanins
                .iter()
                .map(|s| match s {
                    Source::Input(i) => Source::Input(*i),
                    Source::Node(n) => remap[n.index()].expect("fanins precede"),
                })
                .collect();
            if node.op.is_free() {
                remap[id.index()] = Some(mapped[0]);
            } else {
                let new_id = result
                    .add_node_weighted(node.name.clone(), node.op, mapped, node.weight)
                    .expect("remapped node is valid");
                remap[id.index()] = Some(Source::Node(new_id));
            }
        }
        for &output in &self.outputs {
            match remap[output.index()].expect("all nodes mapped") {
                Source::Node(n) => result.mark_output(n),
                Source::Input(_) => {
                    // An output that collapsed onto a primary input needs no
                    // computation at all; nothing to pebble.
                }
            }
        }
        result
    }

    /// A 128-bit fingerprint of the DAG's *pebbling-relevant* structure,
    /// for deduplicating a corpus. It is not an identity: do not key
    /// answers on it.
    ///
    /// Two DAGs receive the same fingerprint whenever they are isomorphic
    /// as pebbling instances: per node only the weight, the output mark
    /// and the multiset of child subtree fingerprints enter the hash —
    /// not node names, operations, insertion order or primary-input
    /// fanins (inputs are always available and never pebbled, so they
    /// don't constrain any strategy). The converse fails. A node's hash
    /// describes its unfolded tree, so the fingerprint cannot see which
    /// nodes share a child: over three `BUF` leaves `a, b, c`, the
    /// outputs `AND(a,b), AND(b,c), AND(c,a)` (minimum 5 pebbles) and
    /// `AND(a,b), AND(a,b), AND(c,c)` (minimum 4) get one fingerprint.
    pub fn canonical_fingerprint(&self) -> [u64; 2] {
        const SALTS: [u64; 2] = [0x9E37_79B9_7F4A_7C15, 0xC2B2_AE3D_27D4_EB4F];
        let mut fingerprint = [0u64; 2];
        for (slot, &salt) in fingerprint.iter_mut().zip(&SALTS) {
            // Bottom-up Merkle pass: ids are topological, so every child
            // hash exists before its consumers read it.
            let mut hashes = vec![0u64; self.nodes.len()];
            for id in self.node_ids() {
                let node = &self.nodes[id.index()];
                let mut children: Vec<u64> = self.children(id).map(|c| hashes[c.index()]).collect();
                children.sort_unstable();
                let mut h = splitmix64(
                    salt ^ (u64::from(node.weight) << 1) ^ u64::from(self.is_output(id)),
                );
                for child in children {
                    h = splitmix64(h ^ child);
                }
                hashes[id.index()] = h;
            }
            // Order-invariant roll-up over the node multiset.
            hashes.sort_unstable();
            let mut acc = splitmix64(salt ^ self.nodes.len() as u64);
            for h in hashes {
                acc = splitmix64(acc ^ h);
            }
            *slot = acc;
        }
        fingerprint
    }

    /// Renders the DAG in Graphviz DOT format.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("digraph dag {\n  rankdir=BT;\n");
        for (i, name) in self.inputs.iter().enumerate() {
            let _ = writeln!(out, "  i{i} [label=\"{name}\", shape=plaintext];");
        }
        for id in self.node_ids() {
            let node = self.node(id);
            let shape = if self.is_output(id) {
                "doublecircle"
            } else {
                "circle"
            };
            let _ = writeln!(
                out,
                "  n{} [label=\"{}\\n{}\", shape={shape}];",
                id.index(),
                node.name,
                node.op
            );
        }
        for id in self.node_ids() {
            for source in &self.node(id).fanins {
                match source {
                    Source::Input(i) => {
                        let _ = writeln!(out, "  i{} -> n{};", i.index(), id.index());
                    }
                    Source::Node(n) => {
                        let _ = writeln!(out, "  n{} -> n{};", n.index(), id.index());
                    }
                }
            }
        }
        out.push_str("}\n");
        out
    }
}

/// SplitMix64's finalizer: a cheap, well-mixed 64-bit permutation.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl fmt::Display for Dag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dag({} inputs, {} nodes, {} outputs, depth {})",
            self.num_inputs(),
            self.num_nodes(),
            self.num_outputs(),
            self.depth()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The example DAG of Fig. 2 in the paper:
    /// A(x2,x3), B(x3,x4), C(A,x3), D(B,x3), E(C,D), F(x1,A); outputs E, F.
    pub(crate) fn paper_dag() -> Dag {
        let mut dag = Dag::new();
        let x1 = dag.add_input("x1");
        let x2 = dag.add_input("x2");
        let x3 = dag.add_input("x3");
        let x4 = dag.add_input("x4");
        let a = dag.add_node("A", Op::Opaque, [x2, x3]).expect("valid");
        let b = dag.add_node("B", Op::Opaque, [x3, x4]).expect("valid");
        let c = dag
            .add_node("C", Op::Opaque, [a.into(), x3])
            .expect("valid");
        let d = dag
            .add_node("D", Op::Opaque, [b.into(), x3])
            .expect("valid");
        let e = dag
            .add_node("E", Op::Opaque, [c.into(), d.into()])
            .expect("valid");
        let f = dag
            .add_node("F", Op::Opaque, [x1, a.into()])
            .expect("valid");
        dag.mark_output(e);
        dag.mark_output(f);
        dag
    }

    #[test]
    fn paper_example_shape() {
        let dag = paper_dag();
        assert_eq!(dag.num_inputs(), 4);
        assert_eq!(dag.num_nodes(), 6);
        assert_eq!(dag.num_outputs(), 2);
        assert_eq!(dag.depth(), 3);
        // A has no children (only primary inputs), matching Example 1.
        let a = NodeId::from_index(0);
        assert_eq!(dag.children(a).count(), 0);
        // E depends on C and D.
        let e = NodeId::from_index(4);
        let kids: Vec<_> = dag.children(e).collect();
        assert_eq!(kids.len(), 2);
        dag.validate_for_pebbling().expect("outputs are the sinks");
    }

    #[test]
    fn unknown_fanin_is_rejected() {
        let mut dag = Dag::new();
        let ghost = Source::Node(NodeId::from_index(7));
        let err = dag.add_node("g", Op::And, [ghost]).expect_err("must fail");
        assert!(matches!(err, DagError::UnknownSource { .. }));
    }

    #[test]
    fn arity_is_checked() {
        let mut dag = Dag::new();
        let x = dag.add_input("x");
        let y = dag.add_input("y");
        assert!(matches!(
            dag.add_node("bad-not", Op::Not, [x, y]),
            Err(DagError::ArityMismatch { .. })
        ));
        assert!(matches!(
            dag.add_node("bad-maj", Op::Maj, [x, y]),
            Err(DagError::ArityMismatch { .. })
        ));
        assert!(matches!(
            dag.add_node("empty", Op::And, []),
            Err(DagError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn zero_weight_is_rejected() {
        let mut dag = Dag::new();
        let x = dag.add_input("x");
        assert!(matches!(
            dag.add_node_weighted("w0", Op::Buf, [x], 0),
            Err(DagError::ZeroWeight { .. })
        ));
    }

    #[test]
    fn sinks_and_validation() {
        let mut dag = Dag::new();
        let x = dag.add_input("x");
        let a = dag.add_node("a", Op::Buf, [x]).expect("valid");
        let b = dag.add_node("b", Op::Not, [a.into()]).expect("valid");
        assert_eq!(dag.sinks(), vec![b]);
        assert!(matches!(
            dag.validate_for_pebbling(),
            Err(DagError::UnmarkedSink { node }) if node == b
        ));
        dag.mark_sinks_as_outputs();
        dag.validate_for_pebbling().expect("now valid");
        assert!(dag.is_output(b));
        assert!(!dag.is_output(a));
    }

    #[test]
    fn levels_and_cone() {
        let dag = paper_dag();
        let levels = dag.levels();
        assert_eq!(levels, vec![1, 1, 2, 2, 3, 2]);
        let e = NodeId::from_index(4);
        let cone: Vec<usize> = dag.cone(e).iter().map(|n| n.index()).collect();
        assert_eq!(cone, vec![0, 1, 2, 3, 4]); // everything except F
    }

    #[test]
    fn fanouts_are_consistent() {
        let dag = paper_dag();
        let fanouts = dag.fanouts();
        // A feeds C and F.
        assert_eq!(
            fanouts[0],
            vec![NodeId::from_index(2), NodeId::from_index(5)]
        );
        // E feeds nothing.
        assert!(fanouts[4].is_empty());
    }

    #[test]
    fn evaluation_uses_op_semantics() {
        let mut dag = Dag::new();
        let x = dag.add_input("x");
        let y = dag.add_input("y");
        let and = dag.add_node("and", Op::And, [x, y]).expect("valid");
        let not = dag.add_node("not", Op::Not, [and.into()]).expect("valid");
        dag.mark_output(not);
        assert_eq!(dag.evaluate_outputs(&[true, true]), vec![false]);
        assert_eq!(dag.evaluate_outputs(&[true, false]), vec![true]);
    }

    #[test]
    fn collapse_free_nodes_rewires() {
        let mut dag = Dag::new();
        let x = dag.add_input("x");
        let y = dag.add_input("y");
        let inv = dag.add_node("inv", Op::Not, [x]).expect("valid");
        let buf = dag.add_node("buf", Op::Buf, [inv.into()]).expect("valid");
        let and = dag
            .add_node("and", Op::And, [buf.into(), y])
            .expect("valid");
        dag.mark_output(and);
        let collapsed = dag.collapse_free_nodes();
        assert_eq!(collapsed.num_nodes(), 1);
        let only = NodeId::from_index(0);
        assert_eq!(collapsed.node(only).op, Op::And);
        assert!(collapsed.is_output(only));
        // The AND's fanins are now the primary inputs directly.
        assert_eq!(collapsed.children(only).count(), 0);
    }

    #[test]
    fn collapse_output_on_free_node_moves_mark() {
        let mut dag = Dag::new();
        let x = dag.add_input("x");
        let y = dag.add_input("y");
        let and = dag.add_node("and", Op::And, [x, y]).expect("valid");
        let inv = dag.add_node("inv", Op::Not, [and.into()]).expect("valid");
        dag.mark_output(inv);
        let collapsed = dag.collapse_free_nodes();
        assert_eq!(collapsed.num_nodes(), 1);
        assert!(collapsed.is_output(NodeId::from_index(0)));
    }

    #[test]
    fn op_counts_and_weight() {
        let dag = paper_dag();
        let counts = dag.op_counts();
        assert_eq!(counts[&Op::Opaque], 6);
        assert_eq!(dag.total_weight(), 6);
    }

    #[test]
    fn dot_output_mentions_every_node() {
        let dag = paper_dag();
        let dot = dag.to_dot();
        for id in dag.node_ids() {
            assert!(dot.contains(&format!("n{}", id.index())));
        }
        assert!(dot.contains("doublecircle")); // outputs are highlighted
    }

    #[test]
    fn fingerprint_is_isomorphism_invariant() {
        // Build the paper DAG twice with different node names, operations
        // and insertion order of the independent first layer.
        let a = paper_dag();
        let mut b = Dag::new();
        let y1 = b.add_input("p");
        let y2 = b.add_input("q");
        let y3 = b.add_input("r");
        let y4 = b.add_input("s");
        // B before A; names and ops differ; structure is identical.
        let nb = b.add_node("beta", Op::And, [y3, y4]).expect("valid");
        let na = b.add_node("alpha", Op::Xor, [y2, y3]).expect("valid");
        let nd = b
            .add_node("delta", Op::And, [nb.into(), y3])
            .expect("valid");
        let nc = b
            .add_node("gamma", Op::And, [na.into(), y3])
            .expect("valid");
        let ne = b
            .add_node("eps", Op::And, [nc.into(), nd.into()])
            .expect("valid");
        let nf = b.add_node("phi", Op::And, [y1, na.into()]).expect("valid");
        b.mark_output(ne);
        b.mark_output(nf);
        assert_eq!(a.canonical_fingerprint(), b.canonical_fingerprint());
    }

    #[test]
    fn fingerprint_distinguishes_structure_weights_and_outputs() {
        let base = paper_dag();
        // An extra node changes the fingerprint.
        let mut extra = paper_dag();
        let x = extra.add_input("x5");
        let g = extra.add_node("G", Op::Opaque, [x]).expect("valid");
        extra.mark_output(g);
        assert_ne!(base.canonical_fingerprint(), extra.canonical_fingerprint());
        // A weight change alone changes the fingerprint.
        let mut dag_w1 = Dag::new();
        let x = dag_w1.add_input("x");
        let mut dag_w2 = dag_w1.clone();
        let n1 = dag_w1.add_node_weighted("n", Op::Buf, [x], 1).expect("ok");
        dag_w1.mark_output(n1);
        let n2 = dag_w2.add_node_weighted("n", Op::Buf, [x], 2).expect("ok");
        dag_w2.mark_output(n2);
        assert_ne!(
            dag_w1.canonical_fingerprint(),
            dag_w2.canonical_fingerprint()
        );
        // An output mark alone changes the fingerprint.
        let mut marked = paper_dag();
        marked.mark_output(NodeId::from_index(0));
        assert_ne!(base.canonical_fingerprint(), marked.canonical_fingerprint());
        // Deterministic across calls.
        assert_eq!(base.canonical_fingerprint(), base.canonical_fingerprint());
    }

    #[test]
    fn display_summary() {
        let dag = paper_dag();
        assert_eq!(
            dag.to_string(),
            "dag(4 inputs, 6 nodes, 2 outputs, depth 3)"
        );
    }
}
