//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Graph`] records every forward operation as a node; [`Graph::backward`]
//! walks the tape in reverse, propagating adjoints to inputs and accumulating
//! parameter gradients into the tape's own [`GradStore`]. Parameters are only
//! *read* during forward/backward, so multiple tapes can run concurrently over
//! one shared `&Parameters` — the basis for shard-parallel training. A fresh
//! graph is built per training step, which naturally supports the
//! variable-length paths this paper operates on.
//!
//! # Memory
//!
//! A tape built with [`Graph::new_in`] draws every tensor buffer — node
//! values, adjoints, and parameter-gradient slots — from a caller-owned
//! [`TensorPool`], and returns all of them when the tape is dropped. In steady
//! state (same batch shapes step over step) a training step therefore performs
//! zero tensor heap allocations. [`Graph::new`] keeps the plain allocating
//! behaviour; both paths run the exact same arithmetic, so pooled and unpooled
//! training are bit-for-bit identical.
//!
//! Node gradient buffers are allocated lazily, on first accumulation: nodes
//! that never receive an adjoint (constants, dead branches) cost no memory.
//!
//! The backward pass never clones an operand value: every propagation rule is
//! written against the accumulating kernels in [`crate::tensor`]
//! (`matmul_*_acc`, `axpy`, fused loops) and writes straight into the
//! destination adjoint buffer.
//!
//! # Fused ops
//!
//! The hot compositions the models emit have single-node fused forms:
//! [`Graph::affine`] (matmul + row bias + activation) and
//! [`Graph::lstm_seq`] (a whole LSTM layer over a sequence, one node per
//! sequence, with BPTT inside its backward). Both read their weights directly
//! from the parameter store by [`ParamId`], eliminating the per-step
//! parameter-clone nodes the composed forms needed. The `*_inplace`
//! elementwise variants additionally steal the operand's value buffer when
//! the tape's refcount proves no one else will read it.
//!
//! Every op's gradient is verified against central finite differences in the
//! test suite (see `tests/gradcheck.rs` and [`crate::gradcheck`]).

use std::mem;
use std::time::Instant;

use wsccl_obs::TapeProfiler;

use crate::kernels;
use crate::params::{GradStore, ParamId, Parameters};
use crate::pool::TensorPool;
use crate::tensor::Tensor;

/// Handle to a node on the tape.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NodeId(usize);

/// Activation fused into an [`Graph::affine`] node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activation {
    Identity,
    Sigmoid,
    Tanh,
    Relu,
}

#[derive(Debug)]
enum Op {
    /// Constant input; receives no gradient.
    Input,
    /// Reference to a trainable parameter.
    Param(ParamId),
    /// `A · B`
    MatMul(NodeId, NodeId),
    /// `A · Bᵀ`
    MatMulNt(NodeId, NodeId),
    /// Elementwise `A + B` (same shape).
    Add(NodeId, NodeId),
    /// `A + 1·r` — add a `1 × d` row vector to every row of `A`.
    AddRow(NodeId, NodeId),
    /// Elementwise `A - B`.
    Sub(NodeId, NodeId),
    /// Elementwise (Hadamard) `A ⊙ B`.
    Mul(NodeId, NodeId),
    /// `c · A`.
    Scale(NodeId, f64),
    /// Elementwise logistic sigmoid.
    Sigmoid(NodeId),
    /// Elementwise tanh.
    Tanh(NodeId),
    /// Elementwise ReLU.
    Relu(NodeId),
    /// Column slice `A[:, start..end]`.
    SliceCols(NodeId, usize, usize),
    /// Horizontal concatenation of several nodes.
    ConcatCols(Vec<NodeId>),
    /// Vertical stack of several nodes (all same `cols`).
    ConcatRows(Vec<NodeId>),
    /// `1 × d` mean over rows.
    MeanRows(NodeId),
    /// `1 × 1` sum of all elements.
    SumAll(NodeId),
    /// Row-wise softmax.
    SoftmaxRows(NodeId),
    /// Cosine similarity of two same-shaped tensors viewed as flat vectors → `1 × 1`.
    CosSim(NodeId, NodeId),
    /// Dot product of two same-shaped tensors viewed as flat vectors → `1 × 1`.
    Dot(NodeId, NodeId),
    /// `log Σ exp(xᵢ)` over a list of `1 × 1` scalars → `1 × 1`.
    LogSumExp(Vec<NodeId>),
    /// Softmax cross-entropy of `1 × k` logits against a class index → `1 × 1`.
    CrossEntropy(NodeId, usize),
    /// Row gather from a parameter matrix (embedding lookup).
    EmbedLookup(ParamId, Vec<usize>),
    /// Fused constant/embedding-row gather into one `1 × d` row: each entry
    /// splices one embedding-table row in at a column offset
    /// `(table, row, offset)`. Constant segments were copied at build time
    /// and need no backward. Replaces a per-edge chain of `EmbedLookup` +
    /// `Input` + `ConcatCols` nodes on the encoder hot path.
    GatherRow(Vec<(ParamId, usize, usize)>),
    /// Elementwise natural log (inputs must be positive).
    Ln(NodeId),
    /// Row-wise layer normalization (zero mean, unit variance per row).
    LayerNormRows(NodeId, f64),
    /// Row slice `A[start..end, :]`.
    SliceRows(NodeId, usize, usize),
    /// Fused `act(x · W + 1·b)` reading `W`/`b` straight from the store.
    Affine { x: NodeId, w: ParamId, b: Option<ParamId>, act: Activation },
    /// Fused LSTM layer over a whole sequence (see [`Graph::lstm_seq`]).
    /// Its value is empty: the per-step outputs are the `L` [`Op::LstmOut`]
    /// nodes pushed right after it, and each step's gates and states live in
    /// the tape's state chunk `chunk` from offset `at` (see
    /// [`LSTM_STATE_WIDTH`]).
    LstmSeq {
        inputs: Vec<NodeId>,
        wx: ParamId,
        wh: ParamId,
        b: ParamId,
        hidden: usize,
        chunk: usize,
        at: usize,
    },
    /// One step's hidden state `(n × hidden)` of the `LstmSeq` node it names.
    /// The sequence node reads this node's adjoint directly, so the backward
    /// only marks the sequence node as reached.
    LstmOut(NodeId),
}

/// Per-step LSTM state kept in the tape's state chunks, in units of
/// `n × hidden`: the post-activation gate blocks `[i | f | g | o | tanh(c)]`
/// (`n × 5h`, the layout [`kernels::Kernels::lstm_gates`] writes), then the
/// hidden state `h` and the cell state `c` (`n × h` each), which the next
/// step reads as its previous state.
const LSTM_STATE_WIDTH: usize = 7;

/// Element count of the pooled buffers that hold LSTM state and scratch.
/// Their natural sizes follow the path length, and the pool buckets by exact
/// size, so each length would keep its own high-water mark and the heap would
/// churn through blocks of every size; one fixed size recycles cleanly. A
/// 64 KiB chunk holds the state of a 36-step sequence at hidden 32; larger
/// needs round up to a power of two.
const LSTM_CHUNK: usize = 8192;

/// One part of a fused [`Graph::gather_concat_row`] input row.
#[derive(Clone, Copy, Debug)]
pub enum GatherPart<'a> {
    /// Constant columns, copied at build time; no gradient flows back.
    Const(&'a [f64]),
    /// One row of an embedding-table parameter: `(table, row_index)`.
    Row(ParamId, usize),
}

/// Discriminant-only view of [`Op`](self), public so tooling can reason about
/// the full op vocabulary: the tape profiler keys its per-op timings on
/// [`OpKind::name`], and the gradcheck sweep (`tests/gradcheck.rs`) enumerates
/// [`OpKind::ALL`] to prove every op has a finite-difference check.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpKind {
    Input,
    Param,
    MatMul,
    MatMulNt,
    Add,
    AddRow,
    Sub,
    Mul,
    Scale,
    Sigmoid,
    Tanh,
    Relu,
    SliceCols,
    ConcatCols,
    ConcatRows,
    MeanRows,
    SumAll,
    SoftmaxRows,
    CosSim,
    Dot,
    LogSumExp,
    CrossEntropy,
    EmbedLookup,
    GatherRow,
    Ln,
    LayerNormRows,
    SliceRows,
    Affine,
    /// A whole LSTM layer over one sequence ([`Graph::lstm_seq`]); it keeps
    /// the name of the per-step cell op it replaced, so the profile key
    /// `LstmCell` still measures the LSTM.
    LstmCell,
    /// One step's output of an `LstmCell` sequence node.
    LstmOut,
}

impl OpKind {
    /// Every op kind the tape supports, in declaration order. Keep in sync
    /// with [`Op`](self) — `op_kind` fails to compile on a missing arm, and
    /// the gradcheck sweep fails on a missing entry here.
    pub const ALL: [OpKind; 30] = [
        OpKind::Input,
        OpKind::Param,
        OpKind::MatMul,
        OpKind::MatMulNt,
        OpKind::Add,
        OpKind::AddRow,
        OpKind::Sub,
        OpKind::Mul,
        OpKind::Scale,
        OpKind::Sigmoid,
        OpKind::Tanh,
        OpKind::Relu,
        OpKind::SliceCols,
        OpKind::ConcatCols,
        OpKind::ConcatRows,
        OpKind::MeanRows,
        OpKind::SumAll,
        OpKind::SoftmaxRows,
        OpKind::CosSim,
        OpKind::Dot,
        OpKind::LogSumExp,
        OpKind::CrossEntropy,
        OpKind::EmbedLookup,
        OpKind::GatherRow,
        OpKind::Ln,
        OpKind::LayerNormRows,
        OpKind::SliceRows,
        OpKind::Affine,
        OpKind::LstmCell,
        OpKind::LstmOut,
    ];

    pub fn name(self) -> &'static str {
        match self {
            OpKind::Input => "Input",
            OpKind::Param => "Param",
            OpKind::MatMul => "MatMul",
            OpKind::MatMulNt => "MatMulNt",
            OpKind::Add => "Add",
            OpKind::AddRow => "AddRow",
            OpKind::Sub => "Sub",
            OpKind::Mul => "Mul",
            OpKind::Scale => "Scale",
            OpKind::Sigmoid => "Sigmoid",
            OpKind::Tanh => "Tanh",
            OpKind::Relu => "Relu",
            OpKind::SliceCols => "SliceCols",
            OpKind::ConcatCols => "ConcatCols",
            OpKind::ConcatRows => "ConcatRows",
            OpKind::MeanRows => "MeanRows",
            OpKind::SumAll => "SumAll",
            OpKind::SoftmaxRows => "SoftmaxRows",
            OpKind::CosSim => "CosSim",
            OpKind::Dot => "Dot",
            OpKind::LogSumExp => "LogSumExp",
            OpKind::CrossEntropy => "CrossEntropy",
            OpKind::EmbedLookup => "EmbedLookup",
            OpKind::GatherRow => "GatherRow",
            OpKind::Ln => "Ln",
            OpKind::LayerNormRows => "LayerNormRows",
            OpKind::SliceRows => "SliceRows",
            OpKind::Affine => "Affine",
            OpKind::LstmCell => "LstmCell",
            OpKind::LstmOut => "LstmOut",
        }
    }
}

impl Op {
    fn kind(&self) -> OpKind {
        match self {
            Op::Input => OpKind::Input,
            Op::Param(_) => OpKind::Param,
            Op::MatMul(..) => OpKind::MatMul,
            Op::MatMulNt(..) => OpKind::MatMulNt,
            Op::Add(..) => OpKind::Add,
            Op::AddRow(..) => OpKind::AddRow,
            Op::Sub(..) => OpKind::Sub,
            Op::Mul(..) => OpKind::Mul,
            Op::Scale(..) => OpKind::Scale,
            Op::Sigmoid(_) => OpKind::Sigmoid,
            Op::Tanh(_) => OpKind::Tanh,
            Op::Relu(_) => OpKind::Relu,
            Op::SliceCols(..) => OpKind::SliceCols,
            Op::ConcatCols(_) => OpKind::ConcatCols,
            Op::ConcatRows(_) => OpKind::ConcatRows,
            Op::MeanRows(_) => OpKind::MeanRows,
            Op::SumAll(_) => OpKind::SumAll,
            Op::SoftmaxRows(_) => OpKind::SoftmaxRows,
            Op::CosSim(..) => OpKind::CosSim,
            Op::Dot(..) => OpKind::Dot,
            Op::LogSumExp(_) => OpKind::LogSumExp,
            Op::CrossEntropy(..) => OpKind::CrossEntropy,
            Op::EmbedLookup(..) => OpKind::EmbedLookup,
            Op::GatherRow(_) => OpKind::GatherRow,
            Op::Ln(_) => OpKind::Ln,
            Op::LayerNormRows(..) => OpKind::LayerNormRows,
            Op::SliceRows(..) => OpKind::SliceRows,
            Op::Affine { .. } => OpKind::Affine,
            Op::LstmSeq { .. } => OpKind::LstmCell,
            Op::LstmOut(_) => OpKind::LstmOut,
        }
    }

    /// Whether this op's backward rule reads its **own output** value. The
    /// value buffer of such a node must never be stolen by an in-place op.
    fn backward_reads_own_value(&self) -> bool {
        matches!(
            self,
            Op::Sigmoid(_)
                | Op::Tanh(_)
                | Op::Relu(_)
                | Op::SoftmaxRows(_)
                | Op::LogSumExp(_)
                | Op::LayerNormRows(_, _)
                | Op::Affine { .. }
        )
    }
}

struct Node {
    op: Op,
    value: Tensor,
    /// Value shape, kept separately so adjoints stay sizable after the value
    /// buffer has been stolen by an in-place op.
    shape: (usize, usize),
    /// Adjoint buffer, allocated lazily on first accumulation.
    grad: Option<Tensor>,
    needs_grad: bool,
    /// How many later tape nodes consume this node as an operand.
    uses: u32,
    /// Value buffer was recycled into a later node by an `*_inplace` op;
    /// reading it is a bug and panics.
    stolen: bool,
}

/// Reverse-mode autodiff tape over a shared, read-only parameter store.
pub struct Graph<'p> {
    params: &'p Parameters,
    grads: GradStore,
    nodes: Vec<Node>,
    pool: Option<&'p mut TensorPool>,
    /// Optional per-op timing sink (see [`Graph::set_profiler`]). Like the
    /// pool, pure execution state: attaching one never changes the math.
    profiler: Option<&'p mut TapeProfiler>,
    /// Timestamp of the previous node push while profiling, so forward time
    /// is attributed per op without instrumenting every op method.
    fwd_mark: Option<Instant>,
    /// Named scalar values recorded via [`Graph::track_scalar`] (loss terms).
    tracked: Vec<(&'static str, f64)>,
    /// Chunks holding every `lstm_seq` node's per-step state, filled front
    /// to back, with the elements used of the last one.
    lstm_state: Vec<Tensor>,
    lstm_state_used: usize,
}

// -------------------------------------------------------------- pool helpers
//
// Free functions over the destructured fields, so the backward pass can hold
// an owned adjoint buffer while borrowing other nodes immutably.

fn pool_take_zero(pool: &mut Option<&mut TensorPool>, rows: usize, cols: usize) -> Tensor {
    match pool.as_deref_mut() {
        Some(p) => p.take(rows, cols),
        None => Tensor::zeros(rows, cols),
    }
}

fn pool_take_raw(pool: &mut Option<&mut TensorPool>, rows: usize, cols: usize) -> Tensor {
    match pool.as_deref_mut() {
        Some(p) => p.take_raw(rows, cols),
        None => Tensor::zeros(rows, cols),
    }
}

fn pool_put(pool: &mut Option<&mut TensorPool>, t: Tensor) {
    if let Some(p) = pool.as_deref_mut() {
        p.put(t);
    }
}

/// A `1 × len'` buffer with stale contents and `len' ≥ len` for LSTM state or
/// scratch: pooled ones come in [`LSTM_CHUNK`] (or power-of-two) sizes.
fn take_lstm_buf(pool: &mut Option<&mut TensorPool>, len: usize) -> Tensor {
    match pool.as_deref_mut() {
        Some(p) => p.take_raw(1, len.next_power_of_two().max(LSTM_CHUNK)),
        None => Tensor::zeros(1, len),
    }
}

/// Take a node's adjoint buffer out (allocating zeros on first touch) so it
/// can be written while other nodes are borrowed. Put it back with
/// `nodes[id].grad = Some(...)`.
fn take_grad(nodes: &mut [Node], pool: &mut Option<&mut TensorPool>, id: NodeId) -> Tensor {
    match nodes[id.0].grad.take() {
        Some(g) => g,
        None => {
            let (r, c) = nodes[id.0].shape;
            pool_take_zero(pool, r, c)
        }
    }
}

impl Drop for Graph<'_> {
    /// Return every node value, adjoint, and slab to the pool. Without a
    /// pool this is a plain drop.
    fn drop(&mut self) {
        let Some(pool) = self.pool.as_deref_mut() else { return };
        for node in self.nodes.drain(..) {
            pool.put(node.value);
            if let Some(g) = node.grad {
                pool.put(g);
            }
        }
        for chunk in self.lstm_state.drain(..) {
            pool.put(chunk);
        }
    }
}

impl<'p> Graph<'p> {
    /// Start a fresh tape over the given parameter store, allocating every
    /// tensor buffer from the global heap.
    pub fn new(params: &'p Parameters) -> Self {
        Self {
            params,
            grads: GradStore::new(),
            nodes: Vec::with_capacity(256),
            pool: None,
            profiler: None,
            fwd_mark: None,
            tracked: Vec::new(),
            lstm_state: Vec::new(),
            lstm_state_used: 0,
        }
    }

    /// Start a fresh tape that draws all tensor buffers from `pool` and
    /// returns them when dropped. Arithmetic is identical to [`Graph::new`].
    pub fn new_in(params: &'p Parameters, pool: &'p mut TensorPool) -> Self {
        Self {
            params,
            grads: GradStore::new(),
            nodes: Vec::with_capacity(256),
            pool: Some(pool),
            profiler: None,
            fwd_mark: None,
            tracked: Vec::new(),
            lstm_state: Vec::new(),
            lstm_state_used: 0,
        }
    }

    /// Attach a per-op timing profiler for this tape's lifetime. Forward time
    /// is attributed at node-push (so host-side glue between two pushes bills
    /// to the later op); backward time is measured per node in
    /// [`Graph::backward`]. Observability only — the computed values are
    /// bit-identical with or without a profiler.
    pub fn set_profiler(&mut self, profiler: &'p mut TapeProfiler) {
        self.fwd_mark = Some(Instant::now());
        self.profiler = Some(profiler);
    }

    /// Record the current value of a `1 × 1` node under a stable name —
    /// the hook loss functions use to expose their individual terms to
    /// observers. Read-only: tracking a node never changes the tape.
    pub fn track_scalar(&mut self, name: &'static str, id: NodeId) {
        assert_eq!(self.nodes[id.0].shape, (1, 1), "track_scalar on non-scalar `{name}`");
        let value = self.val(id).item();
        self.tracked.push((name, value));
    }

    /// Scalars recorded by [`Graph::track_scalar`], in recording order.
    pub fn tracked(&self) -> &[(&'static str, f64)] {
        &self.tracked
    }

    /// Take the tracked scalars out of the tape (e.g. before `finish`).
    pub fn take_tracked(&mut self) -> Vec<(&'static str, f64)> {
        mem::take(&mut self.tracked)
    }

    /// Read-only access to the underlying parameters.
    pub fn params(&self) -> &Parameters {
        self.params
    }

    /// Parameter gradients accumulated so far (valid after [`Graph::backward`]).
    pub fn grads(&self) -> &GradStore {
        &self.grads
    }

    /// Consume the tape, keeping only the accumulated parameter gradients.
    /// With a pool, all node buffers are recycled here; the returned store's
    /// buffers are released separately (see [`GradStore::release_into`]).
    pub fn into_grads(mut self) -> GradStore {
        mem::take(&mut self.grads)
    }

    /// Run backward from `loss` and return `(loss value, parameter grads)`,
    /// consuming the tape. The common tail of every training step.
    pub fn finish(mut self, loss: NodeId) -> (f64, GradStore) {
        let value = self.value(loss).item();
        self.backward(loss);
        (value, mem::take(&mut self.grads))
    }

    /// Value of a node.
    ///
    /// # Panics
    /// Panics if the node's buffer was recycled by an `*_inplace` op.
    pub fn value(&self, id: NodeId) -> &Tensor {
        self.val(id)
    }

    /// Adjoint accumulated at a node, if any (valid after [`Graph::backward`];
    /// `None` ⇔ zero).
    pub fn node_grad(&self, id: NodeId) -> Option<&Tensor> {
        self.nodes[id.0].grad.as_ref()
    }

    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    fn val(&self, id: NodeId) -> &Tensor {
        let node = &self.nodes[id.0];
        assert!(
            !node.stolen,
            "value of node {} was recycled by an in-place op and must not be read",
            id.0
        );
        &node.value
    }

    fn push(&mut self, op: Op, value: Tensor, needs_grad: bool) -> NodeId {
        if let Some(p) = self.profiler.as_deref_mut() {
            let now = Instant::now();
            if let Some(mark) = self.fwd_mark.replace(now) {
                p.record_forward(op.kind().name(), (now - mark).as_nanos() as u64);
            }
        }
        let shape = value.shape();
        self.nodes.push(Node { op, value, shape, grad: None, needs_grad, uses: 0, stolen: false });
        NodeId(self.nodes.len() - 1)
    }

    fn needs(&self, id: NodeId) -> bool {
        self.nodes[id.0].needs_grad
    }

    /// Record that a new node consumes `id` as an operand.
    fn bump(&mut self, id: NodeId) {
        self.nodes[id.0].uses += 1;
    }

    fn alloc_zero(&mut self, rows: usize, cols: usize) -> Tensor {
        pool_take_zero(&mut self.pool, rows, cols)
    }

    /// A buffer with **stale contents** — callers overwrite every element.
    fn alloc_raw(&mut self, rows: usize, cols: usize) -> Tensor {
        pool_take_raw(&mut self.pool, rows, cols)
    }

    // ---------------------------------------------------------------- inputs

    /// Constant input tensor (no gradient). The buffer is caller-allocated;
    /// prefer [`Graph::input_row`] on hot paths so it comes from the pool.
    pub fn input(&mut self, value: Tensor) -> NodeId {
        self.push(Op::Input, value, false)
    }

    /// Constant `1 × d` input copied from a slice into a pooled buffer.
    pub fn input_row(&mut self, data: &[f64]) -> NodeId {
        let mut v = self.alloc_raw(1, data.len());
        v.data_mut().copy_from_slice(data);
        self.push(Op::Input, v, false)
    }

    /// Reference a trainable parameter (the value is copied into a pooled
    /// buffer; fused ops avoid even that copy by reading the store directly).
    pub fn param(&mut self, id: ParamId) -> NodeId {
        let (r, c) = self.params.value(id).shape();
        let mut v = self.alloc_raw(r, c);
        v.copy_from(self.params.value(id));
        self.push(Op::Param(id), v, true)
    }

    /// Embedding lookup: gather `indices` rows of the parameter matrix.
    pub fn embed_lookup(&mut self, id: ParamId, indices: &[usize]) -> NodeId {
        let cols = self.params.value(id).cols();
        let mut out = self.alloc_raw(indices.len(), cols);
        let table = self.params.value(id);
        for (r, &ix) in indices.iter().enumerate() {
            assert!(ix < table.rows(), "embedding index {ix} out of range {}", table.rows());
            out.row_slice_mut(r).copy_from_slice(table.row_slice(ix));
        }
        self.push(Op::EmbedLookup(id, indices.to_vec()), out, true)
    }

    /// Fused gather of constant slices and single embedding-table rows into
    /// one `1 × d` node — the per-edge encoder input assembled in one tape op
    /// instead of an `EmbedLookup`/`Input` node per part plus a `ConcatCols`.
    /// Values and backward accumulation are bit-identical to that chain (pure
    /// copies forward, slice adds into the table gradients backward).
    pub fn gather_concat_row(&mut self, parts: &[GatherPart<'_>]) -> NodeId {
        let width: usize = parts
            .iter()
            .map(|p| match p {
                GatherPart::Const(s) => s.len(),
                GatherPart::Row(id, _) => self.params.value(*id).cols(),
            })
            .sum();
        let mut out = self.alloc_raw(1, width);
        let mut segs = Vec::new();
        let mut off = 0;
        let data = out.data_mut();
        for p in parts {
            match p {
                GatherPart::Const(s) => {
                    data[off..off + s.len()].copy_from_slice(s);
                    off += s.len();
                }
                GatherPart::Row(id, ix) => {
                    let table = self.params.value(*id);
                    assert!(*ix < table.rows(), "gather row {ix} out of range {}", table.rows());
                    let cols = table.cols();
                    data[off..off + cols].copy_from_slice(table.row_slice(*ix));
                    segs.push((*id, *ix, off));
                    off += cols;
                }
            }
        }
        self.push(Op::GatherRow(segs), out, true)
    }

    // ------------------------------------------------------------------- ops

    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (ar, _) = self.val(a).shape();
        let (_, bc) = self.val(b).shape();
        let mut v = self.alloc_zero(ar, bc);
        self.nodes[a.0].value.matmul_acc(&self.nodes[b.0].value, &mut v);
        let ng = self.needs(a) || self.needs(b);
        self.bump(a);
        self.bump(b);
        self.push(Op::MatMul(a, b), v, ng)
    }

    /// `a · bᵀ`.
    pub fn matmul_nt(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let ar = self.val(a).rows();
        let br = self.val(b).rows();
        let mut v = self.alloc_zero(ar, br);
        self.nodes[a.0].value.matmul_nt_acc(&self.nodes[b.0].value, &mut v);
        let ng = self.needs(a) || self.needs(b);
        self.bump(a);
        self.bump(b);
        self.push(Op::MatMulNt(a, b), v, ng)
    }

    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (r, c) = self.val(a).shape();
        let _ = self.val(b);
        let mut v = self.alloc_raw(r, c);
        self.nodes[a.0].value.add_into(&self.nodes[b.0].value, &mut v);
        let ng = self.needs(a) || self.needs(b);
        self.bump(a);
        self.bump(b);
        self.push(Op::Add(a, b), v, ng)
    }

    /// Like [`Graph::add`], but steals `a`'s (or `b`'s) value buffer for the
    /// result when the tape proves no one else reads it; falls back to a fresh
    /// buffer otherwise. Semantically identical to `add`.
    pub fn add_inplace(&mut self, a: NodeId, b: NodeId) -> NodeId {
        if let Some(mut v) = self.try_steal(a) {
            v.add_assign(&self.nodes[b.0].value);
            let ng = self.needs(a) || self.needs(b);
            self.bump(a);
            self.bump(b);
            return self.push(Op::Add(a, b), v, ng);
        }
        if let Some(mut v) = self.try_steal(b) {
            v.add_assign(&self.nodes[a.0].value);
            let ng = self.needs(a) || self.needs(b);
            self.bump(a);
            self.bump(b);
            return self.push(Op::Add(a, b), v, ng);
        }
        self.add(a, b)
    }

    /// Add a `1 × d` row vector to every row of `a`.
    pub fn add_row(&mut self, a: NodeId, row: NodeId) -> NodeId {
        let (r, c) = self.val(a).shape();
        let rv_shape = self.val(row).shape();
        assert_eq!(rv_shape.0, 1, "add_row: rhs must be a row vector");
        assert_eq!(c, rv_shape.1, "add_row: col mismatch");
        let mut v = self.alloc_raw(r, c);
        let (av, rv) = (&self.nodes[a.0].value, &self.nodes[row.0].value);
        for rr in 0..r {
            for ((o, x), y) in v.row_slice_mut(rr).iter_mut().zip(av.row_slice(rr)).zip(rv.data()) {
                *o = x + y;
            }
        }
        let ng = self.needs(a) || self.needs(row);
        self.bump(a);
        self.bump(row);
        self.push(Op::AddRow(a, row), v, ng)
    }

    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (r, c) = self.val(a).shape();
        let _ = self.val(b);
        let mut v = self.alloc_raw(r, c);
        self.nodes[a.0].value.sub_into(&self.nodes[b.0].value, &mut v);
        let ng = self.needs(a) || self.needs(b);
        self.bump(a);
        self.bump(b);
        self.push(Op::Sub(a, b), v, ng)
    }

    /// In-place variant of [`Graph::sub`] (steals `a`'s buffer when allowed).
    pub fn sub_inplace(&mut self, a: NodeId, b: NodeId) -> NodeId {
        if let Some(mut v) = self.try_steal(a) {
            let bv = &self.nodes[b.0].value;
            assert_eq!(v.shape(), bv.shape(), "elementwise shape mismatch");
            for (x, y) in v.data_mut().iter_mut().zip(bv.data()) {
                *x -= y;
            }
            let ng = self.needs(a) || self.needs(b);
            self.bump(a);
            self.bump(b);
            return self.push(Op::Sub(a, b), v, ng);
        }
        self.sub(a, b)
    }

    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (r, c) = self.val(a).shape();
        let _ = self.val(b);
        let mut v = self.alloc_raw(r, c);
        self.nodes[a.0].value.mul_into(&self.nodes[b.0].value, &mut v);
        let ng = self.needs(a) || self.needs(b);
        self.bump(a);
        self.bump(b);
        self.push(Op::Mul(a, b), v, ng)
    }

    pub fn scale(&mut self, a: NodeId, c: f64) -> NodeId {
        let (rows, cols) = self.val(a).shape();
        let mut v = self.alloc_raw(rows, cols);
        for (o, x) in v.data_mut().iter_mut().zip(self.nodes[a.0].value.data()) {
            *o = x * c;
        }
        let ng = self.needs(a);
        self.bump(a);
        self.push(Op::Scale(a, c), v, ng)
    }

    /// In-place variant of [`Graph::scale`] (steals `a`'s buffer when allowed).
    pub fn scale_inplace(&mut self, a: NodeId, c: f64) -> NodeId {
        if let Some(mut v) = self.try_steal(a) {
            v.scale_assign(c);
            let ng = self.needs(a);
            self.bump(a);
            return self.push(Op::Scale(a, c), v, ng);
        }
        self.scale(a, c)
    }

    pub fn sigmoid(&mut self, a: NodeId) -> NodeId {
        let (r, c) = self.val(a).shape();
        let mut v = self.alloc_raw(r, c);
        for (o, x) in v.data_mut().iter_mut().zip(self.nodes[a.0].value.data()) {
            *o = 1.0 / (1.0 + (-x).exp());
        }
        let ng = self.needs(a);
        self.bump(a);
        self.push(Op::Sigmoid(a), v, ng)
    }

    pub fn tanh(&mut self, a: NodeId) -> NodeId {
        let (r, c) = self.val(a).shape();
        let mut v = self.alloc_raw(r, c);
        for (o, x) in v.data_mut().iter_mut().zip(self.nodes[a.0].value.data()) {
            *o = x.tanh();
        }
        let ng = self.needs(a);
        self.bump(a);
        self.push(Op::Tanh(a), v, ng)
    }

    pub fn relu(&mut self, a: NodeId) -> NodeId {
        let (r, c) = self.val(a).shape();
        let mut v = self.alloc_raw(r, c);
        for (o, x) in v.data_mut().iter_mut().zip(self.nodes[a.0].value.data()) {
            *o = x.max(0.0);
        }
        let ng = self.needs(a);
        self.bump(a);
        self.push(Op::Relu(a), v, ng)
    }

    /// Elementwise natural log. Caller must guarantee strictly positive inputs.
    pub fn ln(&mut self, a: NodeId) -> NodeId {
        let (r, c) = self.val(a).shape();
        let mut v = self.alloc_raw(r, c);
        for (o, x) in v.data_mut().iter_mut().zip(self.nodes[a.0].value.data()) {
            *o = x.ln();
        }
        let ng = self.needs(a);
        self.bump(a);
        self.push(Op::Ln(a), v, ng)
    }

    /// Steal `a`'s value buffer for reuse by a new node, if the tape allows:
    /// nothing has consumed `a` yet, and `a`'s own backward rule never reads
    /// its output. Marks the node stolen so stray reads panic.
    fn try_steal(&mut self, a: NodeId) -> Option<Tensor> {
        let node = &mut self.nodes[a.0];
        if node.uses == 0 && !node.stolen && !node.op.backward_reads_own_value() {
            node.stolen = true;
            Some(mem::take(&mut node.value))
        } else {
            None
        }
    }

    /// Row slice `a[start..end, :]`.
    pub fn slice_rows(&mut self, a: NodeId, start: usize, end: usize) -> NodeId {
        let (rows, cols) = self.val(a).shape();
        assert!(start < end && end <= rows, "slice_rows out of range");
        let mut v = self.alloc_raw(end - start, cols);
        let av = &self.nodes[a.0].value;
        for r in start..end {
            v.row_slice_mut(r - start).copy_from_slice(av.row_slice(r));
        }
        let ng = self.needs(a);
        self.bump(a);
        self.push(Op::SliceRows(a, start, end), v, ng)
    }

    /// Column slice `a[:, start..end]`.
    pub fn slice_cols(&mut self, a: NodeId, start: usize, end: usize) -> NodeId {
        let (rows, cols) = self.val(a).shape();
        assert!(start < end && end <= cols, "slice_cols out of range");
        let mut v = self.alloc_raw(rows, end - start);
        let av = &self.nodes[a.0].value;
        for r in 0..rows {
            v.row_slice_mut(r).copy_from_slice(&av.row_slice(r)[start..end]);
        }
        let ng = self.needs(a);
        self.bump(a);
        self.push(Op::SliceCols(a, start, end), v, ng)
    }

    /// Horizontal concatenation of the given nodes.
    pub fn concat_cols(&mut self, parts: &[NodeId]) -> NodeId {
        assert!(!parts.is_empty(), "concat_cols of nothing");
        let rows = self.val(parts[0]).rows();
        let cols: usize = parts.iter().map(|&p| self.val(p).cols()).sum();
        let mut v = self.alloc_raw(rows, cols);
        for r in 0..rows {
            let mut off = 0;
            for p in parts {
                let pv = &self.nodes[p.0].value;
                assert_eq!(pv.rows(), rows, "concat_cols row mismatch");
                let w = pv.cols();
                v.row_slice_mut(r)[off..off + w].copy_from_slice(pv.row_slice(r));
                off += w;
            }
        }
        let ng = parts.iter().any(|&p| self.needs(p));
        for &p in parts {
            self.bump(p);
        }
        self.push(Op::ConcatCols(parts.to_vec()), v, ng)
    }

    /// Vertical stack of the given nodes.
    pub fn concat_rows(&mut self, parts: &[NodeId]) -> NodeId {
        assert!(!parts.is_empty(), "concat_rows of nothing");
        let cols = self.val(parts[0]).cols();
        let rows: usize = parts.iter().map(|&p| self.val(p).rows()).sum();
        let mut v = self.alloc_raw(rows, cols);
        let mut off = 0;
        for p in parts {
            let pv = &self.nodes[p.0].value;
            assert_eq!(pv.cols(), cols, "concat_rows col mismatch");
            for r in 0..pv.rows() {
                v.row_slice_mut(off + r).copy_from_slice(pv.row_slice(r));
            }
            off += pv.rows();
        }
        let ng = parts.iter().any(|&p| self.needs(p));
        for &p in parts {
            self.bump(p);
        }
        self.push(Op::ConcatRows(parts.to_vec()), v, ng)
    }

    /// `1 × d` mean over rows.
    pub fn mean_rows(&mut self, a: NodeId) -> NodeId {
        let (rows, cols) = self.val(a).shape();
        assert!(rows > 0, "mean_rows of empty tensor");
        let mut v = self.alloc_zero(1, cols);
        let av = &self.nodes[a.0].value;
        for r in 0..rows {
            for (o, x) in v.data_mut().iter_mut().zip(av.row_slice(r)) {
                *o += x;
            }
        }
        let inv = 1.0 / rows as f64;
        v.data_mut().iter_mut().for_each(|x| *x *= inv);
        let ng = self.needs(a);
        self.bump(a);
        self.push(Op::MeanRows(a), v, ng)
    }

    /// `1 × 1` sum of every element.
    pub fn sum_all(&mut self, a: NodeId) -> NodeId {
        let s = self.val(a).sum();
        let mut v = self.alloc_raw(1, 1);
        v.data_mut()[0] = s;
        let ng = self.needs(a);
        self.bump(a);
        self.push(Op::SumAll(a), v, ng)
    }

    /// Row-wise layer normalization: each row is shifted to zero mean and
    /// scaled to unit variance (`eps` stabilizes near-constant rows). Affine
    /// parameters, when wanted, compose via [`Graph::mul`]/[`Graph::add_row`].
    pub fn layer_norm_rows(&mut self, a: NodeId, eps: f64) -> NodeId {
        let (rows, cols) = self.val(a).shape();
        let mut v = self.alloc_raw(rows, cols);
        v.copy_from(&self.nodes[a.0].value);
        for r in 0..rows {
            let row = v.row_slice_mut(r);
            let n = row.len() as f64;
            let mean = row.iter().sum::<f64>() / n;
            let var = row.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
            let inv = 1.0 / (var + eps).sqrt();
            for x in row.iter_mut() {
                *x = (*x - mean) * inv;
            }
        }
        let ng = self.needs(a);
        self.bump(a);
        self.push(Op::LayerNormRows(a, eps), v, ng)
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&mut self, a: NodeId) -> NodeId {
        let (rows, cols) = self.val(a).shape();
        let mut v = self.alloc_raw(rows, cols);
        v.copy_from(&self.nodes[a.0].value);
        for r in 0..rows {
            let row = v.row_slice_mut(r);
            let m = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let mut z = 0.0;
            for x in row.iter_mut() {
                *x = (*x - m).exp();
                z += *x;
            }
            for x in row.iter_mut() {
                *x /= z;
            }
        }
        let ng = self.needs(a);
        self.bump(a);
        self.push(Op::SoftmaxRows(a), v, ng)
    }

    /// Cosine similarity of two same-shaped tensors (flattened) → `1 × 1`.
    pub fn cos_sim(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let s = self.val(a).cosine(self.val(b));
        let mut v = self.alloc_raw(1, 1);
        v.data_mut()[0] = s;
        let ng = self.needs(a) || self.needs(b);
        self.bump(a);
        self.bump(b);
        self.push(Op::CosSim(a, b), v, ng)
    }

    /// Flat dot product → `1 × 1`.
    pub fn dot(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let s = self.val(a).flat_dot(self.val(b));
        let mut v = self.alloc_raw(1, 1);
        v.data_mut()[0] = s;
        let ng = self.needs(a) || self.needs(b);
        self.bump(a);
        self.bump(b);
        self.push(Op::Dot(a, b), v, ng)
    }

    /// Numerically stable `log Σᵢ exp(xᵢ)` over `1 × 1` scalar nodes → `1 × 1`.
    pub fn log_sum_exp(&mut self, xs: &[NodeId]) -> NodeId {
        assert!(!xs.is_empty(), "log_sum_exp of nothing");
        let m = xs.iter().map(|&x| self.val(x).item()).fold(f64::NEG_INFINITY, f64::max);
        let s: f64 = xs.iter().map(|&x| (self.nodes[x.0].value.item() - m).exp()).sum();
        let mut v = self.alloc_raw(1, 1);
        v.data_mut()[0] = m + s.ln();
        let ng = xs.iter().any(|&x| self.needs(x));
        for &x in xs {
            self.bump(x);
        }
        self.push(Op::LogSumExp(xs.to_vec()), v, ng)
    }

    /// Softmax cross-entropy of `1 × k` logits vs. class index → `1 × 1`.
    pub fn cross_entropy(&mut self, logits: NodeId, target: usize) -> NodeId {
        let lv = self.val(logits);
        assert_eq!(lv.rows(), 1, "cross_entropy expects 1 x k logits");
        assert!(target < lv.cols(), "cross_entropy target out of range");
        let row = lv.row_slice(0);
        let m = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let lse = m + row.iter().map(|v| (v - m).exp()).sum::<f64>().ln();
        let s = lse - row[target];
        let mut v = self.alloc_raw(1, 1);
        v.data_mut()[0] = s;
        let ng = self.needs(logits);
        self.bump(logits);
        self.push(Op::CrossEntropy(logits, target), v, ng)
    }

    // ------------------------------------------------------------- fused ops

    /// Fused `act(x · W [+ 1·b])` in one tape node.
    ///
    /// `W` and `b` are read directly from the parameter store — no
    /// parameter-clone nodes on the tape — and the backward computes `dx`,
    /// `dW`, `db` in closed form with accumulating kernels.
    pub fn affine(&mut self, x: NodeId, w: ParamId, b: Option<ParamId>, act: Activation) -> NodeId {
        let (n, din) = self.val(x).shape();
        let (wr, dout) = self.params.value(w).shape();
        assert_eq!(din, wr, "affine: input cols {din} != weight rows {wr}");
        if let Some(bid) = b {
            assert_eq!(self.params.value(bid).shape(), (1, dout), "affine: bias shape mismatch");
        }
        let mut z = self.alloc_zero(n, dout);
        let kn = kernels::active();
        self.nodes[x.0].value.matmul_acc(self.params.value(w), &mut z);
        if let Some(bid) = b {
            kn.add_row_assign(n, dout, z.data_mut(), self.params.value(bid).data());
        }
        match act {
            Activation::Identity => {}
            Activation::Sigmoid => kn.sigmoid_inplace(z.data_mut()),
            Activation::Tanh => kn.tanh_inplace(z.data_mut()),
            Activation::Relu => kn.relu_inplace(z.data_mut()),
        }
        self.bump(x);
        self.push(Op::Affine { x, w, b, act }, z, true)
    }

    /// Fused LSTM layer over a whole sequence, in one tape node.
    ///
    /// `inputs` are the `L` timestep nodes, each `(n, in_dim)`; `wx`/`wh`/`b`
    /// are the layer's pre-packed `[i | f | g | o]` gate blocks, and the state
    /// starts at `h = c = 0`. Returns the `L` per-step hidden states, each an
    /// `(n, hidden)` node.
    ///
    /// Forward stacks the inputs and computes `x·Wx` for every step in one
    /// multi-row matmul, then runs `h·Wh`, the bias and the gate nonlinearity
    /// step by step. Each step's gates and states go to the tape's state
    /// chunks for the backward, which runs BPTT inside the op (see the
    /// `LstmSeq` arm of [`Graph::backward`]). Buffers sized by `L` come from
    /// the pool only in [`LSTM_CHUNK`] units, so path-length variety costs no
    /// extra pool buckets.
    pub fn lstm_seq(
        &mut self,
        inputs: &[NodeId],
        wx: ParamId,
        wh: ParamId,
        b: ParamId,
        hidden: usize,
    ) -> Vec<NodeId> {
        assert!(!inputs.is_empty(), "lstm_seq over an empty sequence");
        let (n, din) = self.val(inputs[0]).shape();
        for &x in inputs {
            assert_eq!(self.val(x).shape(), (n, din), "lstm_seq: timestep shape mismatch");
        }
        assert_eq!(self.params.value(wx).shape(), (din, 4 * hidden), "lstm_seq: wx shape");
        assert_eq!(self.params.value(wh).shape(), (hidden, 4 * hidden), "lstm_seq: wh shape");
        assert_eq!(self.params.value(b).shape(), (1, 4 * hidden), "lstm_seq: b shape");
        let (len, h, g4) = (inputs.len(), hidden, 4 * hidden);
        let rows = len * n;
        let step = n * LSTM_STATE_WIDTH * h;

        let (chunk, at) = self.lstm_state_alloc(len * step);
        // [X (L·n × din) | Z (L·n × 4h) | step [h | c] (n × 2h) | c₀ = 0 (n × h)]
        let mut scratch = take_lstm_buf(&mut self.pool, rows * (din + g4) + n * 3 * h);
        let (xs, rest) = scratch.data_mut().split_at_mut(rows * din);
        let (z, rest) = rest.split_at_mut(rows * g4);
        let (hc, rest) = rest.split_at_mut(n * 2 * h);
        let c0 = &mut rest[..n * h];
        z.fill(0.0);
        c0.fill(0.0);
        for (t, &x) in inputs.iter().enumerate() {
            xs[t * n * din..(t + 1) * n * din].copy_from_slice(self.nodes[x.0].value.data());
        }
        let kn = kernels::active();
        let (wxv, whv) = (self.params.value(wx).data(), self.params.value(wh).data());
        let bv = self.params.value(b).data();
        // z = x·Wx + h·Wh + 1·b: the input term for every step at once, then
        // the recurrent term and bias per step (h₀ = 0 adds nothing).
        kn.matmul_acc(rows, din, g4, xs, wxv, z);
        let state = &mut self.lstm_state[chunk].data_mut()[at..at + len * step];
        for t in 0..len {
            let zt = &mut z[t * n * g4..(t + 1) * n * g4];
            let (done, cur) = state.split_at_mut(t * step);
            let prev = t.checked_sub(1).map(|p| &done[p * step + n * 5 * h..]);
            if let Some(prev) = prev {
                kn.matmul_acc(n, h, g4, &prev[..n * h], whv, zt);
            }
            kn.add_row_assign(n, g4, zt, bv);
            let c_prev = prev.map_or(&*c0, |prev| &prev[n * h..]);
            let (gates, hc_t) = cur[..step].split_at_mut(n * 5 * h);
            kn.lstm_gates(n, h, zt, c_prev, gates, hc);
            let (h_t, c_t) = hc_t.split_at_mut(n * h);
            for r in 0..n {
                let hc_row = &hc[r * 2 * h..(r + 1) * 2 * h];
                h_t[r * h..(r + 1) * h].copy_from_slice(&hc_row[..h]);
                c_t[r * h..(r + 1) * h].copy_from_slice(&hc_row[h..]);
            }
        }
        pool_put(&mut self.pool, scratch);
        for &x in inputs {
            self.bump(x);
        }
        let op = Op::LstmSeq { inputs: inputs.to_vec(), wx, wh, b, hidden, chunk, at };
        let seq = self.push(op, Tensor::default(), true);
        (0..len)
            .map(|t| {
                let mut v = self.alloc_raw(n, h);
                let h_at = at + t * step + n * 5 * h;
                v.data_mut().copy_from_slice(&self.lstm_state[chunk].data()[h_at..h_at + n * h]);
                self.bump(seq);
                self.push(Op::LstmOut(seq), v, true)
            })
            .collect()
    }

    /// Reserve `len` elements of LSTM state: the rest of the current chunk
    /// if it fits, else a fresh chunk. Returns `(chunk, offset)`.
    fn lstm_state_alloc(&mut self, len: usize) -> (usize, usize) {
        let fits = self.lstm_state.last().is_some_and(|c| c.len() - self.lstm_state_used >= len);
        if !fits {
            let chunk = take_lstm_buf(&mut self.pool, len);
            self.lstm_state.push(chunk);
            self.lstm_state_used = 0;
        }
        let at = self.lstm_state_used;
        self.lstm_state_used += len;
        (self.lstm_state.len() - 1, at)
    }

    // ----------------------------------------------------------- composites

    /// Mean squared error between a prediction node and a constant target.
    pub fn mse_to_const(&mut self, pred: NodeId, target: &Tensor) -> NodeId {
        let (r, c) = target.shape();
        let mut tv = self.alloc_raw(r, c);
        tv.copy_from(target);
        let t = self.push(Op::Input, tv, false);
        let d = self.sub(pred, t);
        let sq = self.mul(d, d);
        let s = self.sum_all(sq);
        self.scale_inplace(s, 1.0 / target.len() as f64)
    }

    /// Mean of several `1 × 1` scalar nodes.
    pub fn mean_scalars(&mut self, xs: &[NodeId]) -> NodeId {
        assert!(!xs.is_empty(), "mean_scalars of nothing");
        let stacked = self.concat_rows(xs);
        let s = self.sum_all(stacked);
        self.scale_inplace(s, 1.0 / xs.len() as f64)
    }

    // ------------------------------------------------------------- backward

    /// Run backpropagation from a `1 × 1` loss node.
    ///
    /// Parameter gradients are **accumulated** into the tape's [`GradStore`]
    /// (see [`Graph::grads`] / [`Graph::into_grads`] / [`Graph::finish`]).
    pub fn backward(&mut self, loss: NodeId) {
        assert_eq!(self.nodes[loss.0].shape, (1, 1), "backward from non-scalar");
        let Self { params, grads, nodes, pool, profiler, lstm_state, .. } = self;
        let params: &Parameters = params;

        let mut seed = take_grad(nodes, pool, loss);
        seed.data_mut()[0] = 1.0;
        nodes[loss.0].grad = Some(seed);

        for i in (0..nodes.len()).rev() {
            if !nodes[i].needs_grad {
                continue;
            }
            // Take the adjoint and the op out of the node so predecessor
            // buffers can be borrowed freely; both are restored below.
            let Some(g) = nodes[i].grad.take() else { continue };
            let op = mem::replace(&mut nodes[i].op, Op::Input);
            let bwd_mark = profiler.as_ref().map(|_| Instant::now());
            match &op {
                Op::Input => {}
                Op::Param(pid) => {
                    let (rows, cols) = params.value(*pid).shape();
                    grads.entry_pooled(*pid, rows, cols, pool.as_deref_mut()).add_assign(&g);
                }
                Op::MatMul(a, b) => {
                    let (a, b) = (*a, *b);
                    if nodes[a.0].needs_grad {
                        let mut ga = take_grad(nodes, pool, a);
                        g.matmul_nt_acc(&nodes[b.0].value, &mut ga);
                        nodes[a.0].grad = Some(ga);
                    }
                    if nodes[b.0].needs_grad {
                        let mut gb = take_grad(nodes, pool, b);
                        nodes[a.0].value.matmul_tn_acc(&g, &mut gb);
                        nodes[b.0].grad = Some(gb);
                    }
                }
                Op::MatMulNt(a, b) => {
                    // C = A·Bᵀ  ⇒  dA = dC·B ; dB = dCᵀ·A.
                    let (a, b) = (*a, *b);
                    if nodes[a.0].needs_grad {
                        let mut ga = take_grad(nodes, pool, a);
                        g.matmul_acc(&nodes[b.0].value, &mut ga);
                        nodes[a.0].grad = Some(ga);
                    }
                    if nodes[b.0].needs_grad {
                        let mut gb = take_grad(nodes, pool, b);
                        g.matmul_tn_acc(&nodes[a.0].value, &mut gb);
                        nodes[b.0].grad = Some(gb);
                    }
                }
                Op::Add(a, b) => {
                    for &n in &[*a, *b] {
                        if nodes[n.0].needs_grad {
                            let mut gn = take_grad(nodes, pool, n);
                            gn.add_assign(&g);
                            nodes[n.0].grad = Some(gn);
                        }
                    }
                }
                Op::AddRow(a, row) => {
                    let (a, row) = (*a, *row);
                    if nodes[a.0].needs_grad {
                        let mut ga = take_grad(nodes, pool, a);
                        ga.add_assign(&g);
                        nodes[a.0].grad = Some(ga);
                    }
                    if nodes[row.0].needs_grad {
                        let mut gr = take_grad(nodes, pool, row);
                        for r in 0..g.rows() {
                            for (d, v) in gr.data_mut().iter_mut().zip(g.row_slice(r)) {
                                *d += v;
                            }
                        }
                        nodes[row.0].grad = Some(gr);
                    }
                }
                Op::Sub(a, b) => {
                    let (a, b) = (*a, *b);
                    if nodes[a.0].needs_grad {
                        let mut ga = take_grad(nodes, pool, a);
                        ga.add_assign(&g);
                        nodes[a.0].grad = Some(ga);
                    }
                    if nodes[b.0].needs_grad {
                        let mut gb = take_grad(nodes, pool, b);
                        gb.axpy(-1.0, &g);
                        nodes[b.0].grad = Some(gb);
                    }
                }
                Op::Mul(a, b) => {
                    let (a, b) = (*a, *b);
                    if nodes[a.0].needs_grad {
                        let mut ga = take_grad(nodes, pool, a);
                        ga.add_prod(&g, &nodes[b.0].value);
                        nodes[a.0].grad = Some(ga);
                    }
                    if nodes[b.0].needs_grad {
                        let mut gb = take_grad(nodes, pool, b);
                        gb.add_prod(&g, &nodes[a.0].value);
                        nodes[b.0].grad = Some(gb);
                    }
                }
                Op::Scale(a, c) => {
                    let (a, c) = (*a, *c);
                    if nodes[a.0].needs_grad {
                        let mut ga = take_grad(nodes, pool, a);
                        ga.axpy(c, &g);
                        nodes[a.0].grad = Some(ga);
                    }
                }
                Op::Sigmoid(a) => {
                    let a = *a;
                    if nodes[a.0].needs_grad {
                        let mut ga = take_grad(nodes, pool, a);
                        let y = &nodes[i].value;
                        for ((d, &gv), &yv) in ga.data_mut().iter_mut().zip(g.data()).zip(y.data())
                        {
                            *d += gv * yv * (1.0 - yv);
                        }
                        nodes[a.0].grad = Some(ga);
                    }
                }
                Op::Tanh(a) => {
                    let a = *a;
                    if nodes[a.0].needs_grad {
                        let mut ga = take_grad(nodes, pool, a);
                        let y = &nodes[i].value;
                        for ((d, &gv), &yv) in ga.data_mut().iter_mut().zip(g.data()).zip(y.data())
                        {
                            *d += gv * (1.0 - yv * yv);
                        }
                        nodes[a.0].grad = Some(ga);
                    }
                }
                Op::Relu(a) => {
                    // y = max(x, 0), so y > 0 ⇔ x > 0: the backward can use
                    // its own output, keeping the op in-place-eligible.
                    let a = *a;
                    if nodes[a.0].needs_grad {
                        let mut ga = take_grad(nodes, pool, a);
                        let y = &nodes[i].value;
                        for ((d, &gv), &yv) in ga.data_mut().iter_mut().zip(g.data()).zip(y.data())
                        {
                            if yv > 0.0 {
                                *d += gv;
                            }
                        }
                        nodes[a.0].grad = Some(ga);
                    }
                }
                Op::Ln(a) => {
                    let a = *a;
                    if nodes[a.0].needs_grad {
                        let mut ga = take_grad(nodes, pool, a);
                        let x = &nodes[a.0].value;
                        for ((d, &gv), &xv) in ga.data_mut().iter_mut().zip(g.data()).zip(x.data())
                        {
                            *d += gv / xv;
                        }
                        nodes[a.0].grad = Some(ga);
                    }
                }
                Op::SliceCols(a, start, _end) => {
                    let (a, start) = (*a, *start);
                    if nodes[a.0].needs_grad {
                        let mut ga = take_grad(nodes, pool, a);
                        for r in 0..g.rows() {
                            let dst = &mut ga.row_slice_mut(r)[start..start + g.cols()];
                            for (d, v) in dst.iter_mut().zip(g.row_slice(r)) {
                                *d += v;
                            }
                        }
                        nodes[a.0].grad = Some(ga);
                    }
                }
                Op::ConcatCols(parts) => {
                    let mut off = 0;
                    for &p in parts {
                        let w = nodes[p.0].shape.1;
                        if nodes[p.0].needs_grad {
                            let mut gp = take_grad(nodes, pool, p);
                            for r in 0..g.rows() {
                                let src = &g.row_slice(r)[off..off + w];
                                for (d, v) in gp.row_slice_mut(r).iter_mut().zip(src) {
                                    *d += v;
                                }
                            }
                            nodes[p.0].grad = Some(gp);
                        }
                        off += w;
                    }
                }
                Op::ConcatRows(parts) => {
                    let mut off = 0;
                    for &p in parts {
                        let nr = nodes[p.0].shape.0;
                        if nodes[p.0].needs_grad {
                            let mut gp = take_grad(nodes, pool, p);
                            for r in 0..nr {
                                for (d, v) in
                                    gp.row_slice_mut(r).iter_mut().zip(g.row_slice(off + r))
                                {
                                    *d += v;
                                }
                            }
                            nodes[p.0].grad = Some(gp);
                        }
                        off += nr;
                    }
                }
                Op::MeanRows(a) => {
                    let a = *a;
                    if nodes[a.0].needs_grad {
                        let n = nodes[a.0].shape.0;
                        let inv = 1.0 / n as f64;
                        let mut ga = take_grad(nodes, pool, a);
                        for r in 0..n {
                            for (d, v) in ga.row_slice_mut(r).iter_mut().zip(g.row_slice(0)) {
                                *d += v * inv;
                            }
                        }
                        nodes[a.0].grad = Some(ga);
                    }
                }
                Op::SumAll(a) => {
                    let a = *a;
                    if nodes[a.0].needs_grad {
                        let gv = g.item();
                        let mut ga = take_grad(nodes, pool, a);
                        ga.data_mut().iter_mut().for_each(|d| *d += gv);
                        nodes[a.0].grad = Some(ga);
                    }
                }
                Op::SoftmaxRows(a) => {
                    let a = *a;
                    if nodes[a.0].needs_grad {
                        let mut ga = take_grad(nodes, pool, a);
                        let y = &nodes[i].value;
                        for r in 0..y.rows() {
                            let yrow = y.row_slice(r);
                            let grow = g.row_slice(r);
                            let dotgy: f64 = yrow.iter().zip(grow).map(|(yv, gv)| yv * gv).sum();
                            for ((d, &yv), &gv) in
                                ga.row_slice_mut(r).iter_mut().zip(yrow).zip(grow)
                            {
                                *d += yv * (gv - dotgy);
                            }
                        }
                        nodes[a.0].grad = Some(ga);
                    }
                }
                Op::CosSim(a, b) => {
                    let (a, b) = (*a, *b);
                    let gv = g.item();
                    let na = nodes[a.0].value.norm();
                    let nb = nodes[b.0].value.norm();
                    if na < 1e-12 || nb < 1e-12 {
                        // Value was defined as 0; treat gradient as 0 too.
                    } else {
                        let c = nodes[a.0].value.flat_dot(&nodes[b.0].value) / (na * nb);
                        if nodes[a.0].needs_grad {
                            // d/da = b/(|a||b|) − c · a/|a|²
                            let mut ga = take_grad(nodes, pool, a);
                            let (s1, s2) = (1.0 / (na * nb), -c / (na * na));
                            for ((d, &xb), &xa) in ga
                                .data_mut()
                                .iter_mut()
                                .zip(nodes[b.0].value.data())
                                .zip(nodes[a.0].value.data())
                            {
                                *d += gv * (xb * s1 + xa * s2);
                            }
                            nodes[a.0].grad = Some(ga);
                        }
                        if nodes[b.0].needs_grad {
                            let mut gb = take_grad(nodes, pool, b);
                            let (s1, s2) = (1.0 / (na * nb), -c / (nb * nb));
                            for ((d, &xa), &xb) in gb
                                .data_mut()
                                .iter_mut()
                                .zip(nodes[a.0].value.data())
                                .zip(nodes[b.0].value.data())
                            {
                                *d += gv * (xa * s1 + xb * s2);
                            }
                            nodes[b.0].grad = Some(gb);
                        }
                    }
                }
                Op::Dot(a, b) => {
                    let (a, b) = (*a, *b);
                    let gv = g.item();
                    if nodes[a.0].needs_grad {
                        let mut ga = take_grad(nodes, pool, a);
                        ga.axpy(gv, &nodes[b.0].value);
                        nodes[a.0].grad = Some(ga);
                    }
                    if nodes[b.0].needs_grad {
                        let mut gb = take_grad(nodes, pool, b);
                        gb.axpy(gv, &nodes[a.0].value);
                        nodes[b.0].grad = Some(gb);
                    }
                }
                Op::LogSumExp(xs) => {
                    let gv = g.item();
                    let out = nodes[i].value.item();
                    for &x in xs {
                        if nodes[x.0].needs_grad {
                            let w = (nodes[x.0].value.item() - out).exp();
                            let mut gx = take_grad(nodes, pool, x);
                            gx.data_mut()[0] += gv * w;
                            nodes[x.0].grad = Some(gx);
                        }
                    }
                }
                Op::CrossEntropy(logits, target) => {
                    let (logits, target) = (*logits, *target);
                    if nodes[logits.0].needs_grad {
                        let gv = g.item();
                        let mut gl = take_grad(nodes, pool, logits);
                        let row = nodes[logits.0].value.row_slice(0);
                        let m = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                        let z: f64 = row.iter().map(|v| (v - m).exp()).sum();
                        for (j, (d, &v)) in gl.row_slice_mut(0).iter_mut().zip(row).enumerate() {
                            let p = (v - m).exp() / z;
                            *d += gv * (p - if j == target { 1.0 } else { 0.0 });
                        }
                        nodes[logits.0].grad = Some(gl);
                    }
                }
                Op::SliceRows(a, start, _end) => {
                    let (a, start) = (*a, *start);
                    if nodes[a.0].needs_grad {
                        let mut ga = take_grad(nodes, pool, a);
                        for r in 0..g.rows() {
                            for (d, v) in ga.row_slice_mut(start + r).iter_mut().zip(g.row_slice(r))
                            {
                                *d += v;
                            }
                        }
                        nodes[a.0].grad = Some(ga);
                    }
                }
                Op::LayerNormRows(a, eps) => {
                    let (a, eps) = (*a, *eps);
                    if nodes[a.0].needs_grad {
                        // With x̂ = (x − μ)/σ:
                        // dx = (1/σ) · (dy − mean(dy) − x̂ · mean(dy ⊙ x̂)).
                        let mut ga = take_grad(nodes, pool, a);
                        let x = &nodes[a.0].value;
                        let xhat = &nodes[i].value;
                        for r in 0..x.rows() {
                            let n = x.cols() as f64;
                            let xrow = x.row_slice(r);
                            let mean = xrow.iter().sum::<f64>() / n;
                            let var = xrow.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
                            let inv = 1.0 / (var + eps).sqrt();
                            let grow = g.row_slice(r);
                            let hrow = xhat.row_slice(r);
                            let mean_dy = grow.iter().sum::<f64>() / n;
                            let mean_dyh: f64 =
                                grow.iter().zip(hrow).map(|(d, h)| d * h).sum::<f64>() / n;
                            for ((t, &dy), &h) in ga.row_slice_mut(r).iter_mut().zip(grow).zip(hrow)
                            {
                                *t += inv * (dy - mean_dy - h * mean_dyh);
                            }
                        }
                        nodes[a.0].grad = Some(ga);
                    }
                }
                Op::EmbedLookup(pid, indices) => {
                    let (rows, cols) = params.value(*pid).shape();
                    let table_grad = grads.entry_pooled(*pid, rows, cols, pool.as_deref_mut());
                    for (r, &ix) in indices.iter().enumerate() {
                        for (d, v) in table_grad.row_slice_mut(ix).iter_mut().zip(g.row_slice(r)) {
                            *d += v;
                        }
                    }
                }
                Op::GatherRow(segs) => {
                    let adj = g.row_slice(0);
                    for &(pid, ix, off) in segs.iter() {
                        let (rows, cols) = params.value(pid).shape();
                        let table_grad = grads.entry_pooled(pid, rows, cols, pool.as_deref_mut());
                        kernels::active()
                            .add_assign(table_grad.row_slice_mut(ix), &adj[off..off + cols]);
                    }
                }
                Op::Affine { x, w, b, act } => {
                    let (x, w, b, act) = (*x, *w, *b, *act);
                    let (n, dout) = nodes[i].shape;
                    // dz = dL/d(pre-activation), derived from the node's own
                    // output for every activation (ReLU via the sign trick).
                    let mut dz = pool_take_raw(pool, n, dout);
                    {
                        let y = &nodes[i].value;
                        match act {
                            Activation::Identity => dz.copy_from(&g),
                            Activation::Sigmoid => {
                                for ((d, &gv), &yv) in
                                    dz.data_mut().iter_mut().zip(g.data()).zip(y.data())
                                {
                                    *d = gv * yv * (1.0 - yv);
                                }
                            }
                            Activation::Tanh => {
                                for ((d, &gv), &yv) in
                                    dz.data_mut().iter_mut().zip(g.data()).zip(y.data())
                                {
                                    *d = gv * (1.0 - yv * yv);
                                }
                            }
                            Activation::Relu => {
                                for ((d, &gv), &yv) in
                                    dz.data_mut().iter_mut().zip(g.data()).zip(y.data())
                                {
                                    *d = if yv > 0.0 { gv } else { 0.0 };
                                }
                            }
                        }
                    }
                    if nodes[x.0].needs_grad {
                        let mut gx = take_grad(nodes, pool, x);
                        dz.matmul_nt_acc(params.value(w), &mut gx);
                        nodes[x.0].grad = Some(gx);
                    }
                    let (din, _) = params.value(w).shape();
                    let gw = grads.entry_pooled(w, din, dout, pool.as_deref_mut());
                    nodes[x.0].value.matmul_tn_acc(&dz, gw);
                    if let Some(bid) = b {
                        let gb = grads.entry_pooled(bid, 1, dout, pool.as_deref_mut());
                        kernels::active().add_rows_acc(n, dout, dz.data(), gb.data_mut());
                    }
                    pool_put(pool, dz);
                }
                Op::LstmOut(seq) => {
                    let seq = *seq;
                    if nodes[seq.0].grad.is_none() {
                        nodes[seq.0].grad = Some(Tensor::default());
                    }
                }
                Op::LstmSeq { inputs, wx, wh, b, hidden, chunk, at } => {
                    let step = nodes[inputs[0].0].shape.0 * LSTM_STATE_WIDTH * hidden;
                    let state = &lstm_state[*chunk].data()[*at..*at + inputs.len() * step];
                    let weights = (*wx, *wh, *b);
                    lstm_seq_backward(
                        i, inputs, weights, *hidden, state, nodes, pool, params, grads,
                    );
                }
            }
            if let (Some(p), Some(mark)) = (profiler.as_deref_mut(), bwd_mark) {
                p.record_backward(op.kind().name(), mark.elapsed().as_nanos() as u64);
            }
            nodes[i].op = op;
            nodes[i].grad = Some(g);
        }
    }
}

/// Backward of the `LstmSeq` node at tape index `i`: BPTT in reverse time,
/// mirroring the unfused tape — one cell node per step whose `[h | c]` value
/// was split by two `SliceCols` — operation for operation:
/// * `dh_t` is `h_t`'s external adjoint, then the recurrent term
///   `dz_{t+1}·Whᵀ` accumulated onto it;
/// * the cell saw its `[dh | dc]` adjoint through the slices' `0.0 +` adds,
///   repeated here;
/// * steps after the last output with an adjoint never ran their cell, so
///   they take no part;
/// * weight and bias gradients accumulate over the steps in reverse time
///   order, as the per-step updates did, now in one k-inner matmul per
///   weight; input adjoints `dz_t·Wxᵀ` land on each input's adjoint one
///   step at a time in reverse time order, as the per-step cells left them.
#[allow(clippy::too_many_arguments)]
fn lstm_seq_backward(
    i: usize,
    inputs: &[NodeId],
    (wx, wh, b): (ParamId, ParamId, ParamId),
    h: usize,
    state: &[f64],
    nodes: &mut [Node],
    pool: &mut Option<&mut TensorPool>,
    params: &Parameters,
    grads: &mut GradStore,
) {
    let (len, g4) = (inputs.len(), 4 * h);
    let (n, din) = nodes[inputs[0].0].shape;
    let step = n * LSTM_STATE_WIDTH * h;
    // Output t is the `LstmOut` node pushed t + 1 places after this one.
    let out = |t: usize| i + 1 + t;
    let last = (0..len)
        .rev()
        .find(|&t| nodes[out(t)].grad.is_some())
        .expect("LstmSeq reached without an output adjoint");
    let active = last + 1;
    // Reverse-time stacks [dZ | X | H_prev], then per-step
    // [dh | [dh | dc] | dc | c₀ = 0].
    let mut scratch = take_lstm_buf(pool, active * n * (g4 + din) + last * n * h + n * 5 * h);
    let (dz, rest) = scratch.data_mut().split_at_mut(active * n * g4);
    let (xr, rest) = rest.split_at_mut(active * n * din);
    let (hr, rest) = rest.split_at_mut(last * n * h);
    let (dh, rest) = rest.split_at_mut(n * h);
    let (dhc, rest) = rest.split_at_mut(n * 2 * h);
    let (dc, rest) = rest.split_at_mut(n * h);
    let c0 = &mut rest[..n * h];
    dc.fill(0.0);
    c0.fill(0.0);
    for t in 0..active {
        let r = last - t;
        xr[r * n * din..(r + 1) * n * din].copy_from_slice(nodes[inputs[t].0].value.data());
        if t < last {
            // h_t is the previous state of step t + 1.
            let at = t * step + n * 5 * h;
            hr[(r - 1) * n * h..r * n * h].copy_from_slice(&state[at..at + n * h]);
        }
    }
    let kn = kernels::active();
    let (wxv, whv) = (params.value(wx).data(), params.value(wh).data());
    for t in (0..active).rev() {
        let r = last - t;
        match &nodes[out(t)].grad {
            Some(e) => dh.copy_from_slice(e.data()),
            None => dh.fill(0.0),
        }
        if t < last {
            kn.matmul_nt_acc(n, g4, h, &dz[(r - 1) * n * g4..r * n * g4], whv, dh);
        }
        for row in 0..n {
            let (dhc_h, dhc_c) = dhc[row * 2 * h..(row + 1) * 2 * h].split_at_mut(h);
            for (d, v) in dhc_h.iter_mut().zip(&dh[row * h..(row + 1) * h]) {
                *d = 0.0 + v;
            }
            for (d, v) in dhc_c.iter_mut().zip(&dc[row * h..(row + 1) * h]) {
                *d = 0.0 + v;
            }
        }
        let gates = &state[t * step..t * step + n * 5 * h];
        let c_prev = if t == 0 { &*c0 } else { &state[(t - 1) * step + n * 6 * h..t * step] };
        let dz_t = &mut dz[r * n * g4..(r + 1) * n * g4];
        kn.lstm_gates_backward(n, h, gates, dhc, c_prev, dz_t, dc);
    }
    let gwx = grads.entry_pooled(wx, din, g4, pool.as_deref_mut());
    kn.matmul_tn_acc(active * n, din, g4, xr, dz, gwx.data_mut());
    // Step 0's previous state is h₀ = 0: no contribution.
    let gwh = grads.entry_pooled(wh, h, g4, pool.as_deref_mut());
    if last > 0 {
        kn.matmul_tn_acc(last * n, h, g4, hr, &dz[..last * n * g4], gwh.data_mut());
    }
    let gb = grads.entry_pooled(b, 1, g4, pool.as_deref_mut());
    kn.add_rows_acc(active * n, g4, dz, gb.data_mut());

    // Input adjoints dz_t·Wxᵀ in reverse time order, as the per-step cells
    // left them (an input fed to several steps sees the same sequence).
    for (t, &x) in inputs[..active].iter().enumerate().rev() {
        if nodes[x.0].needs_grad {
            let mut gx = take_grad(nodes, pool, x);
            let dz_t = &dz[(last - t) * n * g4..(last - t + 1) * n * g4];
            kn.matmul_nt_acc(n, g4, din, dz_t, wxv, gx.data_mut());
            nodes[x.0].grad = Some(gx);
        }
    }
    pool_put(pool, scratch);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params_with(values: &[(&str, Tensor)]) -> (Parameters, Vec<ParamId>) {
        let mut p = Parameters::new();
        let ids = values.iter().map(|(n, t)| p.register(*n, t.clone())).collect();
        (p, ids)
    }

    #[test]
    fn forward_matmul_add_sigmoid() {
        let (p, ids) = params_with(&[
            ("w", Tensor::from_vec(2, 1, vec![1.0, -1.0])),
            ("b", Tensor::scalar(0.5)),
        ]);
        let mut g = Graph::new(&p);
        let x = g.input(Tensor::row(vec![2.0, 1.0]));
        let w = g.param(ids[0]);
        let b = g.param(ids[1]);
        let wx = g.matmul(x, w);
        let z = g.add(wx, b);
        let y = g.sigmoid(z);
        // z = 2 - 1 + 0.5 = 1.5
        let expect = 1.0 / (1.0 + (-1.5f64).exp());
        assert!((g.value(y).item() - expect).abs() < 1e-12);
    }

    #[test]
    fn backward_simple_linear() {
        // loss = (w·x)² with x = 3, w = 2 → loss = 36, dL/dw = 2·w·x² = 36.
        let (p, ids) = params_with(&[("w", Tensor::scalar(2.0))]);
        let mut g = Graph::new(&p);
        let x = g.input(Tensor::scalar(3.0));
        let w = g.param(ids[0]);
        let wx = g.mul(w, x);
        let loss = g.mul(wx, wx);
        g.backward(loss);
        assert!((g.grads().grad(ids[0]).unwrap().item() - 36.0).abs() < 1e-9);
    }

    #[test]
    fn backward_accumulates_across_uses() {
        // loss = w + w → dL/dw = 2.
        let (p, ids) = params_with(&[("w", Tensor::scalar(1.0))]);
        let mut g = Graph::new(&p);
        let w = g.param(ids[0]);
        let loss = g.add(w, w);
        g.backward(loss);
        assert!((g.grads().grad(ids[0]).unwrap().item() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn finish_returns_loss_and_grads() {
        let (p, ids) = params_with(&[("w", Tensor::scalar(2.0))]);
        let mut g = Graph::new(&p);
        let w = g.param(ids[0]);
        let loss = g.mul(w, w);
        let (value, grads) = g.finish(loss);
        assert!((value - 4.0).abs() < 1e-12);
        assert!((grads.grad(ids[0]).unwrap().item() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn node_grads_allocate_lazily() {
        let (p, ids) = params_with(&[("w", Tensor::scalar(1.0))]);
        let mut g = Graph::new(&p);
        let dead = g.input(Tensor::zeros(8, 8));
        let w = g.param(ids[0]);
        let loss = g.mul(w, w);
        g.backward(loss);
        assert!(g.node_grad(dead).is_none(), "constant input must never allocate a grad");
        assert!(g.node_grad(loss).is_some());
    }

    #[test]
    fn two_tapes_share_one_parameter_store() {
        // Data parallelism in miniature: two tapes over the same &Parameters,
        // reduced in fixed order, equals one tape over the combined loss.
        let (p, ids) = params_with(&[("w", Tensor::scalar(3.0))]);
        let run = |x: f64| {
            let mut g = Graph::new(&p);
            let xn = g.input(Tensor::scalar(x));
            let w = g.param(ids[0]);
            let wx = g.mul(w, xn);
            let loss = g.mul(wx, wx);
            g.finish(loss).1
        };
        let (g1, g2) = (run(2.0), run(5.0));
        let mut reduced = GradStore::new();
        reduced.accumulate(&g1);
        reduced.accumulate(&g2);
        // d/dw [ (2w)² + (5w)² ] = 2w·(4 + 25) = 174 at w = 3.
        assert!((reduced.grad(ids[0]).unwrap().item() - 174.0).abs() < 1e-9);
    }

    #[test]
    fn embed_lookup_scatter_grad() {
        let (p, ids) = params_with(&[("e", Tensor::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]))]);
        let mut g = Graph::new(&p);
        let e = g.embed_lookup(ids[0], &[2, 0, 2]);
        assert_eq!(g.value(e).row_slice(0), &[5.0, 6.0]);
        let s = g.sum_all(e);
        g.backward(s);
        // Row 2 used twice, row 0 once, row 1 never.
        let gr = g.grads().grad(ids[0]).unwrap();
        assert_eq!(gr.row_slice(0), &[1.0, 1.0]);
        assert_eq!(gr.row_slice(1), &[0.0, 0.0]);
        assert_eq!(gr.row_slice(2), &[2.0, 2.0]);
    }

    #[test]
    fn log_sum_exp_is_stable_for_large_inputs() {
        let (p, _) = params_with(&[]);
        let mut g = Graph::new(&p);
        let a = g.input(Tensor::scalar(1000.0));
        let b = g.input(Tensor::scalar(1000.0));
        let l = g.log_sum_exp(&[a, b]);
        assert!((g.value(l).item() - (1000.0 + 2f64.ln())).abs() < 1e-9);
    }

    #[test]
    fn cross_entropy_matches_manual() {
        let (p, ids) = params_with(&[("l", Tensor::row(vec![1.0, 2.0, 3.0]))]);
        let mut g = Graph::new(&p);
        let l = g.param(ids[0]);
        let ce = g.cross_entropy(l, 1);
        let z: f64 = [1.0f64, 2.0, 3.0].iter().map(|v| v.exp()).sum();
        assert!((g.value(ce).item() - (z.ln() - 2.0)).abs() < 1e-9);
        g.backward(ce);
        let soft: Vec<f64> = [1.0f64, 2.0, 3.0].iter().map(|v| v.exp() / z).collect();
        let gr = g.grads().grad(ids[0]).unwrap();
        assert!((gr.get(0, 0) - soft[0]).abs() < 1e-9);
        assert!((gr.get(0, 1) - (soft[1] - 1.0)).abs() < 1e-9);
        assert!((gr.get(0, 2) - soft[2]).abs() < 1e-9);
    }

    #[test]
    fn cos_sim_of_identical_vectors_has_zero_grad() {
        // d cos(a,a)/da = 0 since cos is scale-invariant.
        let (p, ids) = params_with(&[("a", Tensor::row(vec![1.0, 2.0]))]);
        let mut g = Graph::new(&p);
        let a = g.param(ids[0]);
        let c = g.cos_sim(a, a);
        assert!((g.value(c).item() - 1.0).abs() < 1e-12);
        g.backward(c);
        if let Some(gr) = g.grads().grad(ids[0]) {
            for v in gr.data() {
                assert!(v.abs() < 1e-9);
            }
        }
    }

    #[test]
    #[should_panic(expected = "backward from non-scalar")]
    fn backward_from_matrix_panics() {
        let (p, _) = params_with(&[]);
        let mut g = Graph::new(&p);
        let x = g.input(Tensor::zeros(2, 2));
        g.backward(x);
    }

    // ------------------------------------------------------ pool integration

    #[test]
    fn pooled_tape_reuses_buffers_across_steps() {
        let (p, ids) = params_with(&[("w", Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]))]);
        let mut pool = TensorPool::new();
        let run = |pool: &mut TensorPool| {
            let mut g = Graph::new_in(&p, pool);
            let x = g.input_row(&[1.0, -1.0]);
            let y = g.affine(x, ids[0], None, Activation::Tanh);
            let s = g.sum_all(y);
            let loss = g.mul(s, s);
            let (v, grads) = g.finish(loss);
            grads.release_into(pool);
            v
        };
        let v1 = run(&mut pool);
        let after_warmup = pool.stats().fresh_allocs;
        assert!(after_warmup > 0);
        let v2 = run(&mut pool);
        assert_eq!(v1, v2);
        assert_eq!(
            pool.stats().fresh_allocs,
            after_warmup,
            "steady-state step must allocate nothing"
        );
        assert!(pool.stats().reuses > 0);
        assert_eq!(pool.live(), 0, "all buffers must come home after the tape drops");
    }

    #[test]
    fn pooled_and_unpooled_runs_are_bit_identical() {
        let (p, ids) = params_with(&[
            ("w", Tensor::from_vec(2, 3, vec![0.3, -1.0, 0.5, 2.0, 0.1, -0.7])),
            ("b", Tensor::row(vec![0.1, -0.2, 0.3])),
        ]);
        let build = |g: &mut Graph<'_>| {
            let x = g.input_row(&[1.5, -2.5]);
            let y = g.affine(x, ids[0], Some(ids[1]), Activation::Sigmoid);
            let s = g.sum_all(y);
            g.mul(s, s)
        };
        let mut g1 = Graph::new(&p);
        let l1 = build(&mut g1);
        let (v1, gr1) = g1.finish(l1);

        let mut pool = TensorPool::new();
        // Dirty the pool so reuse actually exercises stale buffers.
        for _ in 0..3 {
            let mut g = Graph::new_in(&p, &mut pool);
            let l = build(&mut g);
            let (_, grads) = g.finish(l);
            grads.release_into(&mut pool);
        }
        let mut g2 = Graph::new_in(&p, &mut pool);
        let l2 = build(&mut g2);
        let (v2, gr2) = g2.finish(l2);

        assert_eq!(v1.to_bits(), v2.to_bits());
        for id in [ids[0], ids[1]] {
            let (a, b) = (gr1.grad(id).unwrap(), gr2.grad(id).unwrap());
            for (x, y) in a.data().iter().zip(b.data()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn affine_matches_composed_ops() {
        let (p, ids) = params_with(&[
            ("w", Tensor::from_vec(3, 2, vec![0.5, -0.2, 1.0, 0.3, -0.4, 0.8])),
            ("b", Tensor::row(vec![0.25, -0.5])),
        ]);
        let x_data = Tensor::from_vec(2, 3, vec![1.0, -1.0, 2.0, 0.5, 0.0, -2.0]);

        let mut g1 = Graph::new(&p);
        let x1 = g1.input(x_data.clone());
        let y1 = g1.affine(x1, ids[0], Some(ids[1]), Activation::Tanh);
        let s1 = g1.sum_all(y1);
        let (v1, gr1) = g1.finish(s1);

        let mut g2 = Graph::new(&p);
        let x2 = g2.input(x_data);
        let w = g2.param(ids[0]);
        let b = g2.param(ids[1]);
        let xw = g2.matmul(x2, w);
        let z = g2.add_row(xw, b);
        let y2 = g2.tanh(z);
        let s2 = g2.sum_all(y2);
        let (v2, gr2) = g2.finish(s2);

        assert!((v1 - v2).abs() < 1e-12);
        for id in [ids[0], ids[1]] {
            let (a, b) = (gr1.grad(id).unwrap(), gr2.grad(id).unwrap());
            for (x, y) in a.data().iter().zip(b.data()) {
                assert!((x - y).abs() < 1e-12, "affine grad mismatch: {x} vs {y}");
            }
        }
    }

    #[test]
    fn lstm_seq_matches_composed_gates() {
        let (hidden, din, len) = (3, 2, 3);
        let mk = |seed: usize, n: usize| {
            (0..n).map(|i| ((i + seed) as f64 * 0.37).sin() * 0.8).collect::<Vec<_>>()
        };
        let (p, ids) = params_with(&[
            ("wx", Tensor::from_vec(din, 4 * hidden, mk(1, din * 4 * hidden))),
            ("wh", Tensor::from_vec(hidden, 4 * hidden, mk(2, hidden * 4 * hidden))),
            ("b", Tensor::from_vec(1, 4 * hidden, mk(3, 4 * hidden))),
            ("x", Tensor::from_vec(len, din, mk(4, len * din))),
        ]);

        // Fused sequence op.
        let mut g1 = Graph::new(&p);
        let xs: Vec<NodeId> = (0..len).map(|t| g1.embed_lookup(ids[3], &[t])).collect();
        let hs = g1.lstm_seq(&xs, ids[0], ids[1], ids[2], hidden);
        let stacked = g1.concat_rows(&hs);
        let s1 = g1.sum_all(stacked);
        let (v1, gr1) = g1.finish(s1);

        // Composed reference: the per-step gate equations as elementary ops.
        let mut g2 = Graph::new(&p);
        let wx = g2.param(ids[0]);
        let wh = g2.param(ids[1]);
        let b = g2.param(ids[2]);
        let mut h = g2.input(Tensor::zeros(1, hidden));
        let mut c = g2.input(Tensor::zeros(1, hidden));
        let mut hs = Vec::new();
        for t in 0..len {
            let x = g2.embed_lookup(ids[3], &[t]);
            let xw = g2.matmul(x, wx);
            let hw = g2.matmul(h, wh);
            let pre0 = g2.add(xw, hw);
            let pre = g2.add_row(pre0, b);
            let i_pre = g2.slice_cols(pre, 0, hidden);
            let f_pre = g2.slice_cols(pre, hidden, 2 * hidden);
            let g_pre = g2.slice_cols(pre, 2 * hidden, 3 * hidden);
            let o_pre = g2.slice_cols(pre, 3 * hidden, 4 * hidden);
            let i = g2.sigmoid(i_pre);
            let f = g2.sigmoid(f_pre);
            let cand = g2.tanh(g_pre);
            let o = g2.sigmoid(o_pre);
            let fc = g2.mul(f, c);
            let ig = g2.mul(i, cand);
            c = g2.add(fc, ig);
            let c_tanh = g2.tanh(c);
            h = g2.mul(o, c_tanh);
            hs.push(h);
        }
        let stacked = g2.concat_rows(&hs);
        let s2 = g2.sum_all(stacked);
        let (v2, gr2) = g2.finish(s2);

        assert!((v1 - v2).abs() < 1e-12, "forward mismatch: {v1} vs {v2}");
        for &id in &ids {
            let (a, b) = (gr1.grad(id).unwrap(), gr2.grad(id).unwrap());
            for (x, y) in a.data().iter().zip(b.data()) {
                assert!((x - y).abs() < 1e-10, "lstm_seq grad mismatch: {x} vs {y}");
            }
        }
    }

    #[test]
    fn lstm_puts_one_node_per_sequence_and_layer_on_the_tape() {
        let mut p = Parameters::new();
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
        let lstm = crate::layers::Lstm::new(&mut p, &mut rng, "lstm", 3, 4, 2);
        let mut g = Graph::new(&p);
        let xs: Vec<NodeId> = (0..6).map(|t| g.input_row(&[t as f64, 1.0, -1.0])).collect();
        let hs = lstm.forward(&mut g, &xs);
        let count = |kind: OpKind| g.nodes.iter().filter(|n| n.op.kind() == kind).count();
        assert_eq!(count(OpKind::LstmCell), 2, "one sequence node per layer");
        assert_eq!(count(OpKind::LstmOut), 2 * 6, "one output row per step and layer");
        assert_eq!(g.num_nodes(), 6 + 2 * (1 + 6), "nothing else on the tape");
        assert_eq!(hs.len(), 6);
    }

    #[test]
    fn inplace_ops_steal_only_when_sole_consumer() {
        let (p, ids) = params_with(&[("w", Tensor::row(vec![2.0, -1.0]))]);
        let mut g = Graph::new(&p);
        let w = g.param(ids[0]);
        let a = g.scale(w, 2.0);
        // `a` has no consumers yet → in-place steal is allowed.
        let b = g.scale_inplace(a, 0.5);
        assert!(g.node_grad(a).is_none());
        assert_eq!(g.value(b).data(), &[2.0, -1.0]);
        // `b` now consumed by `s`, so an in-place op on `b` must fall back.
        let s = g.sum_all(b);
        let _also_uses_b = g.scale(b, 3.0);
        let d = g.scale_inplace(b, 5.0);
        assert_eq!(g.value(b).data(), &[2.0, -1.0], "fallback must copy");
        assert_eq!(g.value(d).data()[0], 10.0);
        let loss = g.mul(s, s);
        g.backward(loss);
        assert!(g.grads().grad(ids[0]).is_some());
    }

    #[test]
    #[should_panic(expected = "recycled by an in-place op")]
    fn reading_a_stolen_value_panics() {
        let (p, ids) = params_with(&[("w", Tensor::row(vec![1.0, 2.0]))]);
        let mut g = Graph::new(&p);
        let w = g.param(ids[0]);
        let a = g.scale(w, 2.0);
        let _b = g.scale_inplace(a, 3.0);
        let _ = g.value(a);
    }

    #[test]
    fn inplace_chain_matches_plain_ops() {
        let (p, ids) = params_with(&[("w", Tensor::row(vec![0.5, -1.5, 2.0]))]);
        let run = |inplace: bool| {
            let mut g = Graph::new(&p);
            let w = g.param(ids[0]);
            let x = g.input_row(&[1.0, 2.0, 3.0]);
            let t = g.mul(w, x);
            let sb = if inplace {
                let sc = g.scale_inplace(t, -0.5);
                let ac = g.add_inplace(sc, w);
                g.sub_inplace(ac, x)
            } else {
                let sc = g.scale(t, -0.5);
                let ac = g.add(sc, w);
                g.sub(ac, x)
            };
            let rl = g.relu(sb);
            let su = g.sum_all(rl);
            let loss = g.mul(su, su);
            g.finish(loss)
        };
        let (v1, gr1) = run(false);
        let (v2, gr2) = run(true);
        assert_eq!(v1.to_bits(), v2.to_bits());
        let (a, b) = (gr1.grad(ids[0]).unwrap(), gr2.grad(ids[0]).unwrap());
        for (x, y) in a.data().iter().zip(b.data()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
