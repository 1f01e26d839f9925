//! The temporal path encoder (§IV).
//!
//! Per edge `e_i` of a temporal path `tp = (p, t)`, the encoder builds
//! `x_{e_i} = [t_all, s_all(e_i)]` where:
//!
//! * `t_all` is the node2vec embedding of the departure time's node in the
//!   2016-node temporal graph (Eq. 2) — a *frozen* input, as in the paper;
//! * `s_all = [s_rn, s_type]` concatenates the frozen road-topology embedding
//!   (Eq. 5) with *trainable* embeddings of the four categorical edge features
//!   (Eq. 3–4).
//!
//! The sequence is encoded by an LSTM (Eq. 7) and mean-pooled into the TPR
//! (Eq. 8). The per-step LSTM outputs are the spatio-temporal edge
//! representations (STERs) consumed by the local WSC loss.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use wsccl_graphembed::{Node2VecConfig, RoadEmbeddings, TemporalEmbeddings};
use wsccl_nn::layers::{Embedding, Linear, Lstm, TransformerBlock};
use wsccl_nn::{kernels, GatherPart, Graph, InferTensor, NodeId, ParamId, Parameters};
use wsccl_roadnet::{EdgeFeatures, Path, RoadNetwork, RoadType};
use wsccl_traffic::SimTime;

/// Sequence model choice for the encoder. The paper uses an LSTM (Eq. 7) and
/// notes that "more advanced sequential models, e.g., Transformer" are drop-in
/// alternatives (§IV-C); both are provided.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SeqArch {
    Lstm,
    /// Pre-norm Transformer encoder with the given number of blocks.
    Transformer {
        blocks: usize,
    },
}

/// Encoder architecture parameters.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct EncoderConfig {
    /// Embedding widths for the four categorical features (paper: 64/32/16/16).
    pub d_rt: usize,
    pub d_l: usize,
    pub d_o: usize,
    pub d_ts: usize,
    /// node2vec dimension per road-network node; `s_rn` is twice this.
    pub topo_node_dim: usize,
    /// Temporal node2vec dimension (`d_tem`).
    pub d_tem: usize,
    /// LSTM hidden size = TPR dimension (`d_h`; paper: 128).
    pub hidden: usize,
    /// Stacked LSTM layers (paper: 2). Ignored for the Transformer variant.
    pub lstm_layers: usize,
    /// Sequence model (paper default: LSTM).
    pub seq_arch: SeqArch,
    /// If false, the temporal embedding is omitted entirely (the paper's
    /// WSCCL-NT ablation, Table VIII).
    pub use_temporal: bool,
    /// Inference-time aggregation view. Training always uses Eq. 8's mean —
    /// under the cosine-similarity losses the two views are *identical* (sum
    /// = |p| · mean, and cosine is scale-invariant). Downstream heads see the
    /// sum view by default because its magnitude carries path length, the
    /// dominant travel-time factor the paper's 128-dim encoder learns
    /// implicitly (see DESIGN.md §1 on reproduction-scale adaptations).
    pub sum_inference: bool,
    /// node2vec training budget for the two frozen embedding tables.
    pub node2vec_walks: usize,
    pub node2vec_epochs: usize,
}

impl Default for EncoderConfig {
    fn default() -> Self {
        Self {
            d_rt: 8,
            d_l: 4,
            d_o: 2,
            d_ts: 2,
            topo_node_dim: 8,
            d_tem: 16,
            hidden: 32,
            lstm_layers: 1,
            seq_arch: SeqArch::Lstm,
            use_temporal: true,
            node2vec_walks: 6,
            node2vec_epochs: 2,
            sum_inference: true,
        }
    }
}

impl EncoderConfig {
    /// Minimal widths for fast tests.
    pub fn tiny() -> Self {
        Self {
            d_rt: 4,
            d_l: 2,
            d_o: 2,
            d_ts: 2,
            topo_node_dim: 4,
            d_tem: 16,
            hidden: 16,
            lstm_layers: 1,
            seq_arch: SeqArch::Lstm,
            node2vec_walks: 4,
            node2vec_epochs: 1,
            use_temporal: true,
            sum_inference: true,
        }
    }

    /// Width of the spatial embedding `s_all` (Eq. 6).
    pub fn spatial_dim(&self) -> usize {
        2 * self.topo_node_dim + self.d_rt + self.d_l + self.d_o + self.d_ts
    }

    /// Width of each LSTM input `x_e = [t_all, s_all, phys]`.
    pub fn input_dim(&self) -> usize {
        self.spatial_dim() + PHYS_DIM + if self.use_temporal { self.d_tem } else { 0 }
    }
}

/// Width of the continuous physical edge features appended to `s_all`
/// (normalized length, log-length, free-flow traversal time). §IV-B's feature
/// list is explicitly non-exhaustive ("a number of spatial features,
/// including, e.g., road types, number of lanes"); these continuous features
/// carry the length information that the paper's larger encoder can infer
/// from its 128-dimensional recurrent state.
pub const PHYS_DIM: usize = 3;

/// The temporal path encoder with its frozen embedding tables.
///
/// Trainable state lives in an external [`Parameters`] store so the same
/// encoder definition can be instantiated for the main model and each
/// curriculum expert.
pub struct TemporalPathEncoder {
    cfg: EncoderConfig,
    /// Frozen: per-edge road topology embedding `s_rn` (Eq. 5).
    topo: Vec<Vec<f64>>,
    /// Frozen: temporal embeddings over the 2016-node temporal graph.
    temporal: Option<TemporalEmbeddings>,
    /// Per-edge categorical feature indices, precomputed from the network.
    feat: Vec<EdgeFeatures>,
    /// Per-edge continuous physical features (see [`PHYS_DIM`]).
    phys: Vec<[f64; PHYS_DIM]>,
}

/// The trainable weights of the sequence model.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum SeqWeights {
    Lstm(Lstm),
    Transformer {
        input_proj: Linear,
        /// Learned positional embedding table (capped at [`MAX_PATH_LEN`]).
        positions: ParamId,
        blocks: Vec<TransformerBlock>,
    },
}

/// Longest path the Transformer position table supports (longer paths share
/// the final position embedding).
pub const MAX_PATH_LEN: usize = 96;

/// The trainable weights of one encoder instance.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct EncoderWeights {
    emb_rt: Embedding,
    emb_l: Embedding,
    emb_o: Embedding,
    emb_ts: Embedding,
    seq: SeqWeights,
}

impl TemporalPathEncoder {
    /// Build the frozen parts: runs node2vec on the road network and (if
    /// enabled) the temporal graph. Deterministic per seed.
    pub fn new(net: &RoadNetwork, cfg: EncoderConfig, seed: u64) -> Self {
        let n2v_road = Node2VecConfig {
            dim: cfg.topo_node_dim,
            walks_per_node: cfg.node2vec_walks,
            epochs: cfg.node2vec_epochs,
            seed: seed ^ 0x0AD,
            ..Default::default()
        };
        let road = RoadEmbeddings::train(net, &n2v_road);
        let topo: Vec<Vec<f64>> = (0..net.num_edges())
            .map(|i| road.edge_embedding(net, wsccl_roadnet::EdgeId(i as u32)))
            .collect();
        let temporal = cfg.use_temporal.then(|| {
            let n2v_t = Node2VecConfig {
                dim: cfg.d_tem,
                walks_per_node: cfg.node2vec_walks,
                epochs: cfg.node2vec_epochs,
                seed: seed ^ 0x7E4,
                ..Default::default()
            };
            TemporalEmbeddings::train(&n2v_t)
        });
        let feat = net.edges().iter().map(|e| e.features).collect();
        let phys = net
            .edges()
            .iter()
            .map(|e| {
                let free_flow = e.length / e.features.road_type.free_flow_speed();
                [e.length / 1000.0, (1.0 + e.length).ln() / 8.0, free_flow / 60.0]
            })
            .collect();
        Self { cfg, topo, temporal, feat, phys }
    }

    pub fn config(&self) -> &EncoderConfig {
        &self.cfg
    }

    /// Edges of the road network the frozen tables were built over; every
    /// embedded path's `EdgeId`s must be below this.
    pub fn num_edges(&self) -> usize {
        self.feat.len()
    }

    /// TPR dimensionality (`d_h`).
    pub fn out_dim(&self) -> usize {
        self.cfg.hidden
    }

    /// Register fresh trainable weights in a parameter store.
    pub fn init_weights(&self, params: &mut Parameters, seed: u64) -> EncoderWeights {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xE6C0);
        EncoderWeights {
            emb_rt: Embedding::new(params, &mut rng, "enc.rt", RoadType::ALL.len(), self.cfg.d_rt),
            emb_l: Embedding::new(
                params,
                &mut rng,
                "enc.lanes",
                EdgeFeatures::NUM_LANE_CATEGORIES,
                self.cfg.d_l,
            ),
            emb_o: Embedding::new(params, &mut rng, "enc.oneway", 2, self.cfg.d_o),
            emb_ts: Embedding::new(params, &mut rng, "enc.signals", 2, self.cfg.d_ts),
            seq: match self.cfg.seq_arch {
                SeqArch::Lstm => SeqWeights::Lstm(Lstm::new(
                    params,
                    &mut rng,
                    "enc.lstm",
                    self.cfg.input_dim(),
                    self.cfg.hidden,
                    self.cfg.lstm_layers,
                )),
                SeqArch::Transformer { blocks } => SeqWeights::Transformer {
                    input_proj: Linear::new(
                        params,
                        &mut rng,
                        "enc.proj",
                        self.cfg.input_dim(),
                        self.cfg.hidden,
                    ),
                    positions: params.register(
                        "enc.pos",
                        wsccl_nn::init::normal(&mut rng, MAX_PATH_LEN, self.cfg.hidden, 0.1),
                    ),
                    blocks: (0..blocks)
                        .map(|b| {
                            TransformerBlock::new(
                                params,
                                &mut rng,
                                &format!("enc.block{b}"),
                                self.cfg.hidden,
                                2,
                            )
                        })
                        .collect(),
                },
            },
        }
    }

    /// Encode a temporal path. Returns the TPR node and the per-edge STER
    /// nodes (Eq. 7–8).
    pub fn forward(
        &self,
        g: &mut Graph<'_>,
        w: &EncoderWeights,
        path: &Path,
        departure: SimTime,
    ) -> (NodeId, Vec<NodeId>) {
        assert!(!path.is_empty(), "cannot encode an empty path");
        // Frozen temporal embedding, shared across the path's edges. Each
        // edge's input row `[t | topo | rt | l | o | ts | phys]` is assembled
        // by one fused `gather_concat_row` node — constant rows and the four
        // categorical table rows in a single tape op instead of a per-part
        // `EmbedLookup`/`Input` chain plus a `ConcatCols`.
        let t_all = self.temporal.as_ref().map(|t| t.embed(departure));

        let mut inputs = Vec::with_capacity(path.len());
        for &e in path.edges() {
            let f = &self.feat[e.index()];
            let mut parts = Vec::with_capacity(7);
            if let Some(t) = t_all {
                parts.push(GatherPart::Const(t));
            }
            parts.push(GatherPart::Const(&self.topo[e.index()]));
            parts.push(GatherPart::Row(w.emb_rt.param_id(), f.road_type.index()));
            parts.push(GatherPart::Row(w.emb_l.param_id(), f.lanes_index()));
            parts.push(GatherPart::Row(w.emb_o.param_id(), f.one_way as usize));
            parts.push(GatherPart::Row(w.emb_ts.param_id(), f.signals as usize));
            parts.push(GatherPart::Const(&self.phys[e.index()]));
            inputs.push(g.gather_concat_row(&parts));
        }
        let sters = match &w.seq {
            SeqWeights::Lstm(lstm) => lstm.forward(g, &inputs),
            SeqWeights::Transformer { input_proj, positions, blocks } => {
                let stacked = g.concat_rows(&inputs);
                let projected = input_proj.forward(g, stacked);
                let pos_idx: Vec<usize> =
                    (0..inputs.len()).map(|i| i.min(MAX_PATH_LEN - 1)).collect();
                let pos = g.embed_lookup(*positions, &pos_idx);
                let mut h = g.add(projected, pos);
                for block in blocks {
                    h = block.forward(g, h);
                }
                (0..inputs.len()).map(|i| g.slice_rows(h, i, i + 1)).collect()
            }
        };
        let stacked = g.concat_rows(&sters);
        let tpr = g.mean_rows(stacked);
        (tpr, sters)
    }

    /// Inference: encode a path to a plain vector (builds a throwaway graph).
    ///
    /// Applies the configured aggregation view: mean (Eq. 8) or its
    /// length-scaled sum equivalent (`sum_inference`).
    pub fn embed(
        &self,
        params: &Parameters,
        w: &EncoderWeights,
        path: &Path,
        departure: SimTime,
    ) -> Vec<f64> {
        let mut g = Graph::new(params);
        let (tpr, _) = self.forward(&mut g, w, path, departure);
        let mut v = g.value(tpr).data().to_vec();
        if self.cfg.sum_inference {
            let n = path.len() as f64;
            v.iter_mut().for_each(|x| *x *= n);
        }
        v
    }

    /// Freeze trained weights into the f32 inference representation used by
    /// the tape-free [`TemporalPathEncoder::embed_frozen`] fast path.
    ///
    /// The per-edge input row is constant once training ends (topology,
    /// categorical embeddings, and physical features don't depend on the
    /// departure time), so it is precomputed per edge — inference then only
    /// prepends the temporal row. Returns `None` for the Transformer
    /// architecture, which keeps using the f64 tape.
    pub fn freeze(&self, params: &Parameters, w: &EncoderWeights) -> Option<FrozenEncoder> {
        let SeqWeights::Lstm(lstm) = &w.seq else { return None };
        let t_dim = if self.cfg.use_temporal { self.cfg.d_tem } else { 0 };
        let input_dim = self.cfg.input_dim();
        let s_dim = input_dim - t_dim;
        let num_edges = self.feat.len();

        let emb_row = |emb: &Embedding, idx: usize| -> Vec<f64> {
            params.value(emb.param_id()).row_slice(idx).to_vec()
        };
        let mut static_rows = Vec::with_capacity(num_edges * s_dim);
        for e in 0..num_edges {
            let f = &self.feat[e];
            static_rows.extend(self.topo[e].iter().map(|&v| v as f32));
            static_rows.extend(emb_row(&w.emb_rt, f.road_type.index()).iter().map(|&v| v as f32));
            static_rows.extend(emb_row(&w.emb_l, f.lanes_index()).iter().map(|&v| v as f32));
            static_rows.extend(emb_row(&w.emb_o, f.one_way as usize).iter().map(|&v| v as f32));
            static_rows.extend(emb_row(&w.emb_ts, f.signals as usize).iter().map(|&v| v as f32));
            static_rows.extend(self.phys[e].iter().map(|&v| v as f32));
        }
        debug_assert_eq!(static_rows.len(), num_edges * s_dim);

        let layers: Vec<FrozenLstmLayer> = lstm
            .layer_params()
            .iter()
            .map(|&(wx, wh, b)| FrozenLstmLayer {
                in_dim: params.value(wx).rows(),
                wx: InferTensor::from_tensor(params.value(wx)),
                wh: InferTensor::from_tensor(params.value(wh)),
                b: params.value(b).data().iter().map(|&v| v as f32).collect(),
            })
            .collect();

        // The layer-0 input transform `x(e)·Wₓ` depends only on the edge —
        // the static feature row is fixed per edge once the weights freeze —
        // so it is precomputed here for every edge in one matmul. Inference
        // then replaces a per-timestep `s_dim × 4h` matmul with a 4h-wide
        // vector add. Costs `num_edges × 4h` f32 of memory (vs
        // `num_edges × s_dim` for the raw rows), a deliberate serving-side
        // trade.
        let gates = 4 * self.cfg.hidden;
        let mut edge_gates = vec![0f32; num_edges * gates];
        kernels::active().matmul_acc_f32(
            num_edges,
            s_dim,
            gates,
            &static_rows,
            &layers[0].wx.data()[t_dim * gates..],
            &mut edge_gates,
        );

        Some(FrozenEncoder {
            hidden: self.cfg.hidden,
            t_dim,
            sum_inference: self.cfg.sum_inference,
            edge_gates,
            layers,
        })
    }

    /// Tape-free f32 inference: one path embedding entirely through the
    /// active [`wsccl_nn::kernels`] backend's f32 kernels.
    ///
    /// Matches [`TemporalPathEncoder::embed`] up to f32 rounding — the drift
    /// bound is asserted by the `f32_embedding_drift` test and documented in
    /// DESIGN.md.
    pub fn embed_frozen(
        &self,
        frozen: &FrozenEncoder,
        path: &Path,
        departure: SimTime,
    ) -> Vec<f64> {
        assert!(!path.is_empty(), "cannot encode an empty path");
        let kn = kernels::active();
        let (hidden, t_dim) = (frozen.hidden, frozen.t_dim);
        let nl = frozen.layers.len();
        let gates = 4 * hidden;

        // The temporal row is constant over the whole path, so its gate
        // contribution is folded into the layer-0 bias once — `z₀ = b + t·Wₜ`
        // (Wₜ is the first `t_dim` rows of wx) — instead of re-multiplied at
        // every edge.
        let mut z0 = frozen.layers[0].b.clone();
        if t_dim > 0 {
            let t_row: Vec<f32> = self
                .temporal
                .as_ref()
                .expect("t_dim > 0 implies temporal table")
                .embed(departure)
                .iter()
                .map(|&v| v as f32)
                .collect();
            kn.matmul_acc_f32(1, t_dim, gates, &t_row, frozen.layers[0].wx.data(), &mut z0);
        }

        // Flat per-layer state, plus one input row reused across layers.
        let mut h = vec![0f32; nl * hidden];
        let mut c = vec![0f32; nl * hidden];
        let mut z = vec![0f32; gates];
        let mut cur = vec![0f32; hidden];
        let mut acc = vec![0f32; hidden];

        for (t, &e) in path.edges().iter().enumerate() {
            let idx = e.index();
            for (li, layer) in frozen.layers.iter().enumerate() {
                if li == 0 {
                    // Layer-0 input transform is a table row (baked at
                    // freeze time): z = z₀ + x(e)·Wₓ.
                    z.copy_from_slice(&z0);
                    kn.add_assign_f32(&mut z, &frozen.edge_gates[idx * gates..(idx + 1) * gates]);
                } else {
                    debug_assert_eq!(layer.in_dim, hidden);
                    z.copy_from_slice(&layer.b);
                    kn.matmul_acc_f32(1, hidden, gates, &cur, layer.wx.data(), &mut z);
                }
                // h is exactly zero at the first step, so the recurrent
                // matmul contributes nothing; skipped identically in the
                // batched path (bitwise parity).
                if t > 0 {
                    kn.matmul_acc_f32(
                        1,
                        hidden,
                        gates,
                        &h[li * hidden..(li + 1) * hidden],
                        layer.wh.data(),
                        &mut z,
                    );
                }
                kn.lstm_gates_infer_f32(
                    hidden,
                    &z,
                    &mut c[li * hidden..(li + 1) * hidden],
                    &mut h[li * hidden..(li + 1) * hidden],
                );
                if li + 1 < nl {
                    cur.copy_from_slice(&h[li * hidden..(li + 1) * hidden]);
                }
            }
            kn.add_assign_f32(&mut acc, &h[(nl - 1) * hidden..nl * hidden]);
        }

        // Mean over steps (Eq. 8); the sum view is mean × len, i.e. no scale.
        if !frozen.sum_inference {
            kn.scale_assign_f32(&mut acc, 1.0 / path.len() as f32);
        }
        acc.iter().map(|&v| f64::from(v)).collect()
    }

    /// Batched [`TemporalPathEncoder::embed_frozen`]: `B` temporal paths
    /// through **one** fused f32 forward pass per timestep instead of `B`
    /// strided ones.
    ///
    /// Queries are processed in descending path-length order so the active
    /// set at every timestep is a contiguous prefix — the per-layer matmuls
    /// then run over `(n_active × dim)` row blocks with no gather/scatter.
    /// Every kernel involved computes each output row independently of the
    /// batch height, so each returned embedding is **bitwise identical** to
    /// the corresponding single-query [`TemporalPathEncoder::embed_frozen`]
    /// call under either backend (asserted by the `embed_batch` parity test).
    ///
    /// `scratch` holds the reusable batch buffers; a long-running server
    /// allocates it once and feeds every batch through it.
    pub fn embed_frozen_batch(
        &self,
        frozen: &FrozenEncoder,
        queries: &[(&Path, SimTime)],
        scratch: &mut BatchScratch,
    ) -> Vec<Vec<f64>> {
        let b = queries.len();
        if b == 0 {
            return Vec::new();
        }
        for (path, _) in queries {
            assert!(!path.is_empty(), "cannot encode an empty path");
        }
        let kn = kernels::active();
        let (hidden, t_dim) = (frozen.hidden, frozen.t_dim);
        let nl = frozen.layers.len();
        let gates = 4 * hidden;

        let s = scratch;
        // Descending length; stable, so equal-length queries keep their order.
        s.order.clear();
        s.order.extend(0..b);
        s.order.sort_by_key(|&i| std::cmp::Reverse(queries[i].0.len()));

        // Frozen temporal rows, one per query (narrowed once, like
        // `embed_frozen`), folded straight into the per-query layer-0 bias:
        // `z₀[r] = b + t[r]·Wₜ` in one batched matmul, so the temporal part
        // of wx is never touched again inside the timestep loop.
        s.t_rows.clear();
        s.z0.clear();
        for _ in 0..b {
            s.z0.extend_from_slice(&frozen.layers[0].b);
        }
        if t_dim > 0 {
            let temporal = self.temporal.as_ref().expect("t_dim > 0 implies temporal table");
            for &qi in &s.order {
                s.t_rows.extend(temporal.embed(queries[qi].1).iter().map(|&v| v as f32));
            }
            kn.matmul_acc_f32(b, t_dim, gates, &s.t_rows, frozen.layers[0].wx.data(), &mut s.z0);
        }

        s.z.clear();
        s.z.resize(if nl > 1 { b * gates } else { 0 }, 0.0);
        s.h.clear();
        s.h.resize(nl * b * hidden, 0.0);
        s.c.clear();
        s.c.resize(nl * b * hidden, 0.0);
        s.acc.clear();
        s.acc.resize(b * hidden, 0.0);

        let max_len = queries[s.order[0]].0.len();

        // Pre-assemble the layer-0 pre-activations for the whole timestep ×
        // row plane: `z = z₀[r] + edge_gates[e]` — a copy plus a 4h-wide
        // vector add per (step, row) pair, since the input transform was
        // baked into the frozen per-edge table. Rows are laid out step-major
        // (step t's active prefix starts at `row_off[t]`); the per-element
        // arithmetic (z₀ init, then the same adds) is exactly what
        // `embed_frozen` computes, keeping bitwise parity. Only the
        // recurrent h·Wh term, which depends on the previous step's output,
        // stays in the loop.
        s.row_off.clear();
        s.zpre.clear();
        {
            let mut n_act = b;
            for t in 0..max_len {
                while n_act > 0 && queries[s.order[n_act - 1]].0.len() <= t {
                    n_act -= 1;
                }
                s.row_off.push(s.zpre.len() / gates);
                for (r, &qi) in s.order[..n_act].iter().enumerate() {
                    let e = queries[qi].0.edges()[t].index();
                    let at = s.zpre.len();
                    s.zpre.extend_from_slice(&s.z0[r * gates..(r + 1) * gates]);
                    kn.add_assign_f32(
                        &mut s.zpre[at..],
                        &frozen.edge_gates[e * gates..(e + 1) * gates],
                    );
                }
            }
        }

        let mut n_active = b;
        for t in 0..max_len {
            // Shrink the active prefix: orders are length-sorted, so paths
            // retire from the back.
            while n_active > 0 && queries[s.order[n_active - 1]].0.len() <= t {
                n_active -= 1;
            }
            debug_assert!(n_active > 0);

            for (li, layer) in frozen.layers.iter().enumerate() {
                let z_t: &mut [f32] = if li == 0 {
                    // Input-side pre-activations were fused above; step t's
                    // rows start at row_off[t].
                    let r0 = s.row_off[t] * gates;
                    &mut s.zpre[r0..r0 + n_active * gates]
                } else {
                    debug_assert_eq!(layer.in_dim, hidden);
                    for r in 0..n_active {
                        s.z[r * gates..(r + 1) * gates].copy_from_slice(&layer.b);
                    }
                    kn.matmul_acc_f32(
                        n_active,
                        hidden,
                        gates,
                        &s.h[(li - 1) * b * hidden..(li - 1) * b * hidden + n_active * hidden],
                        layer.wx.data(),
                        &mut s.z[..n_active * gates],
                    );
                    &mut s.z[..n_active * gates]
                };
                let (h_l, c_l) = (
                    &mut s.h[li * b * hidden..li * b * hidden + n_active * hidden],
                    &mut s.c[li * b * hidden..li * b * hidden + n_active * hidden],
                );
                // h ≡ 0 at the first step; skipped identically in
                // `embed_frozen` (bitwise parity).
                if t > 0 {
                    kn.matmul_acc_f32(n_active, hidden, gates, h_l, layer.wh.data(), z_t);
                }
                kn.lstm_gates_infer_batch_f32(n_active, hidden, z_t, c_l, h_l);
            }
            kn.add_assign_f32(
                &mut s.acc[..n_active * hidden],
                &s.h[(nl - 1) * b * hidden..(nl - 1) * b * hidden + n_active * hidden],
            );
        }

        // Unsort and widen; the mean view scales each row by its own length.
        let mut out = vec![Vec::new(); b];
        for (r, &qi) in s.order.iter().enumerate() {
            let row = &mut s.acc[r * hidden..(r + 1) * hidden];
            if !frozen.sum_inference {
                kn.scale_assign_f32(row, 1.0 / queries[qi].0.len() as f32);
            }
            out[qi] = row.iter().map(|&v| f64::from(v)).collect();
        }
        out
    }
}

/// Reusable buffers for [`TemporalPathEncoder::embed_frozen_batch`]. One
/// instance per serving loop; every field is length-reset per batch, so the
/// steady state allocates nothing.
#[derive(Default)]
pub struct BatchScratch {
    /// Query indices in descending path-length order.
    order: Vec<usize>,
    /// Per-query narrowed temporal rows (`B × t_dim`), in `order`.
    t_rows: Vec<f32>,
    /// Per-query layer-0 gate bias with the temporal contribution folded in
    /// (`B × 4h`), in `order`.
    z0: Vec<f32>,
    /// Fused-row start (in rows) of each timestep's active block within
    /// `zpre`.
    row_off: Vec<usize>,
    /// Layer-0 gate pre-activations for every (timestep, active row) pair
    /// (`Σ lengths × 4h`): z₀ + the frozen per-edge input row, the
    /// recurrent term accumulated in-place per step. Peak scratch memory is
    /// `≈ Σ lengths × 16h` bytes — a 16 × 200-edge batch at h = 32 is ~1.6 MB.
    zpre: Vec<f32>,
    /// Gate pre-activations for layers above 0 (`B × 4h`; empty when the
    /// stack is a single layer).
    z: Vec<f32>,
    /// Hidden state per layer (`layers × B × h`, layer-major).
    h: Vec<f32>,
    /// Cell state per layer (`layers × B × h`).
    c: Vec<f32>,
    /// Running TPR sums (`B × h`).
    acc: Vec<f32>,
}

/// One LSTM layer's weights, narrowed to f32 (`[i|f|g|o]` gate packing
/// unchanged).
struct FrozenLstmLayer {
    in_dim: usize,
    wx: InferTensor,
    wh: InferTensor,
    b: Vec<f32>,
}

/// Trained encoder state narrowed to f32 for tape-free single-path inference
/// (see [`TemporalPathEncoder::freeze`]). Immutable and `Sync`: any number of
/// threads can embed concurrently through a shared reference.
pub struct FrozenEncoder {
    hidden: usize,
    /// Temporal prefix width (0 for the WSCCL-NT ablation).
    t_dim: usize,
    sum_inference: bool,
    /// `num_edges × 4h` precomputed layer-0 input pre-activations
    /// `x(e)·Wₓ` — the static feature row of an edge never changes once
    /// frozen, so its whole gate contribution is baked at freeze time (see
    /// [`TemporalPathEncoder::freeze`]).
    edge_gates: Vec<f32>,
    layers: Vec<FrozenLstmLayer>,
}

impl FrozenEncoder {
    /// TPR dimensionality.
    pub fn dim(&self) -> usize {
        self.hidden
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsccl_roadnet::CityProfile;

    fn setup() -> (RoadNetwork, TemporalPathEncoder) {
        let net = CityProfile::Aalborg.generate(2);
        let enc = TemporalPathEncoder::new(&net, EncoderConfig::tiny(), 2);
        (net, enc)
    }

    fn some_path(net: &RoadNetwork, len: usize) -> Path {
        // Greedy walk from node 0.
        let mut edges = Vec::new();
        let mut cur = wsccl_roadnet::NodeId(0);
        for _ in 0..len {
            let e = net.out_edges(cur)[0];
            edges.push(e);
            cur = net.edge(e).to;
        }
        Path::new(net, edges).expect("valid walk")
    }

    #[test]
    fn tpr_has_configured_dimension() {
        let (net, enc) = setup();
        let mut params = Parameters::new();
        let w = enc.init_weights(&mut params, 1);
        let path = some_path(&net, 5);
        let v = enc.embed(&mut params, &w, &path, SimTime::from_hm(0, 8, 0));
        assert_eq!(v.len(), enc.out_dim());
        assert!(v.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn departure_time_changes_the_representation() {
        let (net, enc) = setup();
        let mut params = Parameters::new();
        let w = enc.init_weights(&mut params, 1);
        let path = some_path(&net, 6);
        let morning = enc.embed(&mut params, &w, &path, SimTime::from_hm(0, 8, 0));
        let night = enc.embed(&mut params, &w, &path, SimTime::from_hm(0, 2, 0));
        let diff: f64 = morning.iter().zip(&night).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 1e-6, "temporal input should affect the TPR");
    }

    #[test]
    fn nt_variant_ignores_departure_time() {
        let net = CityProfile::Aalborg.generate(2);
        let cfg = EncoderConfig { use_temporal: false, ..EncoderConfig::tiny() };
        let enc = TemporalPathEncoder::new(&net, cfg, 2);
        let mut params = Parameters::new();
        let w = enc.init_weights(&mut params, 1);
        let path = some_path(&net, 6);
        let a = enc.embed(&mut params, &w, &path, SimTime::from_hm(0, 8, 0));
        let b = enc.embed(&mut params, &w, &path, SimTime::from_hm(3, 22, 0));
        assert_eq!(a, b, "WSCCL-NT must be time-invariant");
    }

    #[test]
    fn sters_match_path_length_and_feed_gradients() {
        let (net, enc) = setup();
        let mut params = Parameters::new();
        let w = enc.init_weights(&mut params, 1);
        let path = some_path(&net, 4);
        let mut g = Graph::new(&params);
        let (tpr, sters) = enc.forward(&mut g, &w, &path, SimTime::from_hm(1, 9, 0));
        assert_eq!(sters.len(), 4);
        let loss = g.sum_all(tpr);
        g.backward(loss);
        let touched = params
            .ids()
            .filter(|&id| {
                g.grads().grad(id).is_some_and(|t| t.data().iter().any(|v| v.abs() > 0.0))
            })
            .count();
        assert!(touched > 0, "backward should reach trainable weights");
    }

    #[test]
    fn different_paths_embed_differently() {
        let (net, enc) = setup();
        let mut params = Parameters::new();
        let w = enc.init_weights(&mut params, 1);
        let p1 = some_path(&net, 4);
        let p2 = some_path(&net, 9);
        let t = SimTime::from_hm(2, 10, 0);
        let a = enc.embed(&mut params, &w, &p1, t);
        let b = enc.embed(&mut params, &w, &p2, t);
        assert_ne!(a, b);
    }
}

#[cfg(test)]
mod transformer_tests {
    use super::*;
    use wsccl_roadnet::CityProfile;

    fn some_path(net: &RoadNetwork, len: usize) -> Path {
        let mut edges = Vec::new();
        let mut cur = wsccl_roadnet::NodeId(0);
        for _ in 0..len {
            let e = net.out_edges(cur)[0];
            edges.push(e);
            cur = net.edge(e).to;
        }
        Path::new(net, edges).expect("valid walk")
    }

    #[test]
    fn transformer_encoder_produces_valid_tprs() {
        let net = CityProfile::Aalborg.generate(2);
        let cfg =
            EncoderConfig { seq_arch: SeqArch::Transformer { blocks: 1 }, ..EncoderConfig::tiny() };
        let enc = TemporalPathEncoder::new(&net, cfg, 2);
        let mut params = Parameters::new();
        let w = enc.init_weights(&mut params, 1);
        let path = some_path(&net, 6);
        let v = enc.embed(&mut params, &w, &path, SimTime::from_hm(0, 8, 0));
        assert_eq!(v.len(), enc.out_dim());
        assert!(v.iter().all(|x| x.is_finite()));
        // Time-sensitive, like the LSTM variant.
        let u = enc.embed(&mut params, &w, &path, SimTime::from_hm(0, 2, 0));
        assert_ne!(v, u);
    }

    #[test]
    fn transformer_gradients_flow_end_to_end() {
        let net = CityProfile::Aalborg.generate(2);
        let cfg =
            EncoderConfig { seq_arch: SeqArch::Transformer { blocks: 2 }, ..EncoderConfig::tiny() };
        let enc = TemporalPathEncoder::new(&net, cfg, 2);
        let mut params = Parameters::new();
        let w = enc.init_weights(&mut params, 1);
        let path = some_path(&net, 5);
        let mut g = Graph::new(&params);
        let (tpr, sters) = enc.forward(&mut g, &w, &path, SimTime::from_hm(1, 9, 0));
        assert_eq!(sters.len(), 5);
        let loss = g.sum_all(tpr);
        g.backward(loss);
        let touched = params
            .ids()
            .filter(|&id| {
                g.grads().grad(id).is_some_and(|t| t.data().iter().any(|v| v.abs() > 0.0))
            })
            .count();
        assert!(touched > params.len() / 2, "{touched} of {}", params.len());
    }
}
