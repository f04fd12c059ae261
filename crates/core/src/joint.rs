//! Joint models (§III-C and §IV-A6 ii): Joint-WB with its signal
//! enhancement and exchange mechanisms, and the joint baselines
//! (Naive-Join, Con-/Ave-/Att-Extractor, Att-Extractor+Att-Generator,
//! Pip-Extractor+Pip-Generator).
//!
//! ## Interpretation notes (documented deviations)
//!
//! The paper leaves several shapes under-specified; we implement them as:
//!
//! * The informative section predictor `P` (eq. 13) is the paper's Markov
//!   bilinear form `σ(c_{j−1} W¹ c_j + c_j W² c_{j+1})` over sentence
//!   embeddings; boundaries clamp to the first/last sentence. `P` is
//!   supervised with the corpus' informative labels (the paper's total loss
//!   omits this term, but `p_j` needs supervision to "provide signals about
//!   the location of informative sections").
//! * `E^b` integrates token representations by mean-pooling before the dense
//!   layer (the paper concatenates all `l` token vectors, which has no fixed
//!   width); `Q^b` concatenates the decoder states padded to
//!   `max_topic_len`, which *is* fixed-width.
//! * The dual-aware attentions (`A_E`, eqs. 14–17; `A_G`, eqs. 18–19)
//!   produce one weight per token/sentence; we apply them as sigmoid gates
//!   and concatenate the gated section-aware representation to the base
//!   representation, which keeps gradients flowing to all three parts.

use crate::config::ModelConfig;
use crate::generator::sentence_reps;
use crate::trainer::TrainableModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use wb_corpus::{Example, NUM_TAGS};
use wb_nn::{BertConfig, BiLstm, Decoder, Dense, Embedder, EmbedderKind};
use wb_tensor::{Graph, Initializer, ParamId, Params, Tensor, Var};

/// The joint-model grid of Tables VIII/IX.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum JointVariant {
    /// Two single-task heads trained by summing their losses.
    NaiveJoin,
    /// Extractor concatenated with the final decoder state [18].
    ConExtractor,
    /// Extractor concatenated with the averaged decoder states [18].
    AveExtractor,
    /// Topic-aware extractor via attention (no section awareness).
    AttExtractor,
    /// Topic-aware extractor + key-attributes-aware generator.
    AttBoth,
    /// Pipelined topic/attr-dependent then section-dependent learning.
    PipBoth,
    /// The full Joint-WB model.
    JointWb,
}

impl JointVariant {
    /// Display name used in result tables.
    pub fn name(self) -> &'static str {
        match self {
            JointVariant::NaiveJoin => "Naive-Join",
            JointVariant::ConExtractor => "Con-Extractor",
            JointVariant::AveExtractor => "Ave-Extractor",
            JointVariant::AttExtractor => "Att-Extractor",
            JointVariant::AttBoth => "Att-Extractor+Att-Generator",
            JointVariant::PipBoth => "Pip-Extractor+Pip-Generator",
            JointVariant::JointWb => "Joint-WB",
        }
    }

    fn uses_section_predictor(self) -> bool {
        matches!(self, JointVariant::PipBoth | JointVariant::JointWb)
    }

    /// Whether the extractor receives any topic signal (all variants but
    /// Naive-Join).
    pub fn topic_aware_extractor(self) -> bool {
        !matches!(self, JointVariant::NaiveJoin)
    }

    fn attr_aware_generator(self) -> bool {
        matches!(self, JointVariant::AttBoth | JointVariant::PipBoth | JointVariant::JointWb)
    }

    fn gate_style_extractor(self) -> bool {
        matches!(
            self,
            JointVariant::AttExtractor
                | JointVariant::AttBoth
                | JointVariant::PipBoth
                | JointVariant::JointWb
        )
    }
}

/// A jointly trained extractor + generator (+ section predictor).
pub struct JointModel {
    params: Params,
    variant: JointVariant,
    embedder: Embedder,
    e_bilstm: BiLstm,
    e_head: Dense,
    g_bilstm: BiLstm,
    decoder: Decoder,
    /// Markov bilinear forms of the section predictor (eq. 13).
    p_w: Option<(ParamId, ParamId)>,
    /// Section-injection denses for `C_E^b` / `C_G^b` (eqs. 17, 19).
    sec_e: Option<Dense>,
    sec_g: Option<Dense>,
    /// Topic integration `W_Q` (eq. 16) and the gate bilinear `W_AE`.
    w_q: Option<Dense>,
    w_ae: Option<ParamId>,
    /// Attribute integration `W_E` (eq. 18), its projection and gate.
    w_e: Option<Dense>,
    w_eg: Option<Dense>,
    w_ag: Option<ParamId>,
    cfg: ModelConfig,
}

/// What one [`JointModel::infer`] pass over a sub-document yields.
#[derive(Debug, Clone, PartialEq)]
pub struct Inference {
    /// Predicted BIO tags, one per token.
    pub tags: Vec<u8>,
    /// The beam-searched topic phrase (without `[EOS]`), when requested.
    pub topic: Option<Vec<u32>>,
    /// Informative-section flags, one per sentence, for variants with a
    /// section predictor.
    pub sections: Option<Vec<bool>>,
}

/// Everything a joint forward pass produces.
pub struct JointForward {
    /// BIO logits `[T, 3]`.
    pub e_logits: Var,
    /// Generation logits `[n, vocab]` (teacher-forced) or the first-pass
    /// logits at inference.
    pub g_logits: Var,
    /// Section logits `[m, 2]` when the variant has a section predictor.
    pub section_logits: Option<Var>,
    /// Shared encoder token representations `[T, dim]` (Tri-Distill's
    /// shared hidden states).
    pub shared: Var,
    /// Hidden token representations `H^e = C_E`.
    pub hidden_e: Var,
    /// Hidden sentence representations `H^g = C_G`.
    pub hidden_g: Var,
}

impl JointModel {
    /// Builds a joint model of the given variant (always on the BERTSUM
    /// embedder — Joint-WB "is built on the BERT_base model").
    pub fn new(variant: JointVariant, cfg: ModelConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = Params::new();
        let bert_cfg = BertConfig {
            vocab: cfg.vocab,
            dim: cfg.dim,
            layers: cfg.bert_layers,
            max_len: cfg.max_len,
            dropout: cfg.dropout * 0.5,
        };
        let embedder =
            Embedder::new(&mut params, &mut rng, "emb", EmbedderKind::BertSum, bert_cfg);
        let h2 = 2 * cfg.hidden;
        let e_bilstm = BiLstm::new(&mut params, &mut rng, "e.bilstm", cfg.dim, cfg.hidden);
        let g_bilstm = BiLstm::new(&mut params, &mut rng, "g.bilstm", cfg.dim, cfg.hidden);
        let decoder =
            Decoder::new(&mut params, &mut rng, "dec", cfg.vocab, cfg.dim, h2, cfg.dec_hidden);

        let p_w = variant.uses_section_predictor().then(|| {
            (
                params.add_init(
                    "p.w1",
                    &[cfg.dim, cfg.dim],
                    Initializer::XavierUniform,
                    &mut rng,
                ),
                params.add_init(
                    "p.w2",
                    &[cfg.dim, cfg.dim],
                    Initializer::XavierUniform,
                    &mut rng,
                ),
            )
        });
        let sec_e = variant
            .uses_section_predictor()
            .then(|| Dense::new(&mut params, &mut rng, "sec_e", h2 + 1, h2));
        let sec_g = variant
            .uses_section_predictor()
            .then(|| Dense::new(&mut params, &mut rng, "sec_g", h2 + 1, h2));

        let (w_q, w_ae) = if variant.gate_style_extractor() {
            (
                Some(Dense::new(
                    &mut params,
                    &mut rng,
                    "w_q",
                    cfg.max_topic_len * cfg.dec_hidden,
                    cfg.dim,
                )),
                Some(params.add_init(
                    "w_ae",
                    &[h2, cfg.dim],
                    Initializer::XavierUniform,
                    &mut rng,
                )),
            )
        } else {
            (None, None)
        };

        let (w_e, w_eg, w_ag) = if variant.attr_aware_generator() {
            (
                Some(Dense::new(&mut params, &mut rng, "w_e", h2, cfg.dim)),
                Some(Dense::new(&mut params, &mut rng, "w_eg", cfg.dim, h2)),
                Some(params.add_init("w_ag", &[h2, 1], Initializer::XavierUniform, &mut rng)),
            )
        } else {
            (None, None, None)
        };

        // Extractor head input width depends on the variant.
        let e_in = match variant {
            JointVariant::NaiveJoin => h2,
            JointVariant::ConExtractor | JointVariant::AveExtractor => h2 + cfg.dec_hidden,
            _ => 2 * h2,
        };
        let e_head = Dense::new(&mut params, &mut rng, "e.head", e_in, NUM_TAGS);

        JointModel {
            params,
            variant,
            embedder,
            e_bilstm,
            e_head,
            g_bilstm,
            decoder,
            p_w,
            sec_e,
            sec_g,
            w_q,
            w_ae,
            w_e,
            w_eg,
            w_ag,
            cfg,
        }
    }

    /// The variant of this model.
    pub fn variant(&self) -> JointVariant {
        self.variant
    }

    /// The model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// The section predictor's raw logits `z: [m, 1]` (eq. 13's Markov
    /// dependency: sentence `j` looks at `j−1` and `j+1`).
    fn section_scores(&self, g: &mut Graph, sents: Var) -> Var {
        let (w1, w2) = self.p_w.expect("variant has no section predictor");
        let m = g.value(sents).rows();
        // The ablation study can disable the Markov dependency, in which
        // case the predictor only looks at the sentence itself.
        let (prev_idx, next_idx): (Vec<usize>, Vec<usize>) = if self.cfg.markov_sections {
            (
                (0..m).map(|j| j.saturating_sub(1)).collect(),
                (0..m).map(|j| (j + 1).min(m - 1)).collect(),
            )
        } else {
            ((0..m).collect(), (0..m).collect())
        };
        let prev = g.gather_rows(sents, &prev_idx);
        let next = g.gather_rows(sents, &next_idx);
        let w1v = g.param(w1);
        let w2v = g.param(w2);
        // Row-wise bilinear: (prev·W¹) ⊙ cur summed per row, plus
        // (cur·W²) ⊙ next summed per row. Row sums via matmul with ones.
        let pw = g.matmul(prev, w1v);
        let a = g.mul(pw, sents);
        let cw = g.matmul(sents, w2v);
        let b = g.mul(cw, next);
        let ones = g.input(Tensor::full(&[self.cfg.dim, 1], 1.0));
        let za = g.matmul(a, ones);
        let zb = g.matmul(b, ones);
        g.add(za, zb)
    }

    /// Per-token section column: `p` gathered by each token's sentence.
    fn token_section_column(&self, g: &mut Graph, p: Var, ex: &Example) -> Var {
        let idx: Vec<usize> =
            ex.sentence_of.iter().map(|&s| if s == usize::MAX { 0 } else { s }).collect();
        g.gather_rows(p, &idx)
    }

    /// Integrated topic representation `Q^b` (eq. 16): decoder states padded
    /// to `max_topic_len` rows, flattened, dense + tanh.
    fn topic_integration(&self, g: &mut Graph, q: Var) -> Var {
        let w_q = self.w_q.as_ref().expect("variant has no topic integration");
        let n = g.value(q).rows();
        let k = self.cfg.max_topic_len;
        let h = self.cfg.dec_hidden;
        let mut cols = Vec::with_capacity(k);
        for i in 0..k {
            if i < n {
                cols.push(g.slice_rows(q, i, i + 1));
            } else {
                cols.push(g.input(Tensor::zeros(&[1, h])));
            }
        }
        let flat = g.concat_cols(&cols);
        w_q.forward_tanh(g, flat)
    }

    /// The full forward pass. `targets` drives teacher forcing; pass the
    /// gold `topic_target` during training. At inference use
    /// [`JointModel::infer`] instead.
    pub fn forward(&self, g: &mut Graph, ex: &Example, targets: &[u32]) -> JointForward {
        let cfg = &self.cfg;
        let shared = self.embedder.forward(g, &ex.tokens, &ex.sentence_of);
        let sents = sentence_reps(g, &self.embedder, shared, ex);

        let tok_d = g.dropout(shared, cfg.dropout);
        let c_e = self.e_bilstm.forward(g, tok_d);
        let sents_d = g.dropout(sents, cfg.dropout);
        let c_g = self.g_bilstm.forward(g, sents_d);

        // Section predictor.
        let (section_logits, p_probs) = if self.variant.uses_section_predictor() {
            let z = self.section_scores(g, sents);
            let m = g.value(z).rows();
            let zeros = g.input(Tensor::zeros(&[m, 1]));
            let two_class = g.concat_cols(&[zeros, z]);
            let p = g.sigmoid(z);
            (Some(two_class), Some(p))
        } else {
            (None, None)
        };
        let (c_e_b, c_g_b) = self.section_dependent(g, ex, c_e, c_g, p_probs);

        // First decode pass over the (section-aware) generator memory.
        let (g_logits_first, q) = self.decoder.teacher_forced_with_states(g, targets, c_g_b);

        let e_feats = self.extractor_features(g, ex, c_e, c_e_b, q, p_probs);
        let e_feats = g.dropout(e_feats, cfg.dropout);
        let e_logits = self.e_head.forward(g, e_feats);

        // Generator output (second, dual-aware decode when applicable).
        let g_logits = if self.variant.attr_aware_generator() {
            let mem2 = self.generator_memory(g, c_e, c_g, c_g_b, p_probs);
            self.decoder.teacher_forced(g, targets, mem2)
        } else {
            g_logits_first
        };

        JointForward {
            e_logits,
            g_logits,
            section_logits,
            shared,
            hidden_e: c_e,
            hidden_g: c_g,
        }
    }

    /// Section-dependent representations `(C_E^b, C_G^b)` (eqs. 17, 19):
    /// each Bi-LSTM output concatenated with its section probability and
    /// projected back; the plain outputs when the variant has no `P`.
    fn section_dependent(
        &self,
        g: &mut Graph,
        ex: &Example,
        c_e: Var,
        c_g: Var,
        p_probs: Option<Var>,
    ) -> (Var, Var) {
        let c_e_b = match (&self.sec_e, p_probs) {
            (Some(sec_e), Some(p)) => {
                let col = self.token_section_column(g, p, ex);
                let cat = g.concat_cols(&[c_e, col]);
                sec_e.forward_tanh(g, cat)
            }
            _ => c_e,
        };
        let c_g_b = match (&self.sec_g, p_probs) {
            (Some(sec_g), Some(p)) => {
                let cat = g.concat_cols(&[c_g, p]);
                sec_g.forward_tanh(g, cat)
            }
            _ => c_g,
        };
        (c_e_b, c_g_b)
    }

    /// The extractor head's input: the token representations enriched with
    /// the topic states `q` of the first decode, as each variant defines it.
    fn extractor_features(
        &self,
        g: &mut Graph,
        ex: &Example,
        c_e: Var,
        c_e_b: Var,
        q: Var,
        p_probs: Option<Var>,
    ) -> Var {
        match self.variant {
            JointVariant::NaiveJoin => c_e,
            JointVariant::ConExtractor => {
                let n = g.value(q).rows();
                let last = g.slice_rows(q, n - 1, n);
                let rep = g.gather_rows(last, &vec![0; ex.tokens.len()]);
                g.concat_cols(&[c_e, rep])
            }
            JointVariant::AveExtractor => {
                let mean = g.mean_rows(q);
                let rep = g.gather_rows(mean, &vec![0; ex.tokens.len()]);
                g.concat_cols(&[c_e, rep])
            }
            JointVariant::PipBoth => {
                // Pipeline: topic-dependent gating first (section-unaware),
                // then a separate section-dependent residual re-weighting.
                let q_b = self.topic_integration(g, q);
                let w_ae = g.param(self.w_ae.expect("gate extractor has w_ae"));
                let hw = g.matmul(c_e, w_ae);
                let scores = g.matmul_nt(hw, q_b);
                let alpha = g.sigmoid(scores);
                let gated = g.mul_col_broadcast(c_e, alpha);
                let x1 = g.concat_cols(&[c_e, gated]);
                let p = p_probs.expect("PipBoth has a section predictor");
                let p_tok = self.token_section_column(g, p, ex);
                let sec_scaled = g.mul_col_broadcast(x1, p_tok);
                g.add(x1, sec_scaled)
            }
            _ => {
                // Gate-style dual-aware token representations (eqs. 14–17).
                let q_b = self.topic_integration(g, q);
                let w_ae = g.param(self.w_ae.expect("gate extractor has w_ae"));
                let hw = g.matmul(c_e_b, w_ae);
                let scores = g.matmul_nt(hw, q_b);
                let alpha = g.sigmoid(scores);
                let gated = g.mul_col_broadcast(c_e_b, alpha);
                g.concat_cols(&[c_e, gated])
            }
        }
    }

    /// The memory the final decode attends over: `C_G^b`, or for the
    /// attribute-aware variants the key-attributes-aware memory built on
    /// it (on the plain `C_G` for the pipeline variant).
    fn generator_memory(
        &self,
        g: &mut Graph,
        c_e: Var,
        c_g: Var,
        c_g_b: Var,
        p_probs: Option<Var>,
    ) -> Var {
        if !self.variant.attr_aware_generator() {
            return c_g_b;
        }
        let base = if self.variant == JointVariant::PipBoth { c_g } else { c_g_b };
        self.attr_aware_memory(g, c_e, c_g, base, p_probs)
    }

    /// The key-attributes-aware decoder memory (eqs. 18–19): an
    /// attribute-relevance gate over `base` added residually to `C_G`; the
    /// pipeline variant then re-weights by the section probabilities as a
    /// separate sequential step.
    fn attr_aware_memory(
        &self,
        g: &mut Graph,
        c_e: Var,
        c_g: Var,
        base: Var,
        p_probs: Option<Var>,
    ) -> Var {
        let w_e = self.w_e.as_ref().expect("attr-aware generator has w_e");
        let w_eg = self.w_eg.as_ref().expect("attr-aware generator has w_eg");
        let mean_e = g.mean_rows(c_e);
        let e_b = w_e.forward_tanh(g, mean_e);
        let e_proj = w_eg.forward_tanh(g, e_b);
        let mixed = g.mul_row_broadcast(base, e_proj);
        let w_ag_v = g.param(self.w_ag.expect("attr-aware generator has w_ag"));
        let scores = g.matmul(mixed, w_ag_v);
        let alpha_g = g.sigmoid(scores);
        let gated = g.mul_col_broadcast(base, alpha_g);
        // Residual combination keeps the magnitude diversity the decoder
        // attention needs.
        let mem1 = g.add(c_g, gated);
        if self.variant == JointVariant::PipBoth {
            let p = p_probs.expect("PipBoth has a section predictor");
            let sec_scaled = g.mul_col_broadcast(mem1, p);
            g.add(mem1, sec_scaled)
        } else {
            mem1
        }
    }

    /// One inference pass over a sub-document: a single graph shares the
    /// embedder, both Bi-LSTMs and the section predictor between the
    /// extractor and the generator. The greedy first decode supplies the
    /// topic states the extractor attends to; the beam search for the
    /// topic phrase runs only `with_topic` (briefing generates the topic
    /// from the first sub-document alone).
    ///
    /// Each stage runs under a `wb-obs` span: `brief.encode` (holding
    /// `brief.embed`, `brief.e_bilstm`, `brief.g_bilstm`,
    /// `brief.sections`), then `brief.greedy`, `brief.extract_head`,
    /// `brief.beam` and `brief.release` (dropping the tape).
    pub fn infer(&self, ex: &Example, with_topic: bool) -> Inference {
        let mut graph = Graph::new(&self.params, false, 0);
        let g = &mut graph;
        let (c_e, c_g, c_e_b, c_g_b, z, p_probs) = {
            let _encode = wb_obs::span!("brief.encode");
            let (shared, sents) = {
                let _s = wb_obs::span!("brief.embed");
                let shared = self.embedder.forward(g, &ex.tokens, &ex.sentence_of);
                (shared, sentence_reps(g, &self.embedder, shared, ex))
            };
            let c_e = {
                let _s = wb_obs::span!("brief.e_bilstm");
                self.e_bilstm.forward(g, shared)
            };
            let c_g = {
                let _s = wb_obs::span!("brief.g_bilstm");
                self.g_bilstm.forward(g, sents)
            };
            let _s = wb_obs::span!("brief.sections");
            let z =
                self.variant.uses_section_predictor().then(|| self.section_scores(g, sents));
            let p_probs = z.map(|z| g.sigmoid(z));
            let (c_e_b, c_g_b) = self.section_dependent(g, ex, c_e, c_g, p_probs);
            (c_e, c_g, c_e_b, c_g_b, z, p_probs)
        };
        let (_, q) = {
            let _s = wb_obs::span!("brief.greedy");
            self.decoder.greedy_with_states(g, c_g_b, self.cfg.max_topic_len)
        };
        let tags = {
            let _s = wb_obs::span!("brief.extract_head");
            let e_feats = self.extractor_features(g, ex, c_e, c_e_b, q, p_probs);
            let logits = self.e_head.forward(g, e_feats);
            g.value(logits).argmax_rows().iter().map(|&t| t as u8).collect()
        };
        let topic = with_topic.then(|| {
            let _s = wb_obs::span!("brief.beam");
            let memory = self.generator_memory(g, c_e, c_g, c_g_b, p_probs);
            self.decoder.beam_search(g, memory, self.cfg.beam, self.cfg.max_topic_len)
        });
        let sections = z.map(|z| g.value(z).data().iter().map(|&v| v >= 0.0).collect());
        {
            // Freeing a tape of thousands of nodes is a stage of its own.
            let _s = wb_obs::span!("brief.release");
            drop(graph);
        }
        Inference { tags, topic, sections }
    }

    /// Predicted BIO tags (one [`JointModel::infer`] pass without the beam).
    pub fn predict_tags(&self, ex: &Example) -> Vec<u8> {
        self.infer(ex, false).tags
    }

    /// Generates the topic phrase with beam search (one
    /// [`JointModel::infer`] pass).
    pub fn generate(&self, ex: &Example) -> Vec<u32> {
        self.infer(ex, true).topic.expect("infer with_topic yields a topic")
    }

    /// Predicted informative-section flags (only for variants with `P`).
    pub fn predict_sections(&self, ex: &Example) -> Option<Vec<bool>> {
        self.variant.uses_section_predictor().then(|| self.infer(ex, false).sections).flatten()
    }
}

impl TrainableModel for JointModel {
    fn params(&self) -> &Params {
        &self.params
    }

    fn params_mut(&mut self) -> &mut Params {
        &mut self.params
    }

    /// Eq. 20: `L = CE(O_e) + CE(O_g)` (+ the section supervision term when
    /// the variant has a section predictor — see the module notes).
    fn loss(&self, g: &mut Graph, _idx: usize, ex: &Example) -> Var {
        let fwd = self.forward(g, ex, &ex.topic_target);
        let bio: Vec<usize> = ex.bio.iter().map(|&b| b as usize).collect();
        let e_loss = g.cross_entropy_rows(fwd.e_logits, &bio);
        let topic: Vec<usize> = ex.topic_target.iter().map(|&t| t as usize).collect();
        let g_loss = g.cross_entropy_rows(fwd.g_logits, &topic);
        let mut total = g.add(e_loss, g_loss);
        if let Some(sl) = fwd.section_logits {
            let targets: Vec<usize> = ex.informative.iter().map(|&i| usize::from(i)).collect();
            let s_loss = g.cross_entropy_rows(sl, &targets);
            let s_scaled = g.scale(s_loss, 0.5);
            total = g.add(total, s_scaled);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wb_corpus::{Dataset, DatasetConfig};

    fn tiny() -> Dataset {
        Dataset::generate(&DatasetConfig::tiny())
    }

    const ALL: [JointVariant; 7] = [
        JointVariant::NaiveJoin,
        JointVariant::ConExtractor,
        JointVariant::AveExtractor,
        JointVariant::AttExtractor,
        JointVariant::AttBoth,
        JointVariant::PipBoth,
        JointVariant::JointWb,
    ];

    #[test]
    fn every_variant_forward_shapes() {
        let d = tiny();
        let ex = &d.examples[0];
        let cfg = ModelConfig::scaled(d.tokenizer.vocab().len());
        for v in ALL {
            let m = JointModel::new(v, cfg, 0);
            let mut g = Graph::new(m.params(), false, 0);
            let fwd = m.forward(&mut g, ex, &ex.topic_target);
            assert_eq!(g.value(fwd.e_logits).shape(), &[ex.tokens.len(), NUM_TAGS], "{v:?}");
            assert_eq!(
                g.value(fwd.g_logits).shape(),
                &[ex.topic_target.len(), cfg.vocab],
                "{v:?}"
            );
            assert_eq!(fwd.section_logits.is_some(), v.uses_section_predictor(), "{v:?}");
        }
    }

    #[test]
    fn every_variant_trains_one_step_without_panic() {
        let d = tiny();
        let cfg = ModelConfig::scaled(d.tokenizer.vocab().len());
        for v in ALL {
            let mut m = JointModel::new(v, cfg, 0);
            let mut tc = crate::config::TrainConfig::scaled(1);
            tc.batch_size = 2;
            let stats = crate::trainer::train(&mut m, &d.examples, &[0, 1], tc);
            assert!(stats.final_loss().is_finite(), "{v:?} loss not finite");
        }
    }

    #[test]
    fn inference_apis_work_for_all_variants() {
        let d = tiny();
        let ex = &d.examples[0];
        let cfg = ModelConfig::scaled(d.tokenizer.vocab().len());
        for v in ALL {
            let m = JointModel::new(v, cfg, 3);
            let tags = m.predict_tags(ex);
            assert_eq!(tags.len(), ex.tokens.len(), "{v:?}");
            let topic = m.generate(ex);
            assert!(topic.len() <= cfg.max_topic_len, "{v:?}");
            assert_eq!(m.predict_sections(ex).is_some(), v.uses_section_predictor(), "{v:?}");
            if let Some(s) = m.predict_sections(ex) {
                assert_eq!(s.len(), ex.informative.len(), "{v:?}");
            }
        }
    }

    #[test]
    fn joint_wb_gradients_reach_all_parts() {
        let d = tiny();
        let ex = &d.examples[0];
        let cfg = ModelConfig::scaled(d.tokenizer.vocab().len());
        let m = JointModel::new(JointVariant::JointWb, cfg, 0);
        let grads = {
            let mut g = Graph::new(m.params(), true, 0);
            let loss = m.loss(&mut g, 0, ex);
            g.backward(loss)
        };
        // Every named component must receive gradient.
        for prefix in [
            "emb.", "e.bilstm", "g.bilstm", "dec.", "p.w", "sec_e", "sec_g", "w_q", "w_ae",
            "w_e", "w_eg", "w_ag", "e.head",
        ] {
            let touched = m
                .params()
                .iter()
                .filter(|(_, name, _)| name.starts_with(prefix))
                .any(|(id, _, _)| grads.get(id).is_some());
            assert!(touched, "no gradient reached {prefix}");
        }
    }
}
