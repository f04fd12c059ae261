//! Encoder–decoder topic generation [23]: a Bi-LSTM encoder over sentence
//! representations and an LSTM decoder with dot-product attention, plus
//! greedy and beam-search inference (§IV-A5 uses beam search).

use crate::layers::Dense;
use crate::lstm::{Lstm, LstmState};
use rand::rngs::StdRng;
use wb_tensor::{Graph, Params, Tensor, Var};
use wb_text::{BOS, EOS};

/// The decoder half of a seq2seq model. The encoder lives with the caller
/// (different models encode differently); the decoder consumes any
/// `[m, enc_dim]` memory.
pub struct Decoder {
    /// Decoder token embedding (over the output vocabulary).
    emb: crate::layers::Embedding,
    /// The recurrent cell; input = token embedding ⊕ attention context.
    cell: Lstm,
    /// Projects `[h ⊕ context]` to vocabulary logits.
    out: Dense,
    /// Projects the decoder state to the memory width for attention queries.
    query: Dense,
    enc_dim: usize,
    vocab: usize,
}

impl Decoder {
    /// Builds a decoder: `hidden`-wide LSTM over `emb_dim` token embeddings
    /// with attention over `enc_dim` memory, producing `vocab` logits.
    pub fn new(
        params: &mut Params,
        rng: &mut StdRng,
        name: &str,
        vocab: usize,
        emb_dim: usize,
        enc_dim: usize,
        hidden: usize,
    ) -> Self {
        Decoder {
            emb: crate::layers::Embedding::new(
                params,
                rng,
                &format!("{name}.emb"),
                vocab,
                emb_dim,
            ),
            cell: Lstm::new(params, rng, &format!("{name}.cell"), emb_dim + enc_dim, hidden),
            out: Dense::new(params, rng, &format!("{name}.out"), hidden + enc_dim, vocab),
            query: Dense::new(params, rng, &format!("{name}.query"), hidden, enc_dim),
            enc_dim,
            vocab,
        }
    }

    /// Output vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Dot-product attention contexts `[b, enc_dim]` of the `b` state rows
    /// `h` over `memory: [m, enc_dim]`. When the widths differ the caller
    /// must have projected them; we assert instead of silently broadcasting.
    fn context(&self, g: &mut Graph, h: Var, memory: Var) -> Var {
        assert_eq!(g.value(memory).cols(), self.enc_dim, "memory width mismatch");
        let q = self.query.forward(g, h); // [b, enc_dim]
        let att = g.softmax_matmul_nt(q, memory, 1.0, 1.0); // [b, m]
        g.matmul(att, memory)
    }

    /// One decoding step: embeds `token`, attends over `memory`, advances
    /// the state, and returns `(logits [1, vocab], new_state)`.
    pub fn step(
        &self,
        g: &mut Graph,
        token: u32,
        state: LstmState,
        memory: Var,
    ) -> (Var, LstmState) {
        self.step_rows(g, &[token], state, memory)
    }

    /// One decoding step for `tokens.len()` independent sequences at once:
    /// row `i` of `state` and of the returned `(logits [b, vocab],
    /// new_state)` belongs to `tokens[i]`. Every row is bit-identical to a
    /// one-row [`Decoder::step`] — row-wise ops only, and matmul rows are
    /// independent under the kernels' bit-exactness contract.
    fn step_rows(
        &self,
        g: &mut Graph,
        tokens: &[u32],
        state: LstmState,
        memory: Var,
    ) -> (Var, LstmState) {
        let e = self.emb.forward(g, tokens);
        let ctx = self.context(g, state.h, memory);
        let x = g.concat_cols(&[e, ctx]);
        let next = self.cell.step(g, x, state);
        let ctx2 = self.context(g, next.h, memory);
        let feat = g.concat_cols(&[next.h, ctx2]);
        let logits = self.out.forward(g, feat);
        (logits, next)
    }

    /// Zero initial state.
    pub fn zero_state(&self, g: &mut Graph) -> LstmState {
        self.cell.zero_state(g)
    }

    /// Teacher-forced decoding: feeds `[BOS] t₁ … tₙ₋₁` and returns the
    /// logits matrix `[n, vocab]` aligned with targets `t₁ … tₙ`.
    pub fn teacher_forced(&self, g: &mut Graph, targets: &[u32], memory: Var) -> Var {
        assert!(!targets.is_empty(), "empty target sequence");
        let mut state = self.zero_state(g);
        let mut logits = Vec::with_capacity(targets.len());
        let mut prev = BOS;
        for &t in targets {
            let (l, next) = self.step(g, prev, state, memory);
            logits.push(l);
            state = next;
            prev = t;
        }
        g.concat_rows(&logits)
    }

    /// Teacher-forced decoding that also returns the decoder hidden states
    /// `[n, hidden]` — Joint-WB's `Q` (the hidden topic representations).
    pub fn teacher_forced_with_states(
        &self,
        g: &mut Graph,
        targets: &[u32],
        memory: Var,
    ) -> (Var, Var) {
        assert!(!targets.is_empty(), "empty target sequence");
        let mut state = self.zero_state(g);
        let mut logits = Vec::with_capacity(targets.len());
        let mut hiddens = Vec::with_capacity(targets.len());
        let mut prev = BOS;
        for &t in targets {
            let (l, next) = self.step(g, prev, state, memory);
            logits.push(l);
            hiddens.push(next.h);
            state = next;
            prev = t;
        }
        (g.concat_rows(&logits), g.concat_rows(&hiddens))
    }

    /// Greedy decoding that also returns the decoder hidden states
    /// `[steps, hidden]` (at least one step is always taken).
    pub fn greedy_with_states(
        &self,
        g: &mut Graph,
        memory: Var,
        max_len: usize,
    ) -> (Vec<u32>, Var) {
        assert!(max_len >= 1, "max_len must be positive");
        let mut state = self.zero_state(g);
        let mut out = Vec::new();
        let mut hiddens = Vec::new();
        let mut prev = BOS;
        for _ in 0..max_len {
            let (logits, next) = self.step(g, prev, state, memory);
            hiddens.push(next.h);
            let id = g.value(logits).argmax() as u32;
            state = next;
            if id == EOS {
                break;
            }
            out.push(id);
            prev = id;
        }
        (out, g.concat_rows(&hiddens))
    }

    /// Greedy decoding until `[EOS]` or `max_len`.
    pub fn greedy(&self, g: &mut Graph, memory: Var, max_len: usize) -> Vec<u32> {
        let mut state = self.zero_state(g);
        let mut out = Vec::new();
        let mut prev = BOS;
        for _ in 0..max_len {
            let (logits, next) = self.step(g, prev, state, memory);
            let id = g.value(logits).argmax() as u32;
            if id == EOS {
                break;
            }
            out.push(id);
            state = next;
            prev = id;
        }
        out
    }

    /// Beam-search decoding (§IV-A5: "we use beam search in the inference
    /// process"); returns the best hypothesis without `[EOS]`.
    ///
    /// All live hypotheses advance together as one `[live, ·]` batch per
    /// step ([`Decoder::step_rows`]). Candidates are ranked by score, NaN
    /// last; equal scores keep (hypothesis, token) order.
    pub fn beam_search(
        &self,
        g: &mut Graph,
        memory: Var,
        beam: usize,
        max_len: usize,
    ) -> Vec<u32> {
        assert!(beam >= 1, "beam width must be positive");
        struct Hyp {
            tokens: Vec<u32>,
            /// Row of this hypothesis in the last step's batched state.
            row: usize,
            prev: u32,
            score: f32,
            done: bool,
        }
        let mut state = self.zero_state(g);
        let mut hyps =
            vec![Hyp { tokens: Vec::new(), row: 0, prev: BOS, score: 0.0, done: false }];
        for _ in 0..max_len {
            let live: Vec<&Hyp> = hyps.iter().filter(|h| !h.done).collect();
            if live.is_empty() {
                break;
            }
            let rows: Vec<usize> = live.iter().map(|h| h.row).collect();
            let live_state = LstmState {
                h: g.gather_rows(state.h, &rows),
                c: g.gather_rows(state.c, &rows),
            };
            let prevs: Vec<u32> = live.iter().map(|h| h.prev).collect();
            let (logits, next) = self.step_rows(g, &prevs, live_state, memory);
            state = next;
            let vocab = g.value(logits).cols();
            let mut candidates: Vec<Hyp> = Vec::new();
            let mut batch_row = 0;
            for h in &hyps {
                if h.done {
                    candidates.push(Hyp { tokens: h.tokens.clone(), ..*h });
                    continue;
                }
                let row = &g.value(logits).data()[batch_row * vocab..(batch_row + 1) * vocab];
                let logp = log_softmax_row(row);
                // Keep the top `beam` expansions of this hypothesis.
                let mut idx: Vec<usize> = (0..logp.len()).collect();
                sort_desc_nan_last(&mut idx, |&t| logp[t]);
                for &token in idx.iter().take(beam) {
                    let token = token as u32;
                    let mut tokens = h.tokens.clone();
                    let done = token == EOS;
                    if !done {
                        tokens.push(token);
                    }
                    candidates.push(Hyp {
                        tokens,
                        row: batch_row,
                        prev: token,
                        score: h.score + logp[token as usize],
                        done,
                    });
                }
                batch_row += 1;
            }
            sort_desc_nan_last(&mut candidates, |c| c.score);
            candidates.truncate(beam);
            hyps = candidates;
        }
        sort_desc_nan_last(&mut hyps, |h| h.score);
        hyps.into_iter().next().map(|h| h.tokens).unwrap_or_default()
    }
}

/// Stable sort by `key`, largest first, with every NaN after every number.
/// A total order, unlike `partial_cmp(..).unwrap_or(Equal)` (which the
/// standard sort may panic on once NaN and numbers mix); numbers compare
/// exactly as `partial_cmp` does, so equal scores (±0 too) keep their
/// order.
fn sort_desc_nan_last<T>(items: &mut [T], key: impl Fn(&T) -> f32) {
    items.sort_by(|a, b| {
        let (a, b) = (key(a), key(b));
        match (a.is_nan(), b.is_nan()) {
            (false, false) => b.partial_cmp(&a).expect("neither is NaN"),
            (a_nan, b_nan) => a_nan.cmp(&b_nan),
        }
    });
}

fn log_softmax_row(row: &[f32]) -> Vec<f32> {
    let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let log_sum: f32 = row.iter().map(|&x| (x - max).exp()).sum::<f32>().ln();
    row.iter().map(|&x| x - max - log_sum).collect()
}

/// Convenience for callers: a zero memory matrix for decoders used without
/// an encoder (unit tests).
pub fn zero_memory(g: &mut Graph, rows: usize, dim: usize) -> Var {
    g.input(Tensor::zeros(&[rows, dim]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use wb_tensor::{Adam, AdamConfig, Gradients};

    fn decoder(vocab: usize) -> (Params, Decoder) {
        let mut rng = StdRng::seed_from_u64(0);
        let mut params = Params::new();
        let d = Decoder::new(&mut params, &mut rng, "dec", vocab, 8, 8, 8);
        (params, d)
    }

    #[test]
    fn teacher_forced_shapes() {
        let (params, d) = decoder(12);
        let mut g = Graph::new(&params, false, 0);
        let mem = zero_memory(&mut g, 3, 8);
        let logits = d.teacher_forced(&mut g, &[7, 8, EOS], mem);
        assert_eq!(g.value(logits).shape(), &[3, 12]);
    }

    #[test]
    fn greedy_stops_at_max_len() {
        let (params, d) = decoder(12);
        let mut g = Graph::new(&params, false, 0);
        let mem = zero_memory(&mut g, 3, 8);
        let out = d.greedy(&mut g, mem, 5);
        assert!(out.len() <= 5);
    }

    #[test]
    fn beam_equals_greedy_at_width_one() {
        let (params, d) = decoder(12);
        let mut g = Graph::new(&params, false, 0);
        let mem = zero_memory(&mut g, 3, 8);
        let greedy = d.greedy(&mut g, mem, 4);
        let beam = d.beam_search(&mut g, mem, 1, 4);
        assert_eq!(greedy, beam);
    }

    /// The decoder must be able to memorise a fixed output sequence — the
    /// degenerate seq2seq task.
    #[test]
    fn decoder_learns_fixed_sequence() {
        let (mut params, d) = decoder(12);
        let mut opt = Adam::new(&params, AdamConfig::scaled(0.05));
        let target = [7u32, 9, 8, EOS];
        for _ in 0..120 {
            let grads: Gradients = {
                let mut g = Graph::new(&params, true, 0);
                let mem = zero_memory(&mut g, 2, 8);
                let logits = d.teacher_forced(&mut g, &target, mem);
                let t: Vec<usize> = target.iter().map(|&t| t as usize).collect();
                let loss = g.cross_entropy_rows(logits, &t);
                g.backward(loss)
            };
            opt.step(&mut params, grads);
        }
        let mut g = Graph::new(&params, false, 0);
        let mem = zero_memory(&mut g, 2, 8);
        assert_eq!(d.greedy(&mut g, mem, 6), vec![7, 9, 8]);
        assert_eq!(d.beam_search(&mut g, mem, 4, 6), vec![7, 9, 8]);
    }

    #[test]
    fn beam_is_deterministic_and_bounded() {
        let (params, d) = decoder(12);
        let mut g = Graph::new(&params, false, 0);
        let mem = zero_memory(&mut g, 3, 8);
        let a = d.beam_search(&mut g, mem, 4, 5);
        let b = d.beam_search(&mut g, mem, 4, 5);
        assert_eq!(a, b);
        assert!(a.len() <= 5);
        assert!(!a.contains(&EOS));
    }

    /// The pre-batching beam search: one 1-row [`Decoder::step`] per live
    /// hypothesis per step, kept as the reference the batched search must
    /// reproduce exactly.
    fn beam_reference(
        d: &Decoder,
        g: &mut Graph,
        memory: Var,
        beam: usize,
        max_len: usize,
    ) -> Vec<u32> {
        struct Hyp {
            tokens: Vec<u32>,
            state: LstmState,
            prev: u32,
            score: f32,
            done: bool,
        }
        let init = d.zero_state(g);
        let mut hyps =
            vec![Hyp { tokens: Vec::new(), state: init, prev: BOS, score: 0.0, done: false }];
        for _ in 0..max_len {
            if hyps.iter().all(|h| h.done) {
                break;
            }
            let mut candidates = Vec::new();
            for h in &hyps {
                if h.done {
                    candidates.push(Hyp { tokens: h.tokens.clone(), ..*h });
                    continue;
                }
                let (logits, next) = d.step(g, h.prev, h.state, memory);
                let logp = log_softmax_row(g.value(logits).data());
                let mut idx: Vec<usize> = (0..logp.len()).collect();
                idx.sort_by(|&a, &b| logp[b].partial_cmp(&logp[a]).unwrap());
                for &token in idx.iter().take(beam) {
                    let mut tokens = h.tokens.clone();
                    let done = token as u32 == EOS;
                    if !done {
                        tokens.push(token as u32);
                    }
                    let score = h.score + logp[token];
                    candidates.push(Hyp {
                        tokens,
                        state: next,
                        prev: token as u32,
                        score,
                        done,
                    });
                }
            }
            candidates.sort_by(|a, b| b.score.partial_cmp(&a.score).unwrap());
            candidates.truncate(beam);
            hyps = candidates;
        }
        hyps.sort_by(|a, b| b.score.partial_cmp(&a.score).unwrap());
        hyps.into_iter().next().map(|h| h.tokens).unwrap_or_default()
    }

    #[test]
    fn batched_beam_equals_per_hypothesis_reference() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(9);
        let mut params = Params::new();
        let d = Decoder::new(&mut params, &mut rng, "dec", 40, 8, 8, 8);
        // Large weights make each hypothesis' state steer its next token,
        // so a hypothesis stepped on another's state row decodes wrong.
        let ids: Vec<_> = params.iter().map(|(i, _, _)| i).collect();
        for id in ids {
            params.get_mut(id).scale_in_place(4.0);
        }
        let mut distinct = std::collections::BTreeSet::new();
        for trial in 0..12 {
            let rows = 1 + trial % 5;
            let data: Vec<f32> = (0..rows * 8).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
            let mut g = Graph::new(&params, false, 0);
            let mem = g.input(Tensor::from_vec(&[rows, 8], data));
            for width in [1, 4, 16] {
                let batched = d.beam_search(&mut g, mem, width, 6);
                let reference = beam_reference(&d, &mut g, mem, width, 6);
                assert_eq!(batched, reference, "trial {trial}, width {width}");
                distinct.insert(batched);
            }
        }
        assert!(distinct.len() > 3, "decodes too uniform to compare: {distinct:?}");
    }

    #[test]
    fn nan_scores_sort_totally_and_deterministically() {
        let mut scores: Vec<f32> = (0..48)
            .map(|i| match i % 5 {
                0 => f32::NAN,
                1 => -(i as f32),
                2 => i as f32 * 0.5,
                3 => 0.0,
                _ => -0.0,
            })
            .collect();
        scores.push(f32::NEG_INFINITY);
        scores.push(f32::INFINITY);
        let mut idx: Vec<usize> = (0..scores.len()).collect();
        sort_desc_nan_last(&mut idx, |&i| scores[i]);
        let mut again: Vec<usize> = (0..scores.len()).rev().collect();
        again.sort();
        sort_desc_nan_last(&mut again, |&i| scores[i]);
        assert_eq!(idx, again, "same input, same order");
        let first_nan = idx.iter().position(|&i| scores[i].is_nan()).unwrap();
        assert!(idx[first_nan..].iter().all(|&i| scores[i].is_nan()), "NaN last");
        assert!(
            idx[..first_nan].windows(2).all(|w| scores[w[0]] >= scores[w[1]]),
            "descending"
        );
        // Equal scores (+0 and -0 included) keep their input order.
        let zeros: Vec<usize> = idx.iter().copied().filter(|&i| scores[i] == 0.0).collect();
        assert!(zeros.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn teacher_forced_with_states_aligns() {
        let (params, d) = decoder(12);
        let mut g = Graph::new(&params, false, 0);
        let mem = zero_memory(&mut g, 2, 8);
        let (logits, states) = d.teacher_forced_with_states(&mut g, &[7, 8, EOS], mem);
        assert_eq!(g.value(logits).rows(), 3);
        assert_eq!(g.value(states).rows(), 3);
        assert_eq!(g.value(states).cols(), 8);
        // States differ across steps (the LSTM actually advances).
        assert_ne!(g.value(states).row(0), g.value(states).row(2));
    }

    #[test]
    fn greedy_with_states_always_returns_at_least_one_state() {
        let (params, d) = decoder(12);
        let mut g = Graph::new(&params, false, 0);
        let mem = zero_memory(&mut g, 2, 8);
        let (tokens, states) = d.greedy_with_states(&mut g, mem, 4);
        assert!(g.value(states).rows() >= 1);
        assert!(tokens.len() <= 4);
    }

    /// With different memories the decoder must produce different outputs —
    /// i.e. attention actually conditions generation.
    #[test]
    fn decoder_conditions_on_memory() {
        let (mut params, d) = decoder(12);
        let mut opt = Adam::new(&params, AdamConfig::scaled(0.05));
        let mem_a = Tensor::from_vec(&[1, 8], vec![1.0; 8]);
        let mem_b = Tensor::from_vec(&[1, 8], vec![-1.0; 8]);
        let tgt_a = [7u32, EOS];
        let tgt_b = [9u32, EOS];
        for _ in 0..150 {
            let mut grads = Gradients::zeros(&params);
            for (mem, tgt) in [(&mem_a, &tgt_a), (&mem_b, &tgt_b)] {
                let gr = {
                    let mut g = Graph::new(&params, true, 0);
                    let m = g.input(mem.clone());
                    let logits = d.teacher_forced(&mut g, tgt, m);
                    let t: Vec<usize> = tgt.iter().map(|&t| t as usize).collect();
                    let loss = g.cross_entropy_rows(logits, &t);
                    g.backward(loss)
                };
                grads.merge(gr);
            }
            grads.scale(0.5);
            opt.step(&mut params, grads);
        }
        let mut g = Graph::new(&params, false, 0);
        let ma = g.input(mem_a.clone());
        let mb = g.input(mem_b.clone());
        assert_eq!(d.greedy(&mut g, ma, 3), vec![7]);
        assert_eq!(d.greedy(&mut g, mb, 3), vec![9]);
    }
}
