//! The user-facing Webpage Briefing API: feed HTML in, get the hierarchical
//! brief out — the broad topic at the top, key attributes below it
//! (Fig. 1 of the paper).

use crate::joint::{JointModel, JointVariant};
use crate::{ModelConfig, TrainConfig};
use wb_corpus::{AttrKind, Dataset, Example, TopicId};
use wb_eval::bio_to_spans;
use wb_html::parse_document;
use wb_text::{split_sentences, ChunkConfig, WordPiece, CLS};

/// One extracted key attribute.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BriefAttribute {
    /// Predicted attribute name (the paper's future-work extension: we
    /// infer it from the cue phrase preceding the span; `"attribute"` when
    /// no cue matches).
    pub name: String,
    /// The extracted value text.
    pub value: String,
}

/// A hierarchical webpage brief, following the paper's Fig. 1: the broad
/// topic at the top, then the high-level key attribute (a more precise
/// category of the page), then the detailed key attributes.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Brief {
    /// Level 1: the generated broad topic of the webpage.
    pub topic: String,
    /// Level 2: the high-level key attribute — the page's precise category,
    /// when one of the extracted attributes was introduced by a category
    /// cue.
    pub category: Option<String>,
    /// Level 3: the remaining detailed key attributes, in document order.
    pub attributes: Vec<BriefAttribute>,
    /// Sentence indices the model considers informative (when the model has
    /// a section predictor).
    pub informative_sentences: Vec<usize>,
}

impl Brief {
    /// Renders the brief as the hierarchy shown in the paper's Fig. 1.
    pub fn render(&self) -> String {
        let mut out = format!("Topic: {}\n", self.topic);
        if let Some(cat) = &self.category {
            out.push_str(&format!("  Category: {cat}\n"));
        }
        for a in &self.attributes {
            out.push_str(&format!("  - {}: {}\n", a.name, a.value));
        }
        out
    }

    /// Number of hierarchy levels present (1–3).
    pub fn depth(&self) -> usize {
        1 + usize::from(self.category.is_some()) + usize::from(!self.attributes.is_empty())
    }
}

/// Errors from [`Briefer::brief_html`].
#[derive(Debug)]
pub enum BriefError {
    /// The HTML could not be parsed.
    Parse(wb_html::ParseError),
    /// The page has no visible text to brief.
    EmptyPage,
}

impl std::fmt::Display for BriefError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BriefError::Parse(e) => write!(f, "failed to parse page: {e}"),
            BriefError::EmptyPage => write!(f, "page has no visible text"),
        }
    }
}

impl std::error::Error for BriefError {}

/// Encodes raw sentences into an unlabelled [`Example`] for inference.
pub fn encode_text(sentences: &[String], wp: &WordPiece) -> Example {
    let mut tokens = Vec::new();
    let mut cls_positions = Vec::new();
    let mut sentence_of = Vec::new();
    for (s_idx, sent) in sentences.iter().enumerate() {
        cls_positions.push(tokens.len());
        tokens.push(CLS);
        sentence_of.push(s_idx);
        for id in wp.encode(sent) {
            tokens.push(id);
            sentence_of.push(s_idx);
        }
    }
    let n = tokens.len();
    let m = cls_positions.len();
    Example {
        topic: TopicId(0),
        tokens,
        cls_positions,
        sentence_of,
        bio: vec![0; n],
        informative: vec![false; m],
        topic_target: vec![wb_text::EOS],
        attr_spans: Vec::new(),
    }
}

/// Splits raw sentences into 512-token-style sub-document [`Example`]s,
/// mirroring the training-time preprocessing in [`wb_text::EncodedDoc`]
/// (§IV-A3): sub-documents hold whole sentences where possible, a sentence
/// longer than `cfg.sub_len` is cut at the sub-document boundary, and the
/// page is truncated at `cfg.doc_len` real tokens overall. Unlike training,
/// no `[PAD]` is appended — each sub-document is encoded on its own, so
/// padding would only shift the LSTM states away from the unchunked path.
///
/// A page that fits inside one sub-document yields a single [`Example`]
/// identical to [`encode_text`]'s output, which keeps chunked inference
/// byte-equivalent to the unchunked path for short pages.
pub fn encode_chunked(sentences: &[String], wp: &WordPiece, cfg: ChunkConfig) -> Vec<Example> {
    assert!(
        cfg.sub_len >= 2 && cfg.doc_len.is_multiple_of(cfg.sub_len),
        "sub_len must be >= 2 and divide doc_len"
    );
    let mut chunks: Vec<Example> = Vec::new();
    let mut tokens: Vec<u32> = Vec::new();
    let mut cls_positions: Vec<usize> = Vec::new();
    let mut sentence_of: Vec<usize> = Vec::new();
    let mut total = 0usize;
    let close = |tokens: &mut Vec<u32>,
                 cls_positions: &mut Vec<usize>,
                 sentence_of: &mut Vec<usize>,
                 chunks: &mut Vec<Example>| {
        if tokens.is_empty() {
            return;
        }
        let n = tokens.len();
        let m = cls_positions.len();
        chunks.push(Example {
            topic: TopicId(0),
            tokens: std::mem::take(tokens),
            cls_positions: std::mem::take(cls_positions),
            sentence_of: std::mem::take(sentence_of),
            bio: vec![0; n],
            informative: vec![false; m],
            topic_target: vec![wb_text::EOS],
            attr_spans: Vec::new(),
        });
    };
    for sent in sentences {
        // Like EncodedDoc: never start a sentence whose [CLS] would be the
        // document's final token slot.
        if total + 1 >= cfg.doc_len {
            break;
        }
        let ids = wp.encode(sent);
        // Whole sentences go into one sub-document when they fit; close the
        // current chunk when this sentence would straddle its boundary.
        if !tokens.is_empty() && tokens.len() + 1 + ids.len() > cfg.sub_len {
            close(&mut tokens, &mut cls_positions, &mut sentence_of, &mut chunks);
        }
        // Sentence indices are chunk-local (0-based per Example) so each
        // sub-document is a self-consistent model input; callers that need
        // document-global sentence numbers offset by the preceding chunks'
        // sentence counts.
        let s_idx = cls_positions.len();
        let room = (cfg.sub_len - tokens.len()).min(cfg.doc_len - total);
        cls_positions.push(tokens.len());
        tokens.push(CLS);
        sentence_of.push(s_idx);
        total += 1;
        for &id in ids.iter().take(room - 1) {
            tokens.push(id);
            sentence_of.push(s_idx);
            total += 1;
        }
    }
    close(&mut tokens, &mut cls_positions, &mut sentence_of, &mut chunks);
    chunks
}

/// A trained briefing pipeline: tokenizer + Joint-WB model.
pub struct Briefer {
    model: JointModel,
    tokenizer: WordPiece,
    chunk: ChunkConfig,
}

impl Briefer {
    /// Trains a Joint-WB model on a dataset's training split.
    pub fn train(dataset: &Dataset, train_cfg: TrainConfig, seed: u64) -> Briefer {
        let model_cfg = ModelConfig::scaled(dataset.tokenizer.vocab().len());
        Self::train_with(dataset, model_cfg, train_cfg, seed)
    }

    /// Trains with an explicit model configuration.
    pub fn train_with(
        dataset: &Dataset,
        model_cfg: ModelConfig,
        train_cfg: TrainConfig,
        seed: u64,
    ) -> Briefer {
        let mut model = JointModel::new(JointVariant::JointWb, model_cfg, seed);
        let split = dataset.split(train_cfg.seed);
        crate::trainer::train(&mut model, &dataset.examples, &split.train, train_cfg);
        Self::from_model(model, dataset.tokenizer.clone())
    }

    /// [`Briefer::train_with`], crash-safe: snapshots a
    /// [`crate::TrainState`] per `policy` and can continue a killed run
    /// from `resume` — the finished model is byte-identical to an
    /// uninterrupted run (see [`crate::train_resumable`]).
    pub fn train_resumable_with(
        dataset: &Dataset,
        model_cfg: ModelConfig,
        train_cfg: TrainConfig,
        seed: u64,
        policy: Option<&crate::CheckpointPolicy>,
        resume: Option<crate::TrainState>,
    ) -> Result<(Briefer, crate::TrainStats), crate::TrainError> {
        let mut model = JointModel::new(JointVariant::JointWb, model_cfg, seed);
        let split = dataset.split(train_cfg.seed);
        let stats = crate::trainer::train_resumable(
            &mut model,
            &dataset.examples,
            &split.train,
            train_cfg,
            policy,
            resume,
        )?;
        Ok((Self::from_model(model, dataset.tokenizer.clone()), stats))
    }

    /// Wraps an already-trained joint model. Inference chunking defaults to
    /// the training-time shape — `max_len`-token sub-documents, four per
    /// document (the paper's 512 × 4) — so served pages match the training
    /// distribution.
    pub fn from_model(model: JointModel, tokenizer: WordPiece) -> Briefer {
        let max_len = model.config().max_len;
        let chunk = ChunkConfig { doc_len: 4 * max_len, sub_len: max_len };
        Briefer { model, tokenizer, chunk }
    }

    /// Overrides the inference-time chunking shape.
    pub fn with_chunk_config(mut self, chunk: ChunkConfig) -> Briefer {
        assert!(
            chunk.sub_len >= 2 && chunk.doc_len.is_multiple_of(chunk.sub_len),
            "sub_len must be >= 2 and divide doc_len"
        );
        self.chunk = chunk;
        self
    }

    /// The inference-time chunking shape.
    pub fn chunk_config(&self) -> ChunkConfig {
        self.chunk
    }

    /// The underlying model.
    pub fn model(&self) -> &JointModel {
        &self.model
    }

    /// The tokenizer the model was trained with (streaming pipelines
    /// encode pages in a separate stage from briefing).
    pub fn tokenizer(&self) -> &WordPiece {
        &self.tokenizer
    }

    /// Briefs a raw HTML page.
    ///
    /// Each stage of the pipeline runs under a `wb-obs` span —
    /// `brief.page` wrapping `brief.parse` → `brief.normalize` →
    /// `brief.wordpiece` → per sub-document the model stages of
    /// [`JointModel::infer`] (`brief.encode` with `brief.embed`,
    /// `brief.e_bilstm`, `brief.g_bilstm`, `brief.sections`; then
    /// `brief.greedy`, `brief.extract_head`, `brief.beam`,
    /// `brief.release`) and `brief.assemble` — so `wb report` can show where page latency goes.
    /// Spans time; they never alter the brief.
    pub fn brief_html(&self, html: &str) -> Result<Brief, BriefError> {
        let _page = wb_obs::span!("brief.page");
        let dom = {
            let _s = wb_obs::span!("brief.parse");
            parse_document(html).map_err(BriefError::Parse)?
        };
        let sentences = {
            let _s = wb_obs::span!("brief.normalize");
            split_sentences(&wb_html::visible_text(&dom))
        };
        if sentences.is_empty() {
            wb_obs::debug!("page rejected: no visible text");
            return Err(BriefError::EmptyPage);
        }
        let chunks = {
            let _s = wb_obs::span!("brief.wordpiece");
            encode_chunked(&sentences, &self.tokenizer, self.chunk)
        };
        wb_obs::counter!("brief.pages");
        wb_obs::counter!("brief.chunks", chunks.len());
        Ok(self.brief_chunks(&chunks))
    }

    /// Briefs a batch of HTML pages, fanning pages over the rayon pool.
    ///
    /// Results come back in input order regardless of thread count, and
    /// each entry is identical to what [`Briefer::brief_html`] returns for
    /// the same page: briefing is a pure function of (model, page), so the
    /// parallel fan-out cannot change any output, only the wall-clock time.
    /// Set `RAYON_NUM_THREADS=1` to force sequential execution.
    pub fn brief_corpus(&self, htmls: &[String]) -> Vec<Result<Brief, BriefError>> {
        use rayon::prelude::*;
        let start = std::time::Instant::now();
        let out: Vec<Result<Brief, BriefError>> =
            htmls.par_iter().map(|html| self.brief_html(html)).collect();
        let secs = start.elapsed().as_secs_f64();
        if secs > 0.0 {
            wb_obs::gauge!("brief.pages_per_sec", htmls.len() as f64 / secs);
        }
        wb_obs::info!("briefed {} pages in {secs:.3}s", htmls.len());
        out
    }

    /// Briefs an already-encoded example (a single sub-document).
    pub fn brief_example(&self, ex: &Example) -> Brief {
        self.brief_chunks(std::slice::from_ref(ex))
    }

    /// Briefs a page given its sub-documents in document order (the output
    /// of [`encode_chunked`]): the broad topic is generated from the first
    /// sub-document — the page head, where the paper's corpus carries the
    /// topical signal — while extraction runs over every sub-document and
    /// the attributes are unioned in document order. Each sub-document
    /// takes one [`JointModel::infer`] pass; only the first runs the beam.
    /// For a single chunk this is exactly the unchunked pipeline.
    pub fn brief_chunks(&self, chunks: &[Example]) -> Brief {
        let mut brief = Brief {
            topic: String::new(),
            category: None,
            attributes: Vec::new(),
            informative_sentences: Vec::new(),
        };
        let mut sentence_base = 0usize;
        for (i, ex) in chunks.iter().enumerate() {
            let inference = self.model.infer(ex, i == 0);
            let _s = wb_obs::span!("brief.assemble");
            if let Some(topic_ids) = inference.topic {
                brief.topic = self.tokenizer.decode_ids(&topic_ids).join(" ");
            }
            for (s, e) in bio_to_spans(&inference.tags) {
                let value = self.tokenizer.decode_ids(&ex.tokens[s..e]).join(" ");
                let name = infer_attribute_name(&self.tokenizer, ex, s);
                // The category attribute is promoted to its own hierarchy
                // level (the paper's "high-level key attribute"); the first
                // one in document order wins.
                if name == "category" && brief.category.is_none() {
                    brief.category = Some(value);
                } else {
                    brief.attributes.push(BriefAttribute { name, value });
                }
            }
            // Sentence flags are chunk-local; shift them to document-global
            // sentence numbers.
            if let Some(flags) = inference.sections {
                brief.informative_sentences.extend(
                    flags
                        .iter()
                        .enumerate()
                        .filter(|&(_, &f)| f)
                        .map(|(i, _)| sentence_base + i),
                );
            }
            sentence_base += ex.num_sentences();
        }
        brief
    }
}

/// Infers an attribute name from the cue words preceding a span — the
/// paper's future-work extension ("we plan to predict attribute names for
/// key attributes").
fn infer_attribute_name(wp: &WordPiece, ex: &Example, span_start: usize) -> String {
    let window_start = span_start.saturating_sub(4);
    let before: Vec<String> = wp.decode_ids(&ex.tokens[window_start..span_start]);
    let before_text = before.join(" ");
    // All cue phrases from the taxonomy, matched by suffix.
    for kind in ALL_KINDS {
        let cue = kind.cue();
        if before_text.ends_with(cue) || before_text.ends_with(cue.trim_end_matches(" $")) {
            return kind.name().to_string();
        }
    }
    "attribute".to_string()
}

const ALL_KINDS: [AttrKind; 22] = [
    AttrKind::Category,
    AttrKind::ItemName,
    AttrKind::Maker,
    AttrKind::Price,
    AttrKind::Headline,
    AttrKind::Author,
    AttrKind::Date,
    AttrKind::JobTitle,
    AttrKind::Company,
    AttrKind::Salary,
    AttrKind::CourseName,
    AttrKind::Instructor,
    AttrKind::Fee,
    AttrKind::Destination,
    AttrKind::Hotel,
    AttrKind::Condition,
    AttrKind::Specialist,
    AttrKind::Clinic,
    AttrKind::PropertyName,
    AttrKind::Agent,
    AttrKind::EventName,
    AttrKind::Venue,
];

#[cfg(test)]
mod tests {
    use super::*;
    use wb_corpus::DatasetConfig;

    #[test]
    fn encode_text_structure() {
        let d = Dataset::generate(&DatasetConfig::tiny());
        let ex = encode_text(&["hello world .".into(), "more text .".into()], &d.tokenizer);
        assert_eq!(ex.cls_positions.len(), 2);
        assert_eq!(ex.tokens[0], CLS);
        assert_eq!(ex.tokens.len(), ex.sentence_of.len());
        assert_eq!(ex.tokens.len(), ex.bio.len());
    }

    #[test]
    fn brief_renders_hierarchy() {
        let b = Brief {
            topic: "fiction goods shopping".into(),
            category: Some("fiction".into()),
            attributes: vec![
                BriefAttribute { name: "price".into(), value: "<digit>".into() },
                BriefAttribute { name: "maker".into(), value: "emma smith".into() },
            ],
            informative_sentences: vec![2, 3],
        };
        let r = b.render();
        assert!(r.starts_with("Topic: fiction goods shopping"));
        assert!(r.contains("  Category: fiction"));
        assert!(r.contains("- price: <digit>"));
        assert_eq!(b.depth(), 3);
    }

    #[test]
    fn untrained_briefer_still_produces_well_formed_output() {
        let d = Dataset::generate(&DatasetConfig::tiny());
        let cfg = ModelConfig::scaled(d.tokenizer.vocab().len());
        let model = JointModel::new(JointVariant::JointWb, cfg, 0);
        let briefer = Briefer::from_model(model, d.tokenizer.clone());
        let html = "<html><body><section><p>Great velcro books, price : $ 40.13 today.</p>\
                    </section></body></html>";
        let brief = briefer.brief_html(html).expect("briefing should succeed");
        assert!(brief.topic.split(' ').count() <= cfg.max_topic_len);
    }

    #[test]
    fn empty_page_is_an_error() {
        let d = Dataset::generate(&DatasetConfig::tiny());
        let cfg = ModelConfig::scaled(d.tokenizer.vocab().len());
        let model = JointModel::new(JointVariant::JointWb, cfg, 0);
        let briefer = Briefer::from_model(model, d.tokenizer.clone());
        assert!(matches!(
            briefer.brief_html("<html><head><title>x</title></head></html>"),
            Err(BriefError::EmptyPage)
        ));
    }

    #[test]
    fn short_pages_chunked_equals_unchunked() {
        let d = Dataset::generate(&DatasetConfig::tiny());
        let cfg = ModelConfig::scaled(d.tokenizer.vocab().len());
        let model = JointModel::new(JointVariant::JointWb, cfg, 3);
        let briefer = Briefer::from_model(model, d.tokenizer.clone());
        let html = "<html><body><section><p>Great velcro books, price : $ 40.13 today.</p>\
                    <p>A second sentence about fiction goods.</p></section></body></html>";
        // The page fits inside one sub-document, so the chunked pipeline
        // must reduce to exactly the historical unchunked one.
        let sentences = split_sentences(&wb_html::visible_text(&parse_document(html).unwrap()));
        let chunks = encode_chunked(&sentences, &d.tokenizer, briefer.chunk_config());
        assert_eq!(chunks.len(), 1, "short page must be a single chunk");
        let unchunked = encode_text(&sentences, &d.tokenizer);
        assert_eq!(chunks[0].tokens, unchunked.tokens);
        assert_eq!(chunks[0].cls_positions, unchunked.cls_positions);
        assert_eq!(chunks[0].sentence_of, unchunked.sentence_of);
        let via_html = briefer.brief_html(html).unwrap();
        let via_example = briefer.brief_example(&encode_text(&sentences, &d.tokenizer));
        assert_eq!(via_html, via_example);
    }

    #[test]
    fn encode_chunked_splits_on_sentence_boundaries() {
        let d = Dataset::generate(&DatasetConfig::tiny());
        let sentences: Vec<String> =
            (0..8).map(|i| format!("great velcro books number {i} today .")).collect();
        let one = encode_text(&sentences, &d.tokenizer);
        let per_sent = one.tokens.len() / 8;
        // Pick a sub_len that holds two-ish sentences.
        let sub = (2 * per_sent + 2).max(4);
        let cfg = ChunkConfig { doc_len: sub * 8, sub_len: sub };
        let chunks = encode_chunked(&sentences, &d.tokenizer, cfg);
        assert!(chunks.len() > 1, "long page must chunk");
        for ex in &chunks {
            assert!(ex.tokens.len() <= sub);
            assert_eq!(ex.tokens[0], CLS);
            assert_eq!(ex.tokens.len(), ex.sentence_of.len());
            assert_eq!(ex.tokens.len(), ex.bio.len());
            assert_eq!(ex.cls_positions.len(), ex.informative.len());
            // Chunk-local sentence numbering starts at 0.
            assert_eq!(ex.sentence_of[0], 0);
        }
        // No sentence was split across a chunk boundary (each fits), so the
        // concatenation reproduces the unchunked token stream.
        let rejoined: Vec<u32> = chunks.iter().flat_map(|e| e.tokens.clone()).collect();
        assert_eq!(rejoined, one.tokens);
        let total_sentences: usize = chunks.iter().map(|e| e.num_sentences()).sum();
        assert_eq!(total_sentences, 8);
    }

    #[test]
    fn encode_chunked_caps_adversarially_long_pages() {
        let d = Dataset::generate(&DatasetConfig::tiny());
        let sentences: Vec<String> =
            (0..500).map(|_| "great velcro books today .".to_string()).collect();
        let cfg = ChunkConfig { doc_len: 64, sub_len: 16 };
        let chunks = encode_chunked(&sentences, &d.tokenizer, cfg);
        let total: usize = chunks.iter().map(|e| e.tokens.len()).sum();
        assert!(total <= 64, "doc budget exceeded: {total}");
        assert!(chunks.iter().all(|e| e.tokens.len() <= 16), "sub-document budget exceeded");
        // A single overlong sentence is cut at the sub-document boundary.
        let monster = vec!["great velcro books today . ".repeat(50)];
        let chunks = encode_chunked(&monster, &d.tokenizer, cfg);
        assert_eq!(chunks[0].tokens.len(), 16);
        assert_eq!(chunks[0].num_sentences(), 1);
    }

    #[test]
    fn chunked_brief_unions_attributes_in_document_order() {
        let d = Dataset::generate(&DatasetConfig::tiny());
        let cfg = ModelConfig::scaled(d.tokenizer.vocab().len());
        let model = JointModel::new(JointVariant::JointWb, cfg, 3);
        let briefer = Briefer::from_model(model, d.tokenizer.clone())
            .with_chunk_config(ChunkConfig { doc_len: 128, sub_len: 32 });
        // An adversarially long page still briefs (bounded work) and the
        // brief is well-formed.
        let body: String = (0..200)
            .map(|i| format!("<p>great velcro books {i} , price : $ {i}.99 .</p>"))
            .collect();
        let html = format!("<html><body><section>{body}</section></body></html>");
        let brief = briefer.brief_html(&html).unwrap();
        assert!(brief.topic.split(' ').count() <= cfg.max_topic_len);
        // Informative sentence ids are document-global and strictly
        // increasing across chunks.
        assert!(brief.informative_sentences.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn attribute_name_inference_matches_cues() {
        let d = Dataset::generate(&DatasetConfig::tiny());
        let ex = encode_text(&["special , price : $ 42 today .".into()], &d.tokenizer);
        // Find the <digit> token (the 42).
        let digit_id = d.tokenizer.vocab().id("<digit>").unwrap();
        let pos = ex.tokens.iter().position(|&t| t == digit_id).unwrap();
        assert_eq!(infer_attribute_name(&d.tokenizer, &ex, pos), "price");
    }
}
