//! Golden oracle: briefs of a fixed model on a fixed page set, checked
//! byte for byte against files committed under `tests/golden/`.
//!
//! The model is the seeded `wb train --epochs 40 --subjects 1 --pages 4
//! --seed 7` recipe, retrained in-process (its checkpoint digest is pinned
//! too, so a training change cannot pass itself off as an inference
//! change). The pages are committed bytes: corpus pages, one long
//! multi-chunk page, and one on-disk site per `wb generate --site
//! --scenario` kind. Every entry point that reaches the model —
//! `brief_html`, `brief_corpus`, `brief_chunks` and `crawl_brief` — must
//! reproduce the committed output at rayon pools of 1 and 4 threads.
//!
//! The expected files were written by this test on the code they pin
//! (`WB_GOLDEN_BLESS=1 cargo test --test golden`). They are an oracle: a
//! change to them needs a written reason, never a re-bless to make a
//! failing refactor pass.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use webpage_briefing::core::{
    crawl_brief, encode_chunked, Brief, BriefError, Briefer, Checkpoint, JointModel,
    JointVariant, ModelConfig, PipelineConfig, TrainConfig,
};
use webpage_briefing::corpus::{Dataset, DatasetConfig};
use webpage_briefing::html::{parse_document, visible_text};
use webpage_briefing::text::{split_sentences, ChunkConfig};

const SCENARIOS: [&str; 5] = ["clean", "malformed", "boilerplate", "near-dup", "mixed"];

/// The chunk shape of the small-chunk oracle: every corpus page spans
/// several sub-documents, so multi-chunk briefing is pinned page by page.
const SMALL_CHUNKS: ChunkConfig = ChunkConfig { doc_len: 128, sub_len: 32 };

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn bless() -> bool {
    std::env::var_os("WB_GOLDEN_BLESS").is_some()
}

/// 64-bit FNV-1a.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Compares `actual` with the committed file `name` (or writes it when
/// blessing).
fn check(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if bless() {
        std::fs::write(&path, actual).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read golden file {}: {e}", path.display()));
    if expected != actual {
        let first = expected
            .lines()
            .zip(actual.lines())
            .position(|(e, a)| e != a)
            .unwrap_or(expected.lines().count().min(actual.lines().count()));
        panic!(
            "{name} differs from the golden file at line {}:\n  expected: {}\n    actual: {}",
            first + 1,
            expected.lines().nth(first).unwrap_or("<end of file>"),
            actual.lines().nth(first).unwrap_or("<end of file>"),
        );
    }
}

/// The recipe model, saved and loaded back the way `wb brief` loads it.
fn briefer() -> &'static Briefer {
    static BRIEFER: OnceLock<Briefer> = OnceLock::new();
    BRIEFER.get_or_init(|| {
        let mut cfg = DatasetConfig::tiny();
        cfg.subjects_per_family = 1;
        cfg.pages_per_topic = 4;
        cfg.seed = 7;
        let dataset = Dataset::generate(&cfg);
        let mut tc = TrainConfig::scaled(40);
        tc.lr = 0.01;
        tc.decay = 0.98;
        let model_cfg = ModelConfig::scaled(dataset.tokenizer.vocab().len());
        let trained = Briefer::train_with(&dataset, model_cfg, tc, 7);
        let dir = std::env::temp_dir().join(format!("wb_golden_model_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create model dir");
        let path = dir.join("model.json");
        trained.checkpoint(&dataset.tokenizer).save(&path).expect("save checkpoint");
        let bytes = std::fs::read(&path).expect("read checkpoint");
        check("model.fnv", &format!("{:016x}\n", fnv(&bytes)));
        let loaded =
            Briefer::from_checkpoint(&Checkpoint::load(&path).expect("load checkpoint"))
                .expect("checkpoint holds a briefer");
        let _ = std::fs::remove_dir_all(&dir);
        loaded
    })
}

/// Every committed page, as (fixture-relative path, html), in a fixed
/// order: `pages/` first, then each site's files.
fn pages() -> Vec<(String, String)> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
            .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
            .map(|e| e.expect("dir entry").path())
            .collect();
        entries.sort();
        for p in entries {
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "html") {
                out.push(p);
            }
        }
    }
    let root = golden_dir();
    let mut files = Vec::new();
    walk(&root.join("pages"), &mut files);
    for s in SCENARIOS {
        walk(&root.join("sites").join(s), &mut files);
    }
    files
        .into_iter()
        .map(|p| {
            let rel = p.strip_prefix(&root).unwrap().to_string_lossy().into_owned();
            // Hostile pages may hold invalid UTF-8; briefing sees them the
            // way `wb brief` reads them.
            let html =
                String::from_utf8_lossy(&std::fs::read(&p).expect("read page")).into_owned();
            (rel, html)
        })
        .collect()
}

/// One oracle line: the page and its brief (compact JSON) or error.
fn line(page: &str, result: &Result<Brief, BriefError>) -> String {
    let page = serde_json::to_string(page).unwrap();
    match result {
        Ok(b) => {
            format!("{{\"page\":{page},\"brief\":{}}}\n", serde_json::to_string(b).unwrap())
        }
        Err(e) => {
            let e = serde_json::to_string(&e.to_string()).unwrap();
            format!("{{\"page\":{page},\"error\":{e}}}\n")
        }
    }
}

fn lines(pages: &[(String, String)], results: &[Result<Brief, BriefError>]) -> String {
    pages.iter().zip(results).map(|((p, _), r)| line(p, r)).collect()
}

/// The crawl-to-brief output of one committed site.
fn crawl(b: &Briefer, scenario: &str) -> String {
    let out =
        std::env::temp_dir().join(format!("wb_golden_crawl_{}_{scenario}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    std::fs::create_dir_all(&out).expect("create crawl dir");
    let cfg = PipelineConfig {
        site_dir: golden_dir().join("sites").join(scenario),
        out_path: out.join("briefs.jsonl"),
        dead_letter_path: out.join("briefs.dead.jsonl"),
        journal_path: out.join("briefs.journal"),
        snapshot_path: out.join("briefs.snapshot"),
        ..PipelineConfig::default()
    };
    crawl_brief(b, &cfg).unwrap_or_else(|e| panic!("crawl {scenario}: {e}"));
    let text = std::fs::read_to_string(&cfg.out_path).expect("read crawl output");
    let _ = std::fs::remove_dir_all(&out);
    text
}

/// Briefs every page through every entry point at 1 and 4 threads. One
/// test, because `RAYON_NUM_THREADS` is process-global.
#[test]
fn briefs_match_the_golden_files_at_1_and_4_threads() {
    let b = briefer();
    let small = Briefer::from_model(
        JointModel::from_checkpoint(&b.checkpoint(b.tokenizer())).expect("joint checkpoint"),
        b.tokenizer().clone(),
    )
    .with_chunk_config(SMALL_CHUNKS);
    let pages = pages();
    let htmls: Vec<String> = pages.iter().map(|(_, h)| h.clone()).collect();
    let saved = std::env::var("RAYON_NUM_THREADS").ok();
    for threads in ["1", "4"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        let single: Vec<_> = htmls.iter().map(|h| b.brief_html(h)).collect();
        check("briefs.jsonl", &lines(&pages, &single));
        assert_eq!(
            lines(&pages, &b.brief_corpus(&htmls)),
            lines(&pages, &single),
            "brief_corpus differs from brief_html at {threads} threads"
        );
        let small_briefs: Vec<_> = htmls.iter().map(|h| small.brief_html(h)).collect();
        check("briefs_small_chunks.jsonl", &lines(&pages, &small_briefs));
        for s in SCENARIOS {
            check(&format!("crawl_{s}.jsonl"), &crawl(b, s));
        }
    }
    match saved {
        Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
}

/// A page that spans several sub-documents, briefed straight through
/// `brief_chunks`, equals its golden line (topic from the first chunk,
/// attributes and informative sentences unioned across all of them).
#[test]
fn multi_chunk_page_via_brief_chunks_matches_the_golden() {
    let b = briefer();
    let html = std::fs::read_to_string(golden_dir().join("pages/long.html")).unwrap();
    let sentences = split_sentences(&visible_text(&parse_document(&html).unwrap()));
    let chunks = encode_chunked(&sentences, b.tokenizer(), b.chunk_config());
    assert!(chunks.len() > 1, "long.html must span several sub-documents");
    let got = line("pages/long.html", &Ok(b.brief_chunks(&chunks)));
    let golden = std::fs::read_to_string(golden_dir().join("briefs.jsonl")).unwrap();
    let want = golden
        .lines()
        .find(|l| l.starts_with("{\"page\":\"pages/long.html\""))
        .expect("long.html has a golden line");
    assert_eq!(got.trim_end(), want);
}

/// (tags, topic, sections) of every joint variant on the tiny dataset,
/// pinned as one digest per variant. Seeded untrained weights keep the
/// outputs varied without a training run per variant.
#[test]
fn every_joint_variant_matches_its_pinned_digest() {
    const VARIANTS: [JointVariant; 7] = [
        JointVariant::NaiveJoin,
        JointVariant::ConExtractor,
        JointVariant::AveExtractor,
        JointVariant::AttExtractor,
        JointVariant::AttBoth,
        JointVariant::PipBoth,
        JointVariant::JointWb,
    ];
    let d = Dataset::generate(&DatasetConfig::tiny());
    let cfg = ModelConfig::scaled(d.tokenizer.vocab().len());
    let mut out = String::new();
    for v in VARIANTS {
        let m = JointModel::new(v, cfg, 11);
        let mut text = String::new();
        for ex in d.examples.iter().take(8) {
            let tags = m.predict_tags(ex);
            let topic = m.generate(ex);
            let sections = m.predict_sections(ex);
            text.push_str(&format!("{tags:?} {topic:?} {sections:?}\n"));
        }
        out.push_str(&format!("{} {:016x}\n", v.name(), fnv(text.as_bytes())));
    }
    check("variants.txt", &out);
}
