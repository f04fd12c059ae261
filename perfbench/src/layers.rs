//! Per-layer profile of the briefing path: each page is taken through the
//! public functions `Briefer::brief_html` calls, one timed call at a time,
//! and right after briefed whole while the `wb-obs` registry counts the
//! encoder passes and tensor work of that call.

use crate::stats::{self, median, Delta, Metrics};
use std::time::Instant;
use wb_core::{encode_chunked, Briefer};
use wb_html::{parse_document, visible_text};
use wb_text::split_sentences;

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Times every layer on `pages` (sequentially, on this thread) and records
/// the `html.*`, `text.*`, `model.*`, `tensor.*`, `core.*` and `json.*`
/// metrics. Pages that do not parse or have no text are skipped.
pub fn profile(briefer: &Briefer, pages: &[String], m: &mut Metrics) {
    let model = briefer.model();
    let (mut parse, mut vis, mut split, mut wp) = (vec![], vec![], vec![], vec![]);
    let (mut generate, mut tags, mut sections, mut assemble) = (vec![], vec![], vec![], vec![]);
    let (mut json, mut chunks, mut topic_tokens) = (vec![], 0usize, 0usize);
    let (mut bytes, mut attributed, mut whole) = (0usize, 0.0, Vec::new());
    let (mut encodes, mut calls, mut flops, mut direct, mut hit, mut miss) = (0, 0, 0, 0, 0, 0);
    stats::reset_gauges(&["tensor.graph.tape_bytes.peak"]);
    for html in pages {
        let t = Instant::now();
        let Ok(dom) = parse_document(html) else { continue };
        let t_parse = ms(t);
        let t = Instant::now();
        let text = visible_text(&dom);
        let t_vis = ms(t);
        let t = Instant::now();
        let sentences = split_sentences(&text);
        let t_split = ms(t);
        if sentences.is_empty() {
            continue;
        }
        let t = Instant::now();
        let ex = encode_chunked(&sentences, briefer.tokenizer(), briefer.chunk_config());
        let t_wp = ms(t);
        let t = Instant::now();
        topic_tokens += model.generate(&ex[0]).len();
        let t_gen = ms(t);
        let mut t_model = t_gen;
        for chunk in &ex {
            let t = Instant::now();
            std::hint::black_box(model.predict_tags(chunk));
            tags.push(ms(t));
            let t = Instant::now();
            std::hint::black_box(model.predict_sections(chunk));
            sections.push(ms(t));
            t_model += tags[tags.len() - 1] + sections[sections.len() - 1];
        }
        let t = Instant::now();
        let brief = briefer.brief_chunks(&ex);
        assemble.push(ms(t) - t_model);
        let t = Instant::now();
        std::hint::black_box(serde_json::to_string_pretty(&brief).expect("a Brief serialises"));
        json.push(t.elapsed().as_secs_f64() * 1e6);
        attributed += t_parse + t_vis + t_split + t_wp + t_model;
        bytes += html.len();
        chunks += ex.len();
        parse.push(t_parse);
        vis.push(t_vis);
        split.push(t_split);
        wp.push(t_wp);
        generate.push(t_gen);

        // The whole call, with the registry counting what it does.
        let before = Delta::begin();
        let t = Instant::now();
        std::hint::black_box(briefer.brief_html(html).is_ok());
        whole.push(ms(t));
        let d = Delta::end(before);
        encodes += d.span("brief.encode").0;
        calls += ["nn", "tn", "nt", "tt"]
            .iter()
            .map(|v| d.counter(&format!("tensor.matmul.calls.{v}")))
            .sum::<u64>();
        flops += d.counter("tensor.matmul.flops");
        direct += d.counter("tensor.matmul.kernel.direct");
        hit += d.counter("tensor.scratch.hit");
        miss += d.counter("tensor.scratch.miss");
    }
    let tape_peak = wb_obs::metrics::snapshot()
        .gauges
        .get("tensor.graph.tape_bytes.peak")
        .copied()
        .unwrap_or(0.0);

    let n = whole.len().max(1) as f64;
    let parse_s: f64 = parse.iter().sum::<f64>() / 1e3;
    m.set("html.parse_ms", median(&parse), "ms");
    m.set("html.parse_mb_s", bytes as f64 / 1e6 / parse_s, "MB/s");
    m.set("html.visible_text_ms", median(&vis), "ms");
    m.set("text.split_ms", median(&split), "ms");
    m.set("text.wordpiece_ms", median(&wp), "ms");
    m.set("text.chunks_per_page", chunks as f64 / n, "count");
    m.set("model.generate_ms", median(&generate), "ms");
    m.set("model.tags_ms", median(&tags), "ms");
    m.set("model.sections_ms", median(&sections), "ms");
    m.set("model.assemble_ms", median(&assemble), "ms");
    m.set("model.encoder_passes_per_page", encodes as f64 / n, "count");
    m.set("model.topic_tokens_per_page", topic_tokens as f64 / n, "count");
    m.set("tensor.matmul_calls_per_page", calls as f64 / n, "count");
    m.set("tensor.gflop_per_page", flops as f64 / 1e9 / n, "GFLOP");
    m.set("tensor.direct_frac", direct as f64 / calls.max(1) as f64, "fraction");
    m.set("tensor.scratch_hit_frac", hit as f64 / (hit + miss).max(1) as f64, "fraction");
    m.set("tensor.tape_peak_mb", tape_peak / 1e6, "MB");
    m.set("core.brief_ms", median(&whole), "ms");
    m.set("core.attributed_frac", attributed / whole.iter().sum::<f64>(), "fraction");
    m.set("json.serialize_us", median(&json), "us");
}
