//! Seeded inputs, built only from `wb-corpus` public functions: default
//! corpus pages, the heavy-padded hostile site, and the serving stream.
//! The same seed always gives the same bytes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wb_corpus::{
    generate_page, generate_site, with_hidden_nav, PageConfig, SiteFile, SiteScenario,
    SiteSpec, SiteSpecConfig, Taxonomy, BOILERPLATE,
};

/// Taxonomy the model is trained on; inputs are drawn from its topics so
/// every page is in-domain for the tokenizer.
pub const TRAIN_SEED: u64 = 7;
/// Subjects per family in the training recipe.
pub const TRAIN_SUBJECTS: usize = 1;

fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ stream)
}

/// `n` labelled corpus pages of the generator's default shape, cycling
/// through the training taxonomy's topics.
pub fn corpus_pages(seed: u64, stream: u64, n: usize) -> Vec<String> {
    let taxonomy = Taxonomy::build(TRAIN_SEED, TRAIN_SUBJECTS);
    let topics = taxonomy.topics();
    let mut rng = rng(seed, stream);
    (0..n)
        .map(|i| {
            generate_page(&topics[i % topics.len()], PageConfig::default(), &mut rng)
                .dom
                .to_html()
        })
        .collect()
}

/// Appends `bytes` of markup that renders nothing: scripts, styles and
/// hidden subtrees, the bulk of a real page's weight. Adds no anchors and
/// no visible words, so the page keeps its class and its brief.
fn pad(html: &str, bytes: usize, rng: &mut StdRng) -> String {
    let word = |rng: &mut StdRng| BOILERPLATE[rng.gen_range(0..BOILERPLATE.len())];
    let mut padding = String::with_capacity(bytes + 4096);
    while padding.len() < bytes {
        let k = rng.gen_range(0..1000u32);
        match rng.gen_range(0..4u32) {
            0 => {
                padding.push_str("<script>");
                for j in 0..rng.gen_range(20..60u32) {
                    padding.push_str(&format!(
                        "var v{k}_{j} = [{j}, {k}, \"{}\"]; function f{k}_{j}(x) {{ return x * {j} + {k}; }}\n",
                        word(rng)
                    ));
                }
                padding.push_str("</script>");
            }
            1 => {
                padding.push_str("<style>");
                for j in 0..rng.gen_range(20..60u32) {
                    padding.push_str(&format!(
                        ".c{k}-{j} {{ margin: 0 {j}px; color: #{k:03x}{j:03x}; }}\n"
                    ));
                }
                padding.push_str("</style>");
            }
            2 => {
                padding.push_str("<div hidden><ul class=\"menu\">");
                for _ in 0..rng.gen_range(10..30u32) {
                    padding.push_str(&format!(
                        "<li class=\"item-{k}\"><span>{}</span></li>",
                        word(rng)
                    ));
                }
                padding.push_str("</ul></div>");
            }
            _ => {
                padding.push_str("<div style=\"display:none\"><section>");
                for _ in 0..rng.gen_range(4..12u32) {
                    let words: Vec<&str> =
                        (0..rng.gen_range(8..20)).map(|_| word(rng)).collect();
                    padding.push_str(&format!("<p data-k=\"{k}\">{}</p>", words.join(" ")));
                }
                padding.push_str("</section></div>");
            }
        }
    }
    match html.rfind("</body>") {
        Some(pos) => format!("{}{padding}{}", &html[..pos], &html[pos..]),
        None => format!("{html}{padding}"),
    }
}

/// The `crawl_heavy` site: the `mixed` hostile scenario, with every page
/// that was not generated malformed padded to 100–300 KB.
pub fn heavy_site(seed: u64, pages: usize) -> SiteSpec {
    let taxonomy = Taxonomy::build(TRAIN_SEED, TRAIN_SUBJECTS);
    let topics = taxonomy.topics();
    let mut rng = rng(seed, 2);
    let topic = &topics[rng.gen_range(0..topics.len())];
    let cfg =
        SiteSpecConfig { pages, scenario: SiteScenario::Mixed, page: PageConfig::default() };
    let mut site = generate_site(topic, cfg, &mut rng);
    for f in &mut site.files {
        if f.url != "/" && !site.hostile.contains(&f.url) {
            let bytes = rng.gen_range(100_000..300_000);
            f.html = pad(&f.html, bytes, &mut rng);
        }
    }
    site
}

/// A clean site over `pages`, linked the way `generate_site` links its
/// pages (an index into the first four, then each page to the next two),
/// so the pipeline can be profiled on any workload's pages.
pub fn site_of(pages: &[String]) -> SiteSpec {
    let url = |i: usize| format!("/page/{i}");
    let mut index = String::from("<body><h1>site index</h1><ul>");
    for i in 0..pages.len().min(4) {
        index.push_str(&format!("<li><a href=\"{}\">item {i}</a></li>", url(i)));
    }
    for i in 0..24 {
        index.push_str(&format!("<li><a href=\"#pad{i}\">menu</a></li>"));
    }
    index.push_str("</ul></body>");
    let mut files = vec![SiteFile { url: "/".to_string(), html: index }];
    for (i, html) in pages.iter().enumerate() {
        let links: Vec<String> = (i + 1..pages.len().min(i + 3)).map(url).collect();
        files.push(SiteFile { url: url(i), html: with_hidden_nav(html, &links) });
    }
    SiteSpec { files, hostile: Vec::new() }
}

/// Pages for `serve_mixed`.
pub struct Stream {
    /// Pages warmed into the cache during set-up and repeated as hits.
    pub hot: Vec<String>,
    /// Pages for the untimed warm-up traffic.
    pub warm: Vec<String>,
    /// Pages never sent before the timed phases: each one is a model miss.
    pub fresh: Vec<String>,
}

/// The serving stream: a small hot set, warm-up pages, and more fresh
/// pages than a run can send.
pub fn stream(seed: u64, hot: usize, warm: usize, fresh: usize) -> Stream {
    Stream {
        hot: corpus_pages(seed, 3, hot),
        warm: corpus_pages(seed, 4, warm),
        fresh: corpus_pages(seed, 5, fresh),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wb_html::{classify_page, parse_document, visible_text, PageKind};

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(corpus_pages(3, 1, 4), corpus_pages(3, 1, 4));
        assert_ne!(corpus_pages(3, 1, 4), corpus_pages(4, 1, 4));
        let (a, b) = (heavy_site(3, 8), heavy_site(3, 8));
        assert!(a.files.iter().zip(&b.files).all(|(x, y)| x.url == y.url && x.html == y.html));
    }

    #[test]
    fn padding_keeps_class_and_visible_text() {
        let page = &corpus_pages(1, 1, 1)[0];
        let mut rng = rng(1, 9);
        let padded = pad(page, 120_000, &mut rng);
        assert!(padded.len() >= 120_000);
        let (a, b) = (parse_document(page).unwrap(), parse_document(&padded).unwrap());
        assert_eq!(visible_text(&a), visible_text(&b));
        assert_eq!(classify_page(&b), PageKind::ContentRich);
    }
}
