//! Set-up shared by every workload: train the fixed tiny recipe and
//! round-trip the checkpoint through save and load.

use crate::inputs::{TRAIN_SEED, TRAIN_SUBJECTS};
use std::path::Path;
use std::time::Instant;
use wb_core::{Briefer, Checkpoint, ModelConfig, TrainConfig};
use wb_corpus::{Dataset, DatasetConfig};

/// Epochs of the recipe; below ~30 the generator decodes empty topics.
const EPOCHS: usize = 40;
/// Labelled pages per topic in the recipe.
const PAGES: usize = 4;

/// Seconds spent in each part of one set-up.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    /// Generating the training corpus and training the model.
    pub train_s: f64,
    /// Saving the checkpoint and loading it back.
    pub load_s: f64,
    /// Generating the workload's inputs.
    pub gen_s: f64,
    /// Starting and warming the entry point: the server for serving, one
    /// brief for the offline paths.
    pub start_s: f64,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total(&self) -> f64 {
        self.train_s + self.load_s + self.gen_s + self.start_s
    }
}

/// Trains the recipe `wb train --epochs 40 --subjects 1 --pages 4 --seed 7`
/// runs, saves it to `path` and loads it back, timing both halves. Returns
/// the checkpoint bytes and a briefer restored from them.
pub fn train(path: &Path, times: &mut SetupTimes) -> Result<(Vec<u8>, Briefer), String> {
    let t = Instant::now();
    let mut cfg = DatasetConfig::tiny();
    cfg.subjects_per_family = TRAIN_SUBJECTS;
    cfg.pages_per_topic = PAGES;
    cfg.seed = TRAIN_SEED;
    let dataset = Dataset::generate(&cfg);
    let mut tc = TrainConfig::scaled(EPOCHS);
    tc.lr = 0.01;
    tc.decay = 0.98;
    let model_cfg = ModelConfig::scaled(dataset.tokenizer.vocab().len());
    let trained = Briefer::train_with(&dataset, model_cfg, tc, TRAIN_SEED);
    times.train_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    trained
        .checkpoint(&dataset.tokenizer)
        .save(path)
        .map_err(|e| format!("save checkpoint: {e}"))?;
    let briefer = load(path)?;
    times.load_s = t.elapsed().as_secs_f64();
    let bytes = std::fs::read(path).map_err(|e| format!("read checkpoint: {e}"))?;
    Ok((bytes, briefer))
}

/// A briefer restored from the checkpoint at `path`.
pub fn load(path: &Path) -> Result<Briefer, String> {
    let ckpt = Checkpoint::load(path).map_err(|e| format!("load checkpoint: {e}"))?;
    Briefer::from_checkpoint(&ckpt).map_err(|e| format!("restore checkpoint: {e}"))
}
