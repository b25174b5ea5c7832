//! The checkpoint-backed model registry: maps model names to trained
//! [`TsgMethod`] instances reconstructed from `TSGBCK02` (or legacy `TSGBCK01`) checkpoint
//! files.
//!
//! A registry entry is immutable after registration — `generate` is
//! `&self` and every method is `Send + Sync` — so one `Arc<ModelEntry>`
//! is shared by the connection threads that run its batches and any
//! introspection endpoint without locking.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use tsgb_methods::persist::SnapshotReader;
use tsgb_methods::{load_method, TsgMethod};

/// The checkpoint file extension the registry scans for.
pub const CKPT_EXT: &str = "tsgbnn";

/// Shape and identity of one registered model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelInfo {
    /// Registry key (the checkpoint's file stem).
    pub name: String,
    /// The method's display name (`TimeVAE`, `RGAN`, ...).
    pub method: &'static str,
    /// Window length the model generates.
    pub seq_len: usize,
    /// Feature count the model generates.
    pub features: usize,
}

/// One registered model: identity plus the restored method.
pub struct ModelEntry {
    /// Shape and identity.
    pub info: ModelInfo,
    /// The trained method (fitted — registration enforces it).
    pub model: Box<dyn TsgMethod>,
}

/// A name → model map built from a checkpoint directory (or
/// programmatically, for tests and embedded use).
#[derive(Default)]
pub struct Registry {
    models: BTreeMap<String, Arc<ModelEntry>>,
}

/// One checkpoint file the directory scan could not load.
#[derive(Debug)]
pub struct LoadFailure {
    /// File name inside the checkpoint directory.
    pub file: String,
    /// Why it was skipped.
    pub reason: String,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a fitted model under `name`. Fails if the model has
    /// not been fitted (its shape is read from its own checkpoint
    /// header) or the name is already taken.
    pub fn insert(&mut self, name: &str, model: Box<dyn TsgMethod>) -> Result<(), String> {
        if self.models.contains_key(name) {
            return Err(format!("model {name:?} is already registered"));
        }
        let bytes = model
            .save()
            .ok_or_else(|| format!("model {name:?} is not fitted"))?;
        let header = SnapshotReader::peek_header(&bytes).map_err(|e| e.to_string())?;
        let info = ModelInfo {
            name: name.to_string(),
            method: model.name(),
            seq_len: header.seq_len,
            features: header.features,
        };
        self.models
            .insert(name.to_string(), Arc::new(ModelEntry { info, model }));
        Ok(())
    }

    /// Loads every `*.tsgbnn` checkpoint in `dir`. Files that fail to
    /// load are skipped and reported, not fatal: one corrupt
    /// checkpoint must not take down the rest of the fleet.
    pub fn load_dir(dir: &Path) -> std::io::Result<(Self, Vec<LoadFailure>)> {
        Self::load_dir_filtered(dir, None)
    }

    /// Like [`Registry::load_dir`], but when `shard` is given only the
    /// named models are loaded — the worker side of the router's
    /// consistent-hash sharding (`tsgbench serve --models a,b`). A
    /// filtered load may legitimately produce an empty registry (a
    /// worker whose shard is empty still serves `/healthz`).
    pub fn load_dir_filtered(
        dir: &Path,
        shard: Option<&[String]>,
    ) -> std::io::Result<(Self, Vec<LoadFailure>)> {
        let mut registry = Self::new();
        let mut failures = Vec::new();
        for path in scan_checkpoint_paths(dir)? {
            let file = path
                .file_name()
                .and_then(|f| f.to_str())
                .unwrap_or("?")
                .to_string();
            let name = path
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or_default()
                .to_string();
            if let Some(shard) = shard {
                if !shard.contains(&name) {
                    continue;
                }
            }
            let outcome = std::fs::read(&path)
                .map_err(|e| e.to_string())
                .and_then(|bytes| load_method(&bytes).map_err(|e| e.to_string()))
                .and_then(|model| registry.insert(&name, model));
            if let Err(reason) = outcome {
                failures.push(LoadFailure { file, reason });
            }
        }
        Ok((registry, failures))
    }

    /// Looks up a model by registry name.
    pub fn get(&self, name: &str) -> Option<&Arc<ModelEntry>> {
        self.models.get(name)
    }

    /// All registered models, sorted by name.
    pub fn entries(&self) -> impl Iterator<Item = &Arc<ModelEntry>> {
        self.models.values()
    }

    /// How many models are registered.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }
}

/// Every `*.tsgbnn` path in `dir`, **sorted by file name bytes**.
///
/// The order is load-bearing: the router's consistent-hash shard
/// assignment and the registry's load order are both derived from this
/// scan, and `read_dir` returns entries in arbitrary (filesystem-
/// dependent) order — so the sort is what makes shard assignment
/// reproducible across runs and machines. Pinned by
/// `scan_order_is_deterministic` below.
pub fn scan_checkpoint_paths(dir: &Path) -> std::io::Result<Vec<std::path::PathBuf>> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().and_then(|x| x.to_str()) == Some(CKPT_EXT))
        .collect();
    paths.sort_by(|a, b| a.file_name().cmp(&b.file_name()));
    Ok(paths)
}

/// The model names (file stems) of every checkpoint in `dir`, in the
/// deterministic [`scan_checkpoint_paths`] order. This is the name
/// universe the router hashes across the worker ring — no checkpoint
/// bytes are read, so the router never loads a model.
pub fn scan_model_names(dir: &Path) -> std::io::Result<Vec<String>> {
    Ok(scan_checkpoint_paths(dir)?
        .iter()
        .filter_map(|p| p.file_stem().and_then(|s| s.to_str()).map(String::from))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsgb_linalg::rng::seeded;
    use tsgb_linalg::Tensor3;
    use tsgb_methods::{MethodId, TrainConfig};

    fn fitted() -> Box<dyn TsgMethod> {
        let data = Tensor3::from_fn(10, 8, 2, |s, t, f| {
            0.5 + 0.3 * ((t as f64) + (s as f64) * 0.3 + f as f64).sin()
        });
        let mut m = MethodId::TimeVae.create(8, 2);
        let cfg = TrainConfig {
            epochs: 2,
            ..TrainConfig::fast()
        };
        m.fit(&data, &cfg, &mut seeded(3));
        m
    }

    #[test]
    fn insert_requires_a_fitted_model() {
        let mut r = Registry::new();
        let err = r.insert("raw", MethodId::TimeVae.create(8, 2)).unwrap_err();
        assert!(err.contains("not fitted"), "{err}");
        r.insert("vae", fitted()).unwrap();
        assert!(r.insert("vae", fitted()).unwrap_err().contains("already"));
        let info = &r.get("vae").unwrap().info;
        assert_eq!((info.seq_len, info.features), (8, 2));
        assert_eq!(info.method, "TimeVAE");
    }

    #[test]
    fn scan_order_is_deterministic() {
        let dir = std::env::temp_dir().join(format!("tsgb_scan_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // create in deliberately non-sorted order: the scan must not
        // reflect creation order (read_dir order is fs-dependent)
        for name in ["zeta", "alpha", "mid", "beta"] {
            std::fs::write(dir.join(format!("{name}.tsgbnn")), b"x").unwrap();
        }
        std::fs::write(dir.join("not-a-ckpt.txt"), b"y").unwrap();
        let names = scan_model_names(&dir).unwrap();
        assert_eq!(names, ["alpha", "beta", "mid", "zeta"]);
        // rescanning yields the identical order — shard assignment
        // derived from this scan is reproducible across runs
        assert_eq!(scan_model_names(&dir).unwrap(), names);
        let paths = scan_checkpoint_paths(&dir).unwrap();
        let files: Vec<_> = paths
            .iter()
            .map(|p| p.file_name().unwrap().to_str().unwrap().to_string())
            .collect();
        assert_eq!(
            files,
            ["alpha.tsgbnn", "beta.tsgbnn", "mid.tsgbnn", "zeta.tsgbnn"]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn filtered_load_takes_only_the_shard() {
        let dir = std::env::temp_dir().join(format!("tsgb_shard_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let good = fitted().save().unwrap();
        std::fs::write(dir.join("alpha.tsgbnn"), &good).unwrap();
        std::fs::write(dir.join("beta.tsgbnn"), &good).unwrap();
        let shard = vec!["beta".to_string()];
        let (registry, failures) = Registry::load_dir_filtered(&dir, Some(&shard)).unwrap();
        assert_eq!(failures.len(), 0);
        assert_eq!(registry.len(), 1);
        assert!(registry.get("beta").is_some());
        // an empty shard is a legal worker state, not an error
        let (empty, _) = Registry::load_dir_filtered(&dir, Some(&[])).unwrap();
        assert!(empty.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_dir_skips_corrupt_checkpoints() {
        let dir = std::env::temp_dir().join(format!("tsgb_registry_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let good = fitted().save().unwrap();
        std::fs::write(dir.join("timevae.tsgbnn"), &good).unwrap();
        std::fs::write(dir.join("broken.tsgbnn"), b"not a checkpoint").unwrap();
        std::fs::write(dir.join("ignored.txt"), b"other file").unwrap();
        let (registry, failures) = Registry::load_dir(&dir).unwrap();
        assert_eq!(registry.len(), 1);
        assert!(registry.get("timevae").is_some());
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].file, "broken.tsgbnn");
        std::fs::remove_dir_all(&dir).ok();
    }
}
