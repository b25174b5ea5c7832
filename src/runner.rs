//! High-level benchmark orchestration: train a method, generate,
//! evaluate the suite — the loop behind Figures 5–7.

use std::path::PathBuf;

use tsgb_data::domain::{DaData, DaScenario, DaTask};
use tsgb_data::pipeline::PreprocessedDataset;
use tsgb_data::spec::DatasetSpec;
use tsgb_eval::suite::{self, EvalConfig, EvalResult, Measure, Score};
use tsgb_linalg::Tensor3;
use tsgb_methods::common::{Condition, MethodId, TrainConfig, TrainReport, TsgMethod};
use tsgb_rand::rngs::SmallRng;
use tsgb_rand::{Rng, SeedableRng};

/// Orchestrates train → generate → evaluate with shared configuration.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// Method training profile.
    pub train_cfg: TrainConfig,
    /// Evaluation-suite profile.
    pub eval_cfg: EvalConfig,
    /// Master seed; every run derives child seeds from it.
    pub seed: u64,
    /// How many windows to generate (defaults to the training count).
    pub gen_samples: Option<usize>,
    /// When set, every trained method's `TSGBCK02` checkpoint is
    /// written here as `<method>.tsgbnn` — the artifact `tsgb-serve`'s
    /// registry loads.
    pub ckpt_dir: Option<PathBuf>,
    /// When set, generation is class-/covariate-conditioned: methods
    /// with the [`ConditionalSample`](tsgb_methods::ConditionalSample)
    /// capability draw through `generate_conditioned`; methods without
    /// it fall back to the unconditional draw (with a warning), so a
    /// mixed grid still completes.
    pub condition: Option<Condition>,
}

impl Benchmark {
    /// Seconds-fast profile for tests and examples.
    pub fn quick() -> Self {
        Self {
            train_cfg: TrainConfig::fast(),
            eval_cfg: EvalConfig::fast(),
            seed: 7,
            gen_samples: None,
            ckpt_dir: None,
            condition: None,
        }
    }

    /// The profile the `reproduce` binary uses.
    pub fn standard() -> Self {
        Self {
            train_cfg: TrainConfig::standard(),
            eval_cfg: EvalConfig::fast(),
            seed: 7,
            gen_samples: None,
            ckpt_dir: None,
            condition: None,
        }
    }

    /// Overrides the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables checkpoint emission: every subsequent run writes each
    /// trained method's snapshot into `dir`.
    pub fn with_ckpt_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.ckpt_dir = Some(dir.into());
        self
    }

    /// Conditions every generation on `cond` (see [`Benchmark::condition`]).
    pub fn with_condition(mut self, cond: Condition) -> Self {
        self.condition = Some(cond);
        self
    }

    /// The run's generation draw: conditioned when a condition is set
    /// and the method carries the capability, unconditional otherwise.
    fn draw(&self, method: &dyn TsgMethod, n: usize, rng: &mut SmallRng) -> Tensor3 {
        match (&self.condition, method.conditional()) {
            (Some(cond), Some(cs)) => cs.generate_conditioned(n, cond, rng),
            (Some(_), None) => {
                eprintln!(
                    "warning: {} has no conditional-sampling capability; generating unconditionally",
                    method.name()
                );
                method.generate(n, rng)
            }
            (None, _) => method.generate(n, rng),
        }
    }

    fn rng(&self, salt: u64) -> SmallRng {
        SmallRng::seed_from_u64(self.seed ^ salt.wrapping_mul(0x9E3779B97F4A7C15))
    }

    /// Trains `method` on the dataset's training windows, generates a
    /// matching sample, and scores the full suite against the training
    /// data (the paper's reference set).
    pub fn run_one(&self, method: &mut dyn TsgMethod, data: &PreprocessedDataset) -> MethodReport {
        self.run_tensor(method, &data.train)
    }

    /// Same as [`Benchmark::run_one`] but on a raw window tensor (used
    /// by the DA scenarios, where training and reference sets differ).
    pub fn run_tensor(&self, method: &mut dyn TsgMethod, train: &Tensor3) -> MethodReport {
        let mut rng = self.rng(method.id() as u64 + 1);
        let report = method.fit(train, &self.train_cfg, &mut rng);
        if let Some(dir) = &self.ckpt_dir {
            if let Err(e) = write_checkpoint(dir, method) {
                eprintln!("warning: failed to write {} checkpoint: {e}", method.name());
            }
        }
        let n = self.gen_samples.unwrap_or(train.samples());
        let generated = self.draw(method, n, &mut rng);
        let mut scores = suite::evaluate(train, &generated, &self.eval_cfg, &mut rng);
        scores.set(
            Measure::TrainTime,
            Score {
                mean: report.train_seconds,
                std: 0.0,
            },
        );
        MethodReport {
            method: method.name().to_string(),
            train: report,
            scores,
            generated,
        }
    }

    /// Trains on a DA scenario's training set and evaluates against
    /// the target ground truth (Definitions 4.1–4.3).
    pub fn run_da_scenario(
        &self,
        method_id: MethodId,
        data: &DaData,
        scenario: DaScenario,
    ) -> MethodReport {
        let train = data.training_set(scenario);
        let mut method = method_id.create(train.seq_len(), train.features());
        let mut rng = self.rng(method_id as u64 * 31 + scenario as u64 + 11);
        let report = method.fit(&train, &self.train_cfg, &mut rng);
        let n = self.gen_samples.unwrap_or(data.target_gt.samples());
        let generated = self.draw(method.as_ref(), n, &mut rng);
        let mut scores = suite::evaluate(&data.target_gt, &generated, &self.eval_cfg, &mut rng);
        scores.set(
            Measure::TrainTime,
            Score {
                mean: report.train_seconds,
                std: 0.0,
            },
        );
        MethodReport {
            method: method_id.name().to_string(),
            train: report,
            scores,
            generated,
        }
    }

    /// Runs the full Figure-5 grid: every method on every dataset.
    /// `max_r`/`max_l` bound the per-dataset scale.
    pub fn run_grid(
        &self,
        methods: &[MethodId],
        datasets: &[DatasetSpec],
        max_r: usize,
        max_l: usize,
    ) -> GridResult {
        // materialize every dataset once, then run the independent
        // (dataset, method) cells across the worker pool; each cell's
        // RNG is derived solely from (self.seed, method id), so the
        // schedule cannot change any score and the cell list comes
        // back in the same dataset-major order the sequential loop
        // produced
        let prepared: Vec<(&DatasetSpec, PreprocessedDataset)> = datasets
            .iter()
            .map(|spec| {
                let scaled = spec.scaled(max_r).with_max_len(max_l);
                (spec, scaled.materialize(self.seed))
            })
            .collect();
        let cells = if methods.is_empty() {
            Vec::new()
        } else {
            tsgb_par::parallel_map(prepared.len() * methods.len(), |idx| {
                let (spec, data) = &prepared[idx / methods.len()];
                let mid = methods[idx % methods.len()];
                let mut method = mid.create(data.train.seq_len(), data.train.features());
                // a method trains once per dataset, so grid checkpoints
                // go into per-dataset subdirectories — a stable layout
                // regardless of which cell finishes last, and each
                // subdirectory is directly servable via --ckpt-dir
                let cell_bench = self.ckpt_dir.as_ref().map(|dir| Benchmark {
                    ckpt_dir: Some(dir.join(dataset_slug(spec.name))),
                    ..self.clone()
                });
                let report = cell_bench
                    .as_ref()
                    .unwrap_or(self)
                    .run_one(method.as_mut(), data);
                GridCell {
                    method: mid,
                    dataset: spec.name.to_string(),
                    report,
                }
            })
        };
        GridResult {
            methods: methods.to_vec(),
            datasets: datasets.iter().map(|d| d.name.to_string()).collect(),
            cells,
            max_r,
            max_l,
        }
    }

    /// Runs the Figure-7 generalization test for one task.
    pub fn run_da_task(&self, task: &DaTask, data: &DaData, methods: &[MethodId]) -> Vec<DaCell> {
        // every (method, scenario) cell seeds its own RNG from
        // (self.seed, method id, scenario), so the cells run in
        // parallel without affecting any score
        let jobs: Vec<(MethodId, DaScenario)> = methods
            .iter()
            .flat_map(|&mid| DaScenario::ALL.iter().map(move |&s| (mid, s)))
            .collect();
        tsgb_par::parallel_map(jobs.len(), |i| {
            let (mid, scenario) = jobs[i];
            let report = self.run_da_scenario(mid, data, scenario);
            DaCell {
                task: task.clone(),
                method: mid,
                scenario,
                report,
            }
        })
    }
}

/// Output of one train/generate/evaluate run.
#[derive(Debug, Clone)]
pub struct MethodReport {
    /// Method display name.
    pub method: String,
    /// The training report (loss history, wall-clock).
    pub train: TrainReport,
    /// The evaluation-suite scores (training time included).
    pub scores: EvalResult,
    /// The generated windows (for visualization measures).
    pub generated: Tensor3,
}

/// One (method, dataset) cell of the Figure-5 grid.
#[derive(Debug, Clone)]
pub struct GridCell {
    /// Which method.
    pub method: MethodId,
    /// Dataset display name.
    pub dataset: String,
    /// The run's report.
    pub report: MethodReport,
}

/// The Figure-5 grid with the axes needed for ranking analysis.
#[derive(Debug, Clone)]
pub struct GridResult {
    /// Methods, in run order.
    pub methods: Vec<MethodId>,
    /// Dataset names, in run order.
    pub datasets: Vec<String>,
    /// All cells.
    pub cells: Vec<GridCell>,
    /// The `max_r` bound the grid was materialized with.
    pub max_r: usize,
    /// The `max_l` bound the grid was materialized with.
    pub max_l: usize,
}

impl GridResult {
    /// The score of one cell for a measure.
    pub fn score(&self, method: MethodId, dataset: &str, measure: Measure) -> Option<f64> {
        self.cells
            .iter()
            .find(|c| c.method == method && c.dataset == dataset)
            .and_then(|c| c.report.scores.get(measure))
            .map(|s| s.mean)
    }

    /// The `scores[measure][dataset][method]` cube consumed by
    /// `tsgb_stats::ranking::figure1` and the Friedman analysis.
    pub fn score_cube(&self, measures: &[Measure]) -> Vec<Vec<Vec<f64>>> {
        measures
            .iter()
            .map(|&m| {
                self.datasets
                    .iter()
                    .map(|d| {
                        self.methods
                            .iter()
                            .map(|&mid| self.score(mid, d, m).unwrap_or(f64::INFINITY))
                            .collect()
                    })
                    .collect()
            })
            .collect()
    }

    /// Flattens the cube to `scores[block][method]` blocks for the
    /// Friedman test (one block per measure × dataset pair).
    pub fn friedman_blocks(&self, measures: &[Measure]) -> Vec<Vec<f64>> {
        let cube = self.score_cube(measures);
        cube.into_iter().flatten().collect()
    }
}

/// One (task, method, scenario) cell of the Figure-7 test.
#[derive(Debug, Clone)]
pub struct DaCell {
    /// The adaptation task.
    pub task: DaTask,
    /// Which method.
    pub method: MethodId,
    /// Which DA regime.
    pub scenario: DaScenario,
    /// The run's report.
    pub report: MethodReport,
}

/// Directory-name form of a dataset name (`"Stock Long"` →
/// `"stock-long"`), used for the grid's per-dataset checkpoint
/// subdirectories.
fn dataset_slug(name: &str) -> String {
    name.to_lowercase().replace(' ', "-")
}

/// Writes one trained method's `TSGBCK02` checkpoint to
/// `dir/<method>.tsgbnn` (lower-case method name), atomically via a
/// unique temp file + rename so parallel grid cells never interleave
/// partial writes.
pub fn write_checkpoint(dir: &std::path::Path, method: &dyn TsgMethod) -> std::io::Result<PathBuf> {
    let bytes = method.save().ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("{} is not fitted", method.name()),
        )
    })?;
    std::fs::create_dir_all(dir)?;
    let name = method.name().to_lowercase();
    let path = dir.join(format!("{name}.tsgbnn"));
    let tmp = dir.join(format!(
        ".{name}.tsgbnn.tmp.{}.{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::write(&tmp, &bytes)?;
    std::fs::rename(&tmp, &path)?;
    Ok(path)
}

/// Derives a child RNG from an arbitrary seed and salt (shared by the
/// examples).
pub fn child_rng(seed: u64, salt: u64) -> SmallRng {
    let mut base = SmallRng::seed_from_u64(seed);
    let jump: u64 = base.gen::<u64>() ^ salt;
    SmallRng::seed_from_u64(jump)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsgb_data::spec::DatasetId;

    #[test]
    fn run_one_produces_scores_and_time() {
        let data = DatasetSpec::get(DatasetId::Stock)
            .scaled(24)
            .with_max_len(8)
            .materialize(3);
        let mut bench = Benchmark::quick();
        bench.train_cfg.epochs = 4;
        bench.eval_cfg = EvalConfig::deterministic_only();
        let mut method = MethodId::TimeVae.create(data.train.seq_len(), data.train.features());
        let report = bench.run_one(method.as_mut(), &data);
        assert!(report.scores.get(Measure::Ed).is_some());
        assert!(report.scores.get(Measure::TrainTime).unwrap().mean >= 0.0);
        assert_eq!(report.generated.seq_len(), data.train.seq_len());
    }

    #[test]
    fn conditioned_runs_route_through_the_capability() {
        let data = DatasetSpec::get(DatasetId::Stock)
            .scaled(16)
            .with_max_len(8)
            .materialize(3);
        let mut bench = Benchmark::quick();
        bench.train_cfg.epochs = 3;
        bench.eval_cfg = EvalConfig::deterministic_only();

        // strength 0 must be bit-identical to the unconditional run
        let mut plain_m = MethodId::TimeVae.create(data.train.seq_len(), data.train.features());
        let plain = bench.run_one(plain_m.as_mut(), &data);
        let zero_bench = bench.clone().with_condition(Condition::Class {
            label: 1,
            strength: 0.0,
        });
        let mut zero_m = MethodId::TimeVae.create(data.train.seq_len(), data.train.features());
        let zero = zero_bench.run_one(zero_m.as_mut(), &data);
        assert_eq!(
            plain.generated.as_slice(),
            zero.generated.as_slice(),
            "strength 0 must reproduce the unconditional draw"
        );

        // a real condition shapes the draw
        let cond_bench = bench.clone().with_condition(Condition::Class {
            label: 1,
            strength: 2.0,
        });
        let mut cond_m = MethodId::TimeVae.create(data.train.seq_len(), data.train.features());
        let cond = cond_bench.run_one(cond_m.as_mut(), &data);
        assert_ne!(plain.generated.as_slice(), cond.generated.as_slice());

        // a method without the capability still completes (falls back)
        let mut ff = MethodId::FourierFlow.create(data.train.seq_len(), data.train.features());
        let report = cond_bench.run_one(ff.as_mut(), &data);
        assert!(report.scores.get(Measure::Ed).is_some());
    }

    #[test]
    fn run_one_emits_a_loadable_checkpoint() {
        let dir = std::env::temp_dir().join(format!("tsgb_ckpt_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let data = DatasetSpec::get(DatasetId::Stock)
            .scaled(16)
            .with_max_len(8)
            .materialize(3);
        let mut bench = Benchmark::quick().with_ckpt_dir(&dir);
        bench.train_cfg.epochs = 3;
        bench.eval_cfg = EvalConfig::deterministic_only();
        let mut method = MethodId::TimeVae.create(data.train.seq_len(), data.train.features());
        bench.run_one(method.as_mut(), &data);
        let path = dir.join("timevae.tsgbnn");
        let bytes = std::fs::read(&path).expect("checkpoint written");
        let restored = tsgb_methods::load_method(&bytes).expect("checkpoint loads");
        let mut a = child_rng(9, 9);
        let mut b = child_rng(9, 9);
        assert_eq!(
            restored.generate(4, &mut a).as_slice(),
            method.generate(4, &mut b).as_slice(),
            "restored checkpoint must generate bit-identically"
        );
        // no temp files left behind
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn grid_exposes_score_cube() {
        let mut bench = Benchmark::quick();
        bench.train_cfg.epochs = 3;
        bench.eval_cfg = EvalConfig::deterministic_only();
        let specs = vec![
            DatasetSpec::get(DatasetId::Stock),
            DatasetSpec::get(DatasetId::Dlg),
        ];
        let grid = bench.run_grid(&[MethodId::TimeVae, MethodId::FourierFlow], &specs, 16, 8);
        assert_eq!(grid.cells.len(), 4);
        let cube = grid.score_cube(&[Measure::Ed, Measure::Dtw]);
        assert_eq!(cube.len(), 2);
        assert_eq!(cube[0].len(), 2);
        assert_eq!(cube[0][0].len(), 2);
        assert!(cube[0][0][0].is_finite());
        let blocks = grid.friedman_blocks(&[Measure::Ed, Measure::Dtw]);
        assert_eq!(blocks.len(), 4);
    }
}
