//! The benchmark's own machinery, shared by the three workloads:
//! argument parsing, failure accounting, the summary statistics, the
//! open-loop SLO ladder search, reads of the `tsgb-obs` registry, and
//! the one-line JSON result.

use std::time::Instant;

use tsgb_eval::suite::Measure;
use tsgb_methods::MethodId;

/// The workloads, in `BENCHMARK.json` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Grid,
    Score,
    Serve,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Grid, Workload::Score, Workload::Serve];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Grid => "grid",
            Workload::Score => "score",
            Workload::Serve => "serve",
        }
    }
}

/// Parsed command line: `--workload W --seed N --seconds S --trace 0|1`.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub const USAGE: &str =
    "usage: perfbench --workload grid|score|serve --seed N --seconds S --trace 0|1";

impl Args {
    pub fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
                "--seconds" => {
                    let s: f64 = value
                        .parse()
                        .map_err(|_| format!("bad seconds {value:?}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("seconds must be in (0, 600], got {s}"));
                    }
                    seconds = Some(s)
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
        })
    }
}

/// Attempted and failed operations. A failed output check counts as a
/// failed operation, so `fail_frac` covers both errors and wrong
/// answers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one operation (or one output check) and whether it passed.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {}", what());
        }
    }

    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Median (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Arithmetic mean, 0 for no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The tail a sample supports: the highest whole percentile, at most
/// 99, that leaves at least ten samples above it, and its nearest-rank
/// value. `None` when fewer than eleven samples leave no such
/// percentile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub percentile: u32,
    pub value: f64,
    pub samples: usize,
}

pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    (1..=99u32).rev().find_map(|p| {
        // nearest rank: the smallest index covering p% of the samples
        let rank = (p as usize * n).div_ceil(100).max(1);
        (n - rank >= 10).then(|| Tail {
            percentile: p,
            value: v[rank - 1],
            samples: n,
        })
    })
}

/// One rung of an open-loop rate ladder, as the SLO search sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct Rung {
    /// Offered rate (requests per second).
    pub rate: f64,
    /// Completed requests per second over the rung.
    pub achieved_rps: f64,
    /// Tail latency by [`tail`], timed from each request's due time.
    pub tail_ms: f64,
    pub failed: u64,
    /// Whether client-side queueing grew over the rung.
    pub backlog_grew: bool,
}

impl Rung {
    pub fn meets(&self, slo_ms: f64) -> bool {
        self.failed == 0 && !self.backlog_grew && self.tail_ms <= slo_ms
    }
}

/// Walks the ladder in ascending rate order and stops at the first
/// rung that misses the SLO: past capacity every higher rung misses
/// too, so running them would only pile up backlog. Returns the index
/// of the highest rung met before that, or `None` when even the first
/// misses.
pub fn ladder_search(
    rates: &[f64],
    slo_ms: f64,
    mut run: impl FnMut(f64) -> Rung,
) -> (Option<usize>, Vec<Rung>) {
    let mut done = Vec::new();
    let mut best = None;
    for (i, &rate) in rates.iter().enumerate() {
        let rung = run(rate);
        let met = rung.meets(slo_ms);
        done.push(rung);
        if !met {
            break;
        }
        best = Some(i);
    }
    (best, done)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs a workload's set-up `times` times, timing each, and keeps the
/// last result (earlier ones are dropped before the next starts).
pub fn repeated_setup<T>(times: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    assert!(times >= 1);
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup());
        secs.push(t0.elapsed().as_secs_f64());
    }
    eprintln!(
        "setup: {times} runs, seconds {secs:.4?}, peak rss {:.1} MB",
        peak_rss_mb()
    );
    (last.expect("at least one set-up"), median(&secs))
}

/// Reads of one `tsgb_obs::snapshot`.
pub struct Obs(tsgb_obs::Snapshot);

impl Obs {
    pub fn take() -> Obs {
        Obs(tsgb_obs::snapshot())
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.0
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v as f64)
    }

    pub fn gauge(&self, name: &str) -> f64 {
        self.0
            .gauges
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// Histogram mean (`sum / count`), 0 when nothing was recorded.
    pub fn hist_mean(&self, name: &str) -> f64 {
        self.0
            .histograms
            .iter()
            .find(|(n, _)| n == name)
            .filter(|(_, h)| h.count > 0)
            .map_or(0.0, |(_, h)| h.sum / h.count as f64)
    }

    /// `num / (num + others...)` over counters, 0 when all are zero.
    pub fn share(&self, num: &str, others: &[&str]) -> f64 {
        let n = self.counter(num);
        let total = n + others.iter().map(|o| self.counter(o)).sum::<f64>();
        if total > 0.0 {
            n / total
        } else {
            0.0
        }
    }
}

/// End-to-end metrics, printed by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput", "1/s"),
    ("p50_ms", "ms"),
];

/// The nine measures of `EvalConfig::fast()`, by paper label.
pub const SCORED_MEASURES: [Measure; 9] = Measure::FIGURE5;

/// Per-layer metric names and units, printed by every workload with
/// `--trace 1` (a layer idle in a workload reports 0).
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out = vec![("data.materialize_ms".to_string(), "ms")];
    for m in MethodId::ALL {
        out.push((format!("fit_s.{}", m.name()), "s"));
    }
    for m in MethodId::ALL {
        out.push((format!("generate_ms.{}", m.name()), "ms"));
    }
    out.extend(
        [
            ("nn.plan.replay_ratio", "ratio"),
            ("nn.tape.steps", "count"),
            ("nn.pool.miss", "count"),
            ("par.utilization", "ratio"),
            ("par.longest_cell_s", "s"),
        ]
        .map(|(n, u)| (n.to_string(), u)),
    );
    for m in SCORED_MEASURES {
        out.push((format!("eval.measure_ms.{}", m.label()), "ms"));
    }
    out.extend(
        [
            ("eval.tsne.affinities_ms", "ms"),
            ("eval.tsne.optimize_ms", "ms"),
            ("eval.distplot_ms", "ms"),
            ("evalcache.hit_ratio", "ratio"),
            ("evalcache.bytes", "bytes"),
            ("evalcache.evictions", "count"),
            ("stats.rank_ms", "ms"),
            ("serve.handle_ms", "ms"),
            ("serve.forward_ms", "ms"),
            ("serve.batch_size", "req"),
            ("serve.wait_ms", "ms"),
            ("serve.rejected", "count"),
            ("wire.transport_ms", "ms"),
            ("obs.overhead_frac", "ratio"),
            ("loadgen.lag_ms", "ms"),
        ]
        .map(|(n, u)| (n.to_string(), u)),
    );
    out
}

/// Metric values collected by a workload, keyed by name.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// The result line. Names and units come from the fixed lists, not
/// from what the workload happened to set: a per-layer metric the
/// workload never set is an idle layer and prints 0, while a missing
/// end-to-end metric or a name outside the lists is a bug and panics.
pub fn result_line(trace: bool, tally: Tally, metrics: &Metrics) -> String {
    let names: Vec<(String, &str)> = if trace {
        per_layer()
    } else {
        END_TO_END.map(|(n, u)| (n.to_string(), u)).to_vec()
    };
    for (n, _) in &metrics.0 {
        assert!(
            names.iter().any(|(m, _)| m == n),
            "metric {n:?} is not listed for trace={trace}"
        );
    }
    let mut correct = tally.failed == 0 && tally.attempted > 0;
    let body: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let value = match metrics.get(name) {
                Some(v) => v,
                None if trace => 0.0,
                None => panic!("end-to-end metric {name:?} was not measured"),
            };
            let value = if value.is_finite() {
                value
            } else {
                eprintln!("FAILED: metric {name} is not finite ({value})");
                correct = false;
                0.0
            };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsgb_wire::Json;

    fn benchmark_json() -> Json {
        Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    fn names_of(doc: &Json, key: &str) -> Vec<(String, String)> {
        let Some(Json::Arr(items)) = doc.get(key) else {
            panic!("{key} is not an array");
        };
        items
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn printed_names_match_benchmark_json() {
        let doc = benchmark_json();
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names_of(&doc, "end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(names_of(&doc, "per_layer"), layers);
        let Some(Json::Arr(workloads)) = doc.get("workloads") else {
            panic!("workloads is not an array");
        };
        let listed: Vec<&str> = workloads
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(listed, Workload::ALL.map(Workload::name));
    }

    #[test]
    fn result_line_prints_exactly_the_listed_names() {
        let mut m = Metrics::default();
        for (i, (n, _)) in END_TO_END.iter().enumerate() {
            m.set(*n, i as f64 + 0.5);
        }
        let line = result_line(
            false,
            Tally {
                attempted: 3,
                failed: 0,
            },
            &m,
        );
        let doc = Json::parse(&line).expect("result line is JSON");
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            panic!("no metrics object");
        };
        let printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(printed, END_TO_END.map(|(n, _)| n));
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));

        // traced: idle layers print 0, every per-layer name appears
        let mut t = Metrics::default();
        t.set("serve.batch_size", 1.25);
        let line = result_line(
            true,
            Tally {
                attempted: 1,
                failed: 0,
            },
            &t,
        );
        let doc = Json::parse(&line).expect("traced line is JSON");
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            panic!("no metrics object");
        };
        assert_eq!(metrics.len(), per_layer().len());
        let batch = metrics
            .iter()
            .find(|(k, _)| k == "serve.batch_size")
            .unwrap();
        assert_eq!(batch.1.get("value").and_then(Json::as_f64), Some(1.25));
    }

    #[test]
    #[should_panic(expected = "not listed")]
    fn result_line_rejects_unlisted_names() {
        let mut m = Metrics::default();
        m.set("not.a.metric", 1.0);
        result_line(true, Tally::default(), &m);
    }

    #[test]
    fn interaction_map_covers_every_per_layer_metric() {
        let map = Json::parse(include_str!("../map.json")).expect("map.json parses");
        let Some(Json::Arr(entries)) = map.get("per_layer") else {
            panic!("map.json has no per_layer array");
        };
        let mapped: Vec<&str> = entries
            .iter()
            .map(|e| {
                for k in ["moves", "works_in", "idle_in"] {
                    assert!(e.get(k).and_then(Json::as_str).is_some(), "{k} missing");
                }
                e.get("name").and_then(Json::as_str).expect("name")
            })
            .collect();
        let listed = per_layer();
        assert_eq!(
            mapped,
            listed.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>()
        );
        assert!(map.get("held_out_seed").and_then(Json::as_u64).is_some());
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.percentile, t.value, t.samples), (99, 1980.0, 2000));
        // 500 samples: p99 would leave 5 beyond, p98 leaves exactly 10
        let v: Vec<f64> = (1..=500).rev().map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.percentile, t.value), (98, 490.0));
        // 30 samples: 20 ranks covered, 10 beyond
        let v: Vec<f64> = (1..=30).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!(t.percentile, 66);
        assert_eq!(v.len() - t.value as usize, 10);
        assert!(tail(&[1.0; 10]).is_none());
        assert_eq!(tail(&[2.0; 11]).unwrap().percentile, 9);
    }

    #[test]
    fn fail_frac_counts_failed_checks_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.fail_frac(), 0.0);
        t.record(true, String::new);
        t.record(false, || "check".into());
        t.record(true, String::new);
        t.record(false, || "op".into());
        assert_eq!((t.attempted, t.failed), (4, 2));
        assert_eq!(t.fail_frac(), 0.5);
        let line = result_line(false, t, &{
            let mut m = Metrics::default();
            for (n, _) in END_TO_END {
                m.set(n, 1.0);
            }
            m
        });
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 4, \"failed\": 2,"));
    }

    fn rung(rate: f64, tail_ms: f64, failed: u64, backlog_grew: bool) -> Rung {
        Rung {
            rate,
            achieved_rps: rate * 0.99,
            tail_ms,
            failed,
            backlog_grew,
        }
    }

    #[test]
    fn ladder_stops_at_the_first_missed_rung() {
        let rates = [10.0, 20.0, 40.0, 80.0];
        let (best, ran) = ladder_search(&rates, 10.0, |r| rung(r, r / 5.0, 0, false));
        assert_eq!(best, Some(2), "80/s has tail 16 ms > 10 ms");
        assert_eq!(ran.len(), 4);

        // a failure or a growing backlog misses even with a low tail,
        // and nothing above the miss is run
        let (best, ran) = ladder_search(&rates, 10.0, |r| rung(r, 1.0, (r == 20.0) as u64, false));
        assert_eq!((best, ran.len()), (Some(0), 2));
        let (best, ran) = ladder_search(&rates, 10.0, |r| rung(r, 1.0, 0, r >= 40.0));
        assert_eq!((best, ran.len()), (Some(1), 3));
        let (best, ran) = ladder_search(&rates, 10.0, |r| rung(r, 11.0, 0, false));
        assert_eq!((best, ran.len()), (None, 1));
        assert!(
            rung(5.0, 10.0, 0, false).meets(10.0),
            "the bound is inclusive"
        );
    }

    #[test]
    fn median_and_args() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let a = Args::parse(
            [
                "--workload",
                "serve",
                "--seed",
                "9",
                "--seconds",
                "5",
                "--trace",
                "1",
            ]
            .map(String::from)
            .into_iter(),
        )
        .unwrap();
        assert_eq!(a.workload, Workload::Serve);
        assert_eq!((a.seed, a.seconds, a.trace), (9, 5.0, true));
        assert!(Args::parse(["--workload", "nope"].map(String::from).into_iter()).is_err());
        assert!(Args::parse(["--seed", "1"].map(String::from).into_iter()).is_err());
    }
}
