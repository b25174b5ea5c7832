//! The streaming task family: consume windows chunk-by-chunk as they
//! are sampled.
//!
//! A monitor tailing a live generation stream never sees the full
//! tensor; it scores each chunk as it lands. This scenario reproduces
//! that consumption pattern against a trained method's
//! [`TsgMethod::open_stream`] and checks two things at once:
//!
//! * **fidelity** — the cheap online measures (MDD/ACD/SD/KD)
//!   accumulated over the chunks, exactly as the serving tier's
//!   monitor would compute them;
//! * **the streaming contract** — the concatenated chunks must be
//!   bit-identical to the one-shot `generate(n, seed)` draw, the
//!   invariant the serving tier's `/generate/stream` endpoint relies
//!   on to make streamed and one-shot responses interchangeable.

use crate::{Scenario, ScenarioReport};
use tsgb_eval::OnlineMeasures;
use tsgb_linalg::Tensor3;
use tsgb_methods::{GenSpec, TsgMethod};

/// Streaming consumption of `n` windows in chunks of `chunk`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamingScenario {
    /// Total windows to sample.
    pub n: usize,
    /// Windows per chunk (clamped to at least 1).
    pub chunk: usize,
}

impl Default for StreamingScenario {
    fn default() -> Self {
        Self { n: 16, chunk: 4 }
    }
}

impl Scenario for StreamingScenario {
    fn name(&self) -> &'static str {
        "streaming"
    }

    fn run(&self, method: &dyn TsgMethod, reference: &Tensor3, seed: u64) -> ScenarioReport {
        let _span = tsgb_obs::span("scenario.streaming");
        let spec = GenSpec { n: self.n, seed };
        let chunk = self.chunk.max(1);

        let mut stream = method.open_stream(spec);
        let mut online = OnlineMeasures::new(reference);
        let mut parts: Vec<Tensor3> = Vec::new();
        while stream.remaining() > 0 {
            let part = stream
                .next_chunk(chunk)
                .expect("remaining > 0 guarantees a chunk");
            online.push_tensor(&part);
            if tsgb_obs::enabled() {
                tsgb_obs::counter_add("scenario.stream.chunks", 1);
                tsgb_obs::counter_add("scenario.stream.windows", part.samples() as u64);
            }
            parts.push(part);
        }
        let chunks = parts.len();
        let streamed = concat(parts);

        // the contract check: streamed == one-shot, bit for bit
        let one_shot = method.generate(spec.n, &mut spec.rng());
        let identical = streamed.shape() == one_shot.shape()
            && streamed
                .as_slice()
                .iter()
                .zip(one_shot.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits());

        let mut report = ScenarioReport::new(self.name());
        report.push("stream.windows", online.windows() as f64);
        report.push("stream.chunks", chunks as f64);
        report.push("stream.bit_identical", if identical { 1.0 } else { 0.0 });
        report.push("stream.mdd", online.mdd());
        report.push("stream.acd", online.acd());
        report.push("stream.sd", online.sd());
        report.push("stream.kd", online.kd());
        report
    }
}

fn concat(mut parts: Vec<Tensor3>) -> Tensor3 {
    let mut out = parts.remove(0);
    for p in &parts {
        out = out.concat_samples(p);
    }
    out
}
