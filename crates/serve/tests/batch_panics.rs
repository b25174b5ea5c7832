//! Panic isolation in the batcher, over a live listener. A model that
//! panics on chosen seeds is served with batching on: the request that
//! panics gets a structured `500`, the requests batched with it and
//! every later request get bodies byte-identical to the same model
//! served without the fault, `serve.panics` counts the failed request,
//! every batch runs on a connection thread of one of its requests, and
//! the server still drains. This file holds one test, so no other test
//! shares the process-wide metrics registry.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tsgb_linalg::rng::seeded;
use tsgb_linalg::Tensor3;
use tsgb_methods::common::GenSpec;
use tsgb_methods::persist::PersistError;
use tsgb_methods::{MethodId, TrainConfig, TrainReport, TsgMethod};
use tsgb_rand::rngs::SmallRng;
use tsgb_serve::{Registry, ServeConfig, Server};
use tsgb_wire::Json;

/// The seed the faulty model panics on.
const POISON: u64 = 13;
/// The seed whose batch the faulty model holds until the test lets it go.
const LEAD: u64 = 10;

fn fitted_vae() -> Box<dyn TsgMethod> {
    let data = Tensor3::from_fn(12, 8, 2, |s, t, f| {
        0.5 + 0.3 * ((t as f64) * 0.8 + s as f64 * 0.3 + f as f64).sin()
    });
    let mut m = MethodId::TimeVae.create(8, 2);
    let cfg = TrainConfig {
        epochs: 2,
        ..TrainConfig::fast()
    };
    m.fit(&data, &cfg, &mut seeded(11));
    m
}

/// The seeds of each batch the model ran, with the name of its thread.
type BatchLog = Arc<Mutex<Vec<(Vec<u64>, String)>>>;

/// A fitted TimeVAE whose batched generation panics whenever a batch
/// holds the poisoned seed, and holds the lead seed's batch until the
/// test releases it; it logs the seeds and the thread name of every
/// batch it gets.
struct Faulty {
    inner: Box<dyn TsgMethod>,
    batches: BatchLog,
    gate: Mutex<Option<(Sender<()>, Receiver<()>)>>,
}

impl TsgMethod for Faulty {
    fn id(&self) -> MethodId {
        self.inner.id()
    }
    fn fit(&mut self, _: &Tensor3, _: &TrainConfig, _: &mut SmallRng) -> TrainReport {
        unreachable!("Faulty wraps a fitted model")
    }
    fn generate(&self, n: usize, rng: &mut SmallRng) -> Tensor3 {
        self.inner.generate(n, rng)
    }
    fn generate_batch(&self, specs: &[GenSpec]) -> Vec<Tensor3> {
        let seeds: Vec<u64> = specs.iter().map(|s| s.seed).collect();
        if seeds.contains(&LEAD) {
            let (entered, release) = self.gate.lock().unwrap().take().unwrap();
            entered.send(()).unwrap();
            release.recv().unwrap();
        }
        let thread = std::thread::current().name().unwrap_or("").to_string();
        self.batches.lock().unwrap().push((seeds, thread));
        if specs.iter().any(|s| s.seed == POISON) {
            panic!("injected fault on seed {POISON}");
        }
        self.inner.generate_batch(specs)
    }
    fn save(&self) -> Option<Vec<u8>> {
        self.inner.save()
    }
    fn load(&mut self, bytes: &[u8]) -> Result<(), PersistError> {
        self.inner.load(bytes)
    }
}

fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut s = TcpStream::connect(addr).unwrap();
    write!(
        s,
        "{method} {path} HTTP/1.1\r\nhost: t\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut raw = String::new();
    s.read_to_string(&mut raw).unwrap();
    let (head, body) = raw.split_once("\r\n\r\n").expect("a response head");
    let status = head.split_whitespace().nth(1).unwrap().parse().unwrap();
    (status, body.to_string())
}

fn generate(addr: SocketAddr, seed: u64) -> (u16, String) {
    let body = format!("{{\"model\":\"vae\",\"n\":2,\"seed\":{seed}}}");
    request(addr, "POST", "/generate", &body)
}

fn queue_depth(addr: SocketAddr) -> u64 {
    let (_, body) = request(addr, "GET", "/healthz", "");
    let health = Json::parse(&body).unwrap();
    health.get("queue_depth").and_then(Json::as_u64).unwrap()
}

fn counter(name: &str) -> u64 {
    tsgb_obs::snapshot()
        .counters
        .into_iter()
        .find(|(k, _)| k == name)
        .map_or(0, |(_, v)| v)
}

#[test]
fn a_panicking_request_gets_500_and_spares_its_batch_and_the_batcher() {
    tsgb_obs::set_enabled(true);
    let batched_seeds = [11, 12, POISON, 14];
    let later_seeds = [15, 16];

    // the reference: the same model without the fault, unbatched
    let mut plain = Registry::new();
    plain.insert("vae", fitted_vae()).unwrap();
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        max_batch: 1,
        ..ServeConfig::default()
    };
    let server = Server::start(plain, cfg).unwrap();
    let want: Vec<(u64, String)> = batched_seeds
        .iter()
        .chain(&later_seeds)
        .filter(|&&s| s != POISON)
        .map(|&s| {
            let (status, body) = generate(server.addr(), s);
            assert_eq!(status, 200, "{body}");
            (s, body)
        })
        .collect();
    server.shutdown();

    // the faulty model, batched: a lead request holds its forward pass
    // until the four others are queued behind it, so they run as one
    // fused batch that holds the poisoned seed
    let batches = Arc::new(Mutex::new(Vec::new()));
    let (entered_tx, entered) = channel();
    let (release, release_rx) = channel();
    let mut faulty = Registry::new();
    faulty
        .insert(
            "vae",
            Box::new(Faulty {
                inner: fitted_vae(),
                batches: Arc::clone(&batches),
                gate: Mutex::new(Some((entered_tx, release_rx))),
            }),
        )
        .unwrap();
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        max_batch: 4,
        ..ServeConfig::default()
    };
    let server = Server::start(faulty, cfg).unwrap();
    let addr = server.addr();
    let lead = std::thread::spawn(move || generate(addr, LEAD));
    entered.recv().unwrap();
    let clients: Vec<_> = batched_seeds
        .iter()
        .map(|&s| std::thread::spawn(move || (s, generate(addr, s))))
        .collect();
    let give_up = Instant::now() + Duration::from_secs(30);
    while queue_depth(addr) < 4 {
        assert!(Instant::now() < give_up, "the four requests never queued");
        std::thread::sleep(Duration::from_millis(1));
    }
    release.send(()).unwrap();
    let mut got: Vec<(u64, (u16, String))> =
        clients.into_iter().map(|c| c.join().unwrap()).collect();
    assert_eq!(lead.join().unwrap().0, 200);
    got.extend(later_seeds.iter().map(|&s| (s, generate(addr, s))));

    let batches = batches.lock().unwrap().clone();
    assert!(
        batches
            .iter()
            .any(|(b, _)| b.len() > 1 && b.contains(&POISON)),
        "the poisoned request never shared a batch: {batches:?}"
    );
    assert!(
        batches.iter().all(|(_, t)| t == "tsgb-serve-conn"),
        "a batch ran off the connection threads: {batches:?}"
    );
    for (seed, (status, body)) in &got {
        if *seed == POISON {
            assert_eq!(*status, 500, "{body}");
            let err = Json::parse(body).unwrap();
            let code = err.get("error").and_then(|e| e.get("code"));
            assert_eq!(code.and_then(Json::as_str), Some("internal"), "{body}");
        } else {
            let (_, reference) = want.iter().find(|(s, _)| s == seed).unwrap();
            assert_eq!(*status, 200, "seed {seed}: {body}");
            assert_eq!(body, reference, "seed {seed}: body differs from generate");
        }
    }
    assert_eq!(counter("serve.panics"), 1);
    // the batcher still serves, and drains
    server.shutdown();
}
