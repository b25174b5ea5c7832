//! Canonical, bit-exact window-set encodings and their digests.
//!
//! The cache is *content*-addressed: two window sets share a cache
//! entry exactly when their canonical encodings are byte-identical.
//! The encoding rides the `tsgb-wire` JSON codec, whose `f64` output
//! is shortest-roundtrip — every value parses back bit-identically —
//! so the encoding is both the digest input and a lossless
//! serialization (the on-disk tier stores the same bytes).
//!
//! Two digest flavors:
//!
//! * [`digest_tensor`] — positional: hashes the shape and the flat
//!   `(sample, time, feature)` value stream. Any reordering changes
//!   it. This is the safe default key for the suite, whose
//!   index-paired measures (ED, DTW) are order-sensitive.
//! * [`digest_tensor_unordered`] — hashes each window independently
//!   and folds the per-window digests with commutative reductions, so
//!   it is invariant to sample order. Use it only where the consuming
//!   measure treats windows as an i.i.d. bag (histograms, pooled
//!   moments).
//!
//! NaN payloads are outside the contract (NaN is not a JSON value and
//! every benchmark pipeline normalizes to finite `[0, 1]` data); the
//! helpers assert finiteness in debug builds.

use tsgb_linalg::{Matrix, Tensor3};
use tsgb_wire::digest::Fnv64;
use tsgb_wire::Json;

/// The canonical JSON form of a tensor: shape fields plus the flat
/// value stream in `(sample, time, feature)` order.
pub fn tensor_to_json(t: &Tensor3) -> Json {
    Json::Obj(vec![
        ("samples".into(), Json::Num(t.samples() as f64)),
        ("seq_len".into(), Json::Num(t.seq_len() as f64)),
        ("features".into(), Json::Num(t.features() as f64)),
        (
            "data".into(),
            Json::Arr(t.as_slice().iter().map(|&v| Json::Num(v)).collect()),
        ),
    ])
}

/// The canonical encoding: [`tensor_to_json`] through the wire codec.
pub fn encode_tensor(t: &Tensor3) -> String {
    tensor_to_json(t).encode()
}

/// Parses a canonical encoding back into a tensor. Every `f64` is
/// bit-identical to the encoded one (the codec's shortest-roundtrip
/// guarantee); shape or syntax problems come back as errors.
pub fn decode_tensor(text: &str) -> Result<Tensor3, String> {
    let v = Json::parse(text)?;
    let dim = |k: &str| -> Result<usize, String> {
        v.get(k)
            .and_then(Json::as_u64)
            .map(|x| x as usize)
            .ok_or_else(|| format!("missing or non-integer {k:?}"))
    };
    let (r, l, n) = (dim("samples")?, dim("seq_len")?, dim("features")?);
    let data = match v.get("data") {
        Some(Json::Arr(vals)) => vals
            .iter()
            .map(|x| {
                x.as_f64()
                    .ok_or_else(|| "non-numeric data value".to_string())
            })
            .collect::<Result<Vec<f64>, String>>()?,
        _ => return Err("missing data array".into()),
    };
    Tensor3::from_vec(r, l, n, data).map_err(|e| format!("shape mismatch: {e:?}"))
}

/// Streams a float's raw bits into the hasher. Hashing bits rather
/// than decimal strings keeps the digest exactly as discriminating as
/// the canonical encoding (shortest-roundtrip text and bit pattern are
/// in bijection for non-NaN values) at a fraction of the cost.
fn absorb_f64(h: &mut Fnv64, v: f64) {
    debug_assert!(!v.is_nan(), "digests are defined on non-NaN data only");
    h.update_u64(v.to_bits());
}

/// Positional digest of a tensor: shape plus every value in
/// `(sample, time, feature)` order.
pub fn digest_tensor(t: &Tensor3) -> u64 {
    let mut h = Fnv64::new();
    h.update(b"tsgb.tensor3");
    h.update_u64(t.samples() as u64);
    h.update_u64(t.seq_len() as u64);
    h.update_u64(t.features() as u64);
    for &v in t.as_slice() {
        absorb_f64(&mut h, v);
    }
    h.finish()
}

/// Digest of one window: the `(seq_len, features)` shape plus its
/// values in `(time, feature)` order.
pub fn digest_window(rows: usize, cols: usize, values: &[f64]) -> u64 {
    assert_eq!(values.len(), rows * cols, "window shape mismatch");
    let mut h = Fnv64::new();
    h.update(b"tsgb.window");
    h.update_u64(rows as u64);
    h.update_u64(cols as u64);
    for &v in values {
        absorb_f64(&mut h, v);
    }
    h.finish()
}

/// Order-invariant digest: per-window digests folded with commutative
/// reductions (wrapping sum, xor, count), then re-hashed. Permuting
/// the windows of a set leaves it unchanged; changing any single bit
/// of any value changes the underlying window digest and therefore
/// (with overwhelming probability) the fold.
pub fn digest_tensor_unordered(t: &Tensor3) -> u64 {
    let (l, n) = (t.seq_len(), t.features());
    let mut sum = 0u64;
    let mut xor = 0u64;
    for s in 0..t.samples() {
        let d = digest_window(l, n, t.sample_slice(s));
        sum = sum.wrapping_add(d);
        xor ^= d;
    }
    let mut h = Fnv64::new();
    h.update(b"tsgb.tensor3.bag");
    h.update_u64(l as u64);
    h.update_u64(n as u64);
    h.update_u64(t.samples() as u64);
    h.update_u64(sum);
    h.update_u64(xor);
    h.finish()
}

/// Positional digest of a matrix (row-set), shape plus values in
/// row-major order — the key for cached pairwise-distance blocks.
pub fn digest_matrix(m: &Matrix) -> u64 {
    let mut h = Fnv64::new();
    h.update(b"tsgb.matrix");
    h.update_u64(m.rows() as u64);
    h.update_u64(m.cols() as u64);
    for &v in m.as_slice() {
        absorb_f64(&mut h, v);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Tensor3 {
        Tensor3::from_fn(3, 4, 2, |s, t, f| {
            0.5 + 0.4 * ((s * 31 + t * 7 + f) as f64 * 0.37).sin()
        })
    }

    #[test]
    fn encode_decode_is_bit_exact() {
        let t = small();
        let back = decode_tensor(&encode_tensor(&t)).unwrap();
        assert_eq!(back.shape(), t.shape());
        for (a, b) in t.as_slice().iter().zip(back.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn digest_separates_shape_from_data() {
        // same flat values, different shapes, different digests
        let flat: Vec<f64> = (0..12).map(|i| i as f64 / 12.0).collect();
        let a = Tensor3::from_vec(3, 2, 2, flat.clone()).unwrap();
        let b = Tensor3::from_vec(2, 3, 2, flat).unwrap();
        assert_ne!(digest_tensor(&a), digest_tensor(&b));
        assert_ne!(digest_tensor_unordered(&a), digest_tensor_unordered(&b));
    }

    #[test]
    fn decode_rejects_malformed() {
        assert!(decode_tensor("{").is_err());
        assert!(decode_tensor("{\"samples\":1}").is_err());
        assert!(
            decode_tensor("{\"samples\":1,\"seq_len\":2,\"features\":2,\"data\":[1,2]}").is_err()
        );
    }
}
