//! Checkpoint round-trips for every method: `save` → `load_method` →
//! `generate` must be bit-identical to the saved model, and corrupt
//! buffers must fail with the precise [`PersistError`] variant.

use tsgb_linalg::rng::seeded;
use tsgb_linalg::Tensor3;
use tsgb_methods::{load_method, MethodId, PersistError, TrainConfig, TsgMethod};

fn toy(r: usize, l: usize, n: usize) -> Tensor3 {
    Tensor3::from_fn(r, l, n, |s, t, f| {
        0.5 + 0.3 * ((t as f64) * 0.7 + (s % 5) as f64 * 0.9 + f as f64).sin()
    })
}

fn all_methods() -> impl Iterator<Item = MethodId> {
    MethodId::ALL.into_iter().chain(MethodId::EXTENDED)
}

/// `Box<dyn TsgMethod>` has no `Debug`, so unwrap the error by hand.
fn load_err(bytes: &[u8]) -> PersistError {
    match load_method(bytes) {
        Ok(m) => panic!("load of corrupt bytes produced a {} model", m.name()),
        Err(e) => e,
    }
}

/// Trains a tiny instance of `id` on an 8x2 window set.
fn trained(id: MethodId) -> Box<dyn TsgMethod> {
    let (l, n) = (8, 2);
    let data = toy(14, l, n);
    let mut m = id.create(l, n);
    let cfg = TrainConfig {
        epochs: 4,
        ..TrainConfig::fast()
    };
    m.fit(&data, &cfg, &mut seeded(id as u64 + 5));
    m
}

#[test]
fn every_method_roundtrips_bit_identically() {
    for id in all_methods() {
        let m = trained(id);
        let bytes = m
            .save()
            .unwrap_or_else(|| panic!("{}: save after fit returned None", id.name()));
        let restored =
            load_method(&bytes).unwrap_or_else(|e| panic!("{}: load failed: {e}", id.name()));
        assert_eq!(restored.id(), id);
        let want = m.generate(6, &mut seeded(99));
        let got = restored.generate(6, &mut seeded(99));
        assert_eq!(want.shape(), got.shape(), "{}: shape drift", id.name());
        assert_eq!(
            want.as_slice(),
            got.as_slice(),
            "{}: restored generate is not bit-identical",
            id.name()
        );
    }
}

#[test]
fn untrained_methods_save_none() {
    for id in all_methods() {
        assert!(
            id.create(8, 2).save().is_none(),
            "{}: untrained save must be None",
            id.name()
        );
    }
}

#[test]
fn bad_magic_is_rejected() {
    let mut bytes = trained(MethodId::TimeVae).save().unwrap();
    bytes[0] ^= 0xFF;
    assert_eq!(load_err(&bytes), PersistError::BadMagic);
}

#[test]
fn truncation_is_detected_at_any_depth() {
    let bytes = trained(MethodId::TimeVae).save().unwrap();
    // header-level, section-level, and payload-level cuts
    for cut in [4, 15, bytes.len() / 2, bytes.len() - 3] {
        assert_eq!(
            load_err(&bytes[..cut]),
            PersistError::Truncated,
            "cut at {cut} of {}",
            bytes.len()
        );
    }
}

#[test]
fn invalid_utf8_method_name_is_bad_name() {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"TSGBCK01");
    bytes.extend_from_slice(&4u32.to_le_bytes());
    bytes.extend_from_slice(&[0xFF, 0xFE, 0xFD, 0xFC]);
    bytes.extend_from_slice(&8u32.to_le_bytes());
    bytes.extend_from_slice(&2u32.to_le_bytes());
    assert_eq!(load_err(&bytes), PersistError::BadName);
}

#[test]
fn trailing_bytes_are_a_structure_mismatch() {
    let mut bytes = trained(MethodId::TimeVae).save().unwrap();
    bytes.push(0);
    assert!(matches!(
        load_err(&bytes),
        PersistError::StructureMismatch { .. }
    ));
}

#[test]
fn checkpoint_refuses_mismatched_instance() {
    let bytes = trained(MethodId::TimeVae).save().unwrap();
    // same bytes, wrong method
    let mut wrong = MethodId::Rgan.create(8, 2);
    assert!(matches!(
        wrong.load(&bytes).unwrap_err(),
        PersistError::StructureMismatch { .. }
    ));
    // right method, wrong window shape
    let mut wrong_shape = MethodId::TimeVae.create(9, 2);
    assert!(matches!(
        wrong_shape.load(&bytes).unwrap_err(),
        PersistError::StructureMismatch { .. }
    ));
}

#[test]
fn foreign_section_order_is_a_structure_mismatch() {
    // An RGAN checkpoint opened by CRnnGan's loader shares the
    // identity-check path, so splice RGAN's section list behind a
    // C-RNN-GAN header to hit the per-section name verification.
    let rgan = trained(MethodId::Rgan).save().unwrap();
    let name_len = 4 + "RGAN".len();
    let header_len = 8 + name_len + 8;
    let mut forged = Vec::new();
    forged.extend_from_slice(b"TSGBCK01");
    forged.extend_from_slice(&("C-RNN-GAN".len() as u32).to_le_bytes());
    forged.extend_from_slice(b"C-RNN-GAN");
    forged.extend_from_slice(&8u32.to_le_bytes());
    forged.extend_from_slice(&2u32.to_le_bytes());
    forged.extend_from_slice(&rgan[header_len..]);
    // C-RNN-GAN expects the same leading dims but different net names
    // inside the params blobs, so the load must fail loudly rather
    // than silently misload.
    assert!(load_method(&forged).is_err());
}
