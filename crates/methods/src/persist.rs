//! Method-level checkpoint format: a self-describing envelope around
//! the `TSGBNN01` parameter snapshots of [`tsgb_nn::persist`].
//!
//! A parameter snapshot alone cannot restore a trained method: every
//! method also needs its architecture dims (hidden width, latent
//! size) and, for some, non-parameter learned state (VQ codebooks,
//! categorical priors, retained contexts, diffusion schedules). The
//! `TSGBCK02` envelope records all of it as an ordered list of typed,
//! named sections:
//!
//! ```text
//! magic "TSGBCK02"
//! method name (u32 len + UTF-8), seq_len u32, features u32
//! dtype u8 (always 1 = f64)
//! section*:  kind u8 | name (u32 len + UTF-8) | payload
//!   kind 1 dim:    u64
//!   kind 2 float:  one f64 (LE)
//!   kind 3 floats: u64 count + count f64 values
//!   kind 4 matrix: u32 rows, u32 cols, rows*cols f64 values
//!   kind 5 params: u64 byte len + one TSGBNN01 blob
//! ```
//!
//! Any dtype byte other than `1` is a decode error, never a silent
//! reinterpretation. The predecessor `TSGBCK01` format (no dtype
//! byte) still loads unchanged.
//!
//! Sections are written and read in one fixed order per method (the
//! reader verifies each name and kind), integers and floats are
//! little-endian, and `f64` values round-trip bit-exactly — a restored
//! model's `generate` is bit-identical to the saved one's. Errors
//! reuse [`PersistError`] from `tsgb-nn`; anything structurally wrong
//! beyond magic/truncation/name decoding maps to
//! [`PersistError::StructureMismatch`].

use crate::common::{MethodId, TsgMethod};
use tsgb_linalg::Matrix;
use tsgb_nn::params::Params;
pub use tsgb_nn::persist::PersistError;

const MAGIC_V1: &[u8; 8] = b"TSGBCK01";
const MAGIC_V2: &[u8; 8] = b"TSGBCK02";

/// The one dtype byte a `TSGBCK02` header may carry: `f64` payloads.
const DTYPE_F64: u8 = 1;

const KIND_DIM: u8 = 1;
const KIND_FLOAT: u8 = 2;
const KIND_FLOATS: u8 = 3;
const KIND_MATRIX: u8 = 4;
const KIND_PARAMS: u8 = 5;

fn kind_name(kind: u8) -> &'static str {
    match kind {
        KIND_DIM => "dim",
        KIND_FLOAT => "float",
        KIND_FLOATS => "floats",
        KIND_MATRIX => "matrix",
        KIND_PARAMS => "params",
        _ => "unknown",
    }
}

/// The identity block every checkpoint starts with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotHeader {
    /// Which method the checkpoint belongs to.
    pub id: MethodId,
    /// Window length the model was trained for.
    pub seq_len: usize,
    /// Feature count the model was trained for.
    pub features: usize,
}

/// Builds a `TSGBCK02` checkpoint section by section.
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl SnapshotWriter {
    /// Starts a checkpoint for one method instance.
    pub fn new(id: MethodId, seq_len: usize, features: usize) -> Self {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC_V2);
        push_name(&mut buf, id.name());
        buf.extend_from_slice(&(seq_len as u32).to_le_bytes());
        buf.extend_from_slice(&(features as u32).to_le_bytes());
        buf.push(DTYPE_F64);
        Self { buf }
    }

    fn section(&mut self, kind: u8, name: &str) {
        self.buf.push(kind);
        push_name(&mut self.buf, name);
    }

    /// Appends a named architecture dimension.
    pub fn dim(&mut self, name: &str, v: usize) {
        self.section(KIND_DIM, name);
        self.buf.extend_from_slice(&(v as u64).to_le_bytes());
    }

    /// Appends a named scalar.
    pub fn float(&mut self, name: &str, v: f64) {
        self.section(KIND_FLOAT, name);
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a named `f64` list.
    pub fn floats(&mut self, name: &str, v: &[f64]) {
        self.section(KIND_FLOATS, name);
        self.buf.extend_from_slice(&(v.len() as u64).to_le_bytes());
        for &x in v {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }

    /// Appends a named matrix (shape + row-major values).
    pub fn matrix(&mut self, name: &str, m: &Matrix) {
        self.section(KIND_MATRIX, name);
        self.buf.extend_from_slice(&(m.rows() as u32).to_le_bytes());
        self.buf.extend_from_slice(&(m.cols() as u32).to_le_bytes());
        for &x in m.as_slice() {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }

    /// Appends a named parameter store as one embedded `TSGBNN01` blob.
    pub fn params(&mut self, name: &str, p: &Params) {
        self.section(KIND_PARAMS, name);
        let blob = tsgb_nn::persist::save(p);
        self.buf
            .extend_from_slice(&(blob.len() as u64).to_le_bytes());
        self.buf.extend_from_slice(&blob);
    }

    /// The finished checkpoint bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

fn push_name(buf: &mut Vec<u8>, name: &str) {
    buf.extend_from_slice(&(name.len() as u32).to_le_bytes());
    buf.extend_from_slice(name.as_bytes());
}

/// Sequential reader over a `TSGBCK01`/`TSGBCK02` checkpoint. Every
/// accessor verifies the next section's kind and name, so a reordered
/// or foreign buffer fails with a precise [`PersistError`] instead of
/// silently misloading values.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    /// Parses the header only — what a registry needs to construct the
    /// right method instance before loading.
    pub fn peek_header(bytes: &'a [u8]) -> Result<SnapshotHeader, PersistError> {
        let mut r = Self { buf: bytes, pos: 0 };
        let v2 = match r.take(8)? {
            m if m == MAGIC_V2 => true,
            m if m == MAGIC_V1 => false,
            _ => return Err(PersistError::BadMagic),
        };
        let name = r.name()?;
        let id = MethodId::from_name(&name).ok_or(PersistError::StructureMismatch {
            detail: format!("unknown method {name:?} in checkpoint"),
        })?;
        let seq_len = r.u32()? as usize;
        let features = r.u32()? as usize;
        if v2 {
            let dtype = r.take(1)?[0];
            if dtype != DTYPE_F64 {
                return Err(PersistError::StructureMismatch {
                    detail: format!("unsupported checkpoint dtype byte {dtype}"),
                });
            }
        }
        Ok(SnapshotHeader {
            id,
            seq_len,
            features,
        })
    }

    /// Opens a checkpoint for a specific method instance, verifying the
    /// identity block matches `(id, seq_len, features)`.
    pub fn open(
        id: MethodId,
        seq_len: usize,
        features: usize,
        bytes: &'a [u8],
    ) -> Result<Self, PersistError> {
        let header = Self::peek_header(bytes)?;
        if (header.id, header.seq_len, header.features) != (id, seq_len, features) {
            return Err(PersistError::StructureMismatch {
                detail: format!(
                    "checkpoint is {} ({}x{}), model is {} ({}x{})",
                    header.id.name(),
                    header.seq_len,
                    header.features,
                    id.name(),
                    seq_len,
                    features
                ),
            });
        }
        // header length: magic + name + two u32 dims (+ v2 dtype byte)
        let v1_len = 8 + 4 + id.name().len() + 8;
        let pos = if bytes.starts_with(MAGIC_V1) {
            v1_len
        } else {
            v1_len + 1
        };
        Ok(Self { buf: bytes, pos })
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        if self.pos + n > self.buf.len() {
            return Err(PersistError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("size")))
    }

    fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("size")))
    }

    fn f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("size")))
    }

    fn name(&mut self) -> Result<String, PersistError> {
        let len = self.u32()? as usize;
        let s = std::str::from_utf8(self.take(len)?).map_err(|_| PersistError::BadName)?;
        Ok(s.to_string())
    }

    fn section(&mut self, kind: u8, name: &str) -> Result<(), PersistError> {
        let got_kind = self.take(1)?[0];
        let got_name = self.name()?;
        if got_kind != kind || got_name != name {
            return Err(PersistError::StructureMismatch {
                detail: format!(
                    "expected section {name:?} ({}), checkpoint has {got_name:?} ({})",
                    kind_name(kind),
                    kind_name(got_kind)
                ),
            });
        }
        Ok(())
    }

    /// Reads the next section as a named dimension.
    pub fn dim(&mut self, name: &str) -> Result<usize, PersistError> {
        self.section(KIND_DIM, name)?;
        Ok(self.u64()? as usize)
    }

    /// Reads the next section as a named scalar.
    pub fn float(&mut self, name: &str) -> Result<f64, PersistError> {
        self.section(KIND_FLOAT, name)?;
        self.f64()
    }

    /// Reads the next section as a named `f64` list.
    pub fn floats(&mut self, name: &str) -> Result<Vec<f64>, PersistError> {
        self.section(KIND_FLOATS, name)?;
        let n = self.u64()? as usize;
        if self.pos + n.saturating_mul(8) > self.buf.len() {
            return Err(PersistError::Truncated);
        }
        (0..n).map(|_| self.f64()).collect()
    }

    /// Reads the next section as a named matrix.
    pub fn matrix(&mut self, name: &str) -> Result<Matrix, PersistError> {
        self.section(KIND_MATRIX, name)?;
        let rows = self.u32()? as usize;
        let cols = self.u32()? as usize;
        let n = rows.saturating_mul(cols);
        if self.pos + n.saturating_mul(8) > self.buf.len() {
            return Err(PersistError::Truncated);
        }
        let data: Vec<f64> = (0..n).map(|_| self.f64()).collect::<Result<_, _>>()?;
        Matrix::from_vec(rows, cols, data).map_err(|_| PersistError::StructureMismatch {
            detail: format!("{name}: invalid {rows}x{cols} matrix shape"),
        })
    }

    /// Restores the next section's embedded `TSGBNN01` blob into an
    /// existing parameter store of matching structure.
    pub fn params(&mut self, name: &str, into: &mut Params) -> Result<(), PersistError> {
        self.section(KIND_PARAMS, name)?;
        let len = self.u64()? as usize;
        let blob = self.take(len)?;
        tsgb_nn::persist::restore(into, blob)
    }

    /// Verifies the checkpoint holds no unread trailing bytes.
    pub fn finish(self) -> Result<(), PersistError> {
        if self.pos != self.buf.len() {
            return Err(PersistError::StructureMismatch {
                detail: format!(
                    "checkpoint has {} unread trailing bytes",
                    self.buf.len() - self.pos
                ),
            });
        }
        Ok(())
    }
}

/// Reconstructs a trained method from checkpoint bytes: reads the
/// identity block, instantiates via [`MethodId::create`], and loads
/// the state. This is the entry point the serving registry uses.
pub fn load_method(bytes: &[u8]) -> Result<Box<dyn TsgMethod>, PersistError> {
    let header = SnapshotReader::peek_header(bytes)?;
    let mut method = header.id.create(header.seq_len, header.features);
    method.load(bytes)?;
    Ok(method)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let w = SnapshotWriter::new(MethodId::TimeVae, 12, 3);
        let bytes = w.finish();
        let h = SnapshotReader::peek_header(&bytes).unwrap();
        assert_eq!(h.id, MethodId::TimeVae);
        assert_eq!((h.seq_len, h.features), (12, 3));
        SnapshotReader::open(MethodId::TimeVae, 12, 3, &bytes)
            .unwrap()
            .finish()
            .unwrap();
    }

    #[test]
    fn wrong_identity_is_mismatch() {
        let bytes = SnapshotWriter::new(MethodId::Rgan, 8, 2).finish();
        let err = SnapshotReader::open(MethodId::TimeVae, 8, 2, &bytes).unwrap_err();
        assert!(matches!(err, PersistError::StructureMismatch { .. }));
        let err = SnapshotReader::open(MethodId::Rgan, 9, 2, &bytes).unwrap_err();
        assert!(err.to_string().contains("9x2"));
    }

    #[test]
    fn sections_verify_name_and_kind() {
        let mut w = SnapshotWriter::new(MethodId::Rgan, 8, 2);
        w.dim("hidden", 16);
        w.floats("sched", &[0.5, 0.25]);
        let bytes = w.finish();
        let mut r = SnapshotReader::open(MethodId::Rgan, 8, 2, &bytes).unwrap();
        // wrong name
        assert!(matches!(
            r.dim("latent"),
            Err(PersistError::StructureMismatch { .. })
        ));
        let mut r = SnapshotReader::open(MethodId::Rgan, 8, 2, &bytes).unwrap();
        // wrong kind
        assert!(matches!(
            r.float("hidden"),
            Err(PersistError::StructureMismatch { .. })
        ));
        let mut r = SnapshotReader::open(MethodId::Rgan, 8, 2, &bytes).unwrap();
        assert_eq!(r.dim("hidden").unwrap(), 16);
        assert_eq!(r.floats("sched").unwrap(), vec![0.5, 0.25]);
        r.finish().unwrap();
    }

    /// Rewrites a v2 checkpoint as its v1 (`TSGBCK01`) equivalent:
    /// old magic, no dtype byte. Payloads are identical.
    fn as_v1(bytes: &[u8]) -> Vec<u8> {
        let header = SnapshotReader::peek_header(bytes).unwrap();
        let dtype_at = 8 + 4 + header.id.name().len() + 8;
        let mut v1 = Vec::with_capacity(bytes.len() - 1);
        v1.extend_from_slice(MAGIC_V1);
        v1.extend_from_slice(&bytes[8..dtype_at]);
        v1.extend_from_slice(&bytes[dtype_at + 1..]);
        v1
    }

    #[test]
    fn v1_checkpoints_load_unchanged() {
        let mut w = SnapshotWriter::new(MethodId::Rgan, 8, 2);
        w.dim("hidden", 16);
        w.float("beta", 0.75);
        w.floats("sched", &[0.5, 0.25]);
        let v2 = w.finish();
        let v1 = as_v1(&v2);
        let h = SnapshotReader::peek_header(&v1).unwrap();
        assert_eq!((h.id, h.seq_len, h.features), (MethodId::Rgan, 8, 2));
        let mut r = SnapshotReader::open(MethodId::Rgan, 8, 2, &v1).unwrap();
        assert_eq!(r.dim("hidden").unwrap(), 16);
        assert_eq!(r.float("beta").unwrap(), 0.75);
        assert_eq!(r.floats("sched").unwrap(), vec![0.5, 0.25]);
        r.finish().unwrap();
    }

    #[test]
    fn corrupt_dtype_byte_is_a_decode_error() {
        let mut w = SnapshotWriter::new(MethodId::Rgan, 8, 2);
        w.dim("hidden", 16);
        let mut bytes = w.finish();
        let dtype_at = 8 + 4 + MethodId::Rgan.name().len() + 8;
        assert_eq!(bytes[dtype_at], 1, "dtype byte location");
        // 2 was the retired f32 layout; it fails like any other byte
        for dtype in [2u8, 7] {
            bytes[dtype_at] = dtype;
            let err = SnapshotReader::peek_header(&bytes).unwrap_err();
            assert!(
                err.to_string().contains(&format!("dtype byte {dtype}")),
                "{err}"
            );
            assert!(SnapshotReader::open(MethodId::Rgan, 8, 2, &bytes).is_err());
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut w = SnapshotWriter::new(MethodId::Rgan, 8, 2);
        w.dim("hidden", 16);
        let mut bytes = w.finish();
        bytes.push(0);
        let mut r = SnapshotReader::open(MethodId::Rgan, 8, 2, &bytes).unwrap();
        r.dim("hidden").unwrap();
        assert!(matches!(
            r.finish(),
            Err(PersistError::StructureMismatch { .. })
        ));
    }

    #[test]
    fn truncation_and_magic_rejected() {
        let mut w = SnapshotWriter::new(MethodId::Rgan, 8, 2);
        w.matrix("m", &Matrix::from_fn(2, 2, |r, c| (r + c) as f64));
        let bytes = w.finish();
        assert!(
            SnapshotReader::peek_header(&bytes[..bytes.len() - 5]).is_ok(),
            "header itself is intact"
        );
        let mut r = SnapshotReader::open(MethodId::Rgan, 8, 2, &bytes[..bytes.len() - 5]).unwrap();
        assert_eq!(r.matrix("m"), Err(PersistError::Truncated));
        assert_eq!(
            SnapshotReader::peek_header(b"NOTMAGIC"),
            Err(PersistError::BadMagic)
        );
        assert_eq!(
            SnapshotReader::peek_header(b"TSGB"),
            Err(PersistError::Truncated)
        );
    }
}
