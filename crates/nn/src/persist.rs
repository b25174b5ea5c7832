//! Parameter persistence — save and restore a trained [`Params`]
//! store so a downstream user can train once and generate many times.
//!
//! The format is a tiny self-describing binary layout (no external
//! serializer): a magic header, the parameter count, then per
//! parameter the name (length-prefixed UTF-8), the shape, and the
//! little-endian values. Optimizer moments are deliberately not
//! persisted: a restored model is for inference or fresh fine-tuning.
//! Values are stored as `f64` under the `TSGBNN01` magic, so a restore
//! is bit-exact.

use crate::params::{ParamId, Params};
use std::fmt;
use tsgb_linalg::Matrix;

const MAGIC: &[u8; 8] = b"TSGBNN01";

/// Errors from decoding a parameter snapshot.
#[derive(Debug, PartialEq, Eq)]
pub enum PersistError {
    /// The buffer does not start with the expected magic bytes.
    BadMagic,
    /// The buffer ended before the declared content.
    Truncated,
    /// A name was not valid UTF-8.
    BadName,
    /// Restoring into a store whose structure does not match.
    StructureMismatch {
        /// Human-readable description of the first mismatch.
        detail: String,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::BadMagic => write!(f, "not a TSGBench parameter snapshot"),
            PersistError::Truncated => write!(f, "snapshot is truncated"),
            PersistError::BadName => write!(f, "snapshot contains an invalid name"),
            PersistError::StructureMismatch { detail } => {
                write!(f, "snapshot does not match the model: {detail}")
            }
        }
    }
}

impl std::error::Error for PersistError {}

/// Serializes every parameter (values only) into a byte buffer.
pub fn save(params: &Params) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(params.len() as u64).to_le_bytes());
    for id in params.ids() {
        let name = params.name(id).as_bytes();
        out.extend_from_slice(&(name.len() as u32).to_le_bytes());
        out.extend_from_slice(name);
        let v = params.value(id);
        out.extend_from_slice(&(v.rows() as u32).to_le_bytes());
        out.extend_from_slice(&(v.cols() as u32).to_le_bytes());
        for &x in v.as_slice() {
            out.extend_from_slice(&x.to_le_bytes());
        }
    }
    out
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
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
}

/// Restores a snapshot into an existing store built with the *same
/// architecture* (same registration order, names and shapes). Values
/// are overwritten; optimizer moments are untouched.
pub fn restore(params: &mut Params, bytes: &[u8]) -> Result<(), PersistError> {
    let mut r = Reader { buf: bytes, pos: 0 };
    if r.take(8)? != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let count = r.u64()? as usize;
    if count != params.len() {
        return Err(PersistError::StructureMismatch {
            detail: format!(
                "snapshot has {count} parameters, model has {}",
                params.len()
            ),
        });
    }
    let ids: Vec<ParamId> = params.ids().collect();
    for id in ids {
        let name_len = r.u32()? as usize;
        let name = std::str::from_utf8(r.take(name_len)?).map_err(|_| PersistError::BadName)?;
        if name != params.name(id) {
            return Err(PersistError::StructureMismatch {
                detail: format!(
                    "expected parameter {:?}, snapshot has {name:?}",
                    params.name(id)
                ),
            });
        }
        let rows = r.u32()? as usize;
        let cols = r.u32()? as usize;
        let (er, ec) = params.value(id).shape();
        if (rows, cols) != (er, ec) {
            return Err(PersistError::StructureMismatch {
                detail: format!("{name}: shape {rows}x{cols} vs model {er}x{ec}"),
            });
        }
        let mut data = Vec::with_capacity(rows * cols);
        for _ in 0..rows * cols {
            data.push(r.f64()?);
        }
        params.set_value(
            id,
            Matrix::from_vec(rows, cols, data).expect("validated shape"),
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Linear;
    use tsgb_linalg::rng::seeded;

    fn model(seed: u64) -> Params {
        let mut rng = seeded(seed);
        let mut p = Params::new();
        let _ = Linear::new(&mut p, "a", 3, 4, &mut rng);
        let _ = Linear::new(&mut p, "b", 4, 2, &mut rng);
        p
    }

    #[test]
    fn roundtrip_restores_exact_values() {
        let src = model(1);
        let bytes = save(&src);
        let mut dst = model(2); // same structure, different values
        restore(&mut dst, &bytes).unwrap();
        for (i, id) in src.ids().enumerate() {
            let did = dst.ids().nth(i).unwrap();
            assert_eq!(src.value(id), dst.value(did));
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut dst = model(3);
        assert_eq!(
            restore(&mut dst, b"NOTMAGIC........"),
            Err(PersistError::BadMagic)
        );
        // the retired f32 layout's header does not load either
        let mut blob = save(&model(3));
        blob[..8].copy_from_slice(b"TSGBNN02");
        assert_eq!(restore(&mut dst, &blob), Err(PersistError::BadMagic));
    }

    #[test]
    fn truncation_rejected() {
        let src = model(4);
        let bytes = save(&src);
        let mut dst = model(5);
        let err = restore(&mut dst, &bytes[..bytes.len() - 3]).unwrap_err();
        assert_eq!(err, PersistError::Truncated);
    }

    #[test]
    fn structure_mismatch_rejected() {
        let src = model(6);
        let bytes = save(&src);
        let mut rng = seeded(7);
        let mut other = Params::new();
        let _ = Linear::new(&mut other, "a", 3, 4, &mut rng);
        let err = restore(&mut other, &bytes).unwrap_err();
        assert!(matches!(err, PersistError::StructureMismatch { .. }));
        assert!(err.to_string().contains("parameters"));

        // same count, different shape
        let mut other2 = Params::new();
        let _ = Linear::new(&mut other2, "a", 3, 4, &mut rng);
        let _ = Linear::new(&mut other2, "b", 5, 2, &mut rng);
        let err2 = restore(&mut other2, &bytes).unwrap_err();
        assert!(matches!(err2, PersistError::StructureMismatch { .. }));
    }
}
