//! Data payloads: real bytes or synthetic (sized-only) data.

use bytes::Bytes;

/// A dataset read/write payload.
///
/// `Real` carries bytes (attributes, small datasets, fixtures whose values
/// matter). `Synthetic` carries only a size: it flows through the same VOL
/// and file-system paths, is charged the same modeled transfer time, and is
/// stored sparsely (zeros on read-back). H5bench-scale workloads use
/// `Synthetic` so a 3.9 TB experiment fits in host memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Data {
    Real(Bytes),
    Synthetic(u64),
}

impl Data {
    pub fn real(bytes: impl Into<Bytes>) -> Self {
        Data::Real(bytes.into())
    }

    pub fn synthetic(len: u64) -> Self {
        Data::Synthetic(len)
    }

    /// Payload length in bytes.
    pub fn len(&self) -> u64 {
        match self {
            Data::Real(b) => b.len() as u64,
            Data::Synthetic(n) => *n,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Real bytes, if this payload carries them.
    pub fn as_bytes(&self) -> Option<&Bytes> {
        match self {
            Data::Real(b) => Some(b),
            Data::Synthetic(_) => None,
        }
    }

    /// A sub-range of the payload (used when scattering one payload across
    /// multiple hyperslab runs).
    pub(crate) fn slice(&self, offset: u64, len: u64) -> Data {
        match self {
            Data::Real(b) => {
                let start = (offset as usize).min(b.len());
                let end = ((offset + len) as usize).min(b.len());
                Data::Real(b.slice(start..end))
            }
            Data::Synthetic(total) => {
                let avail = total.saturating_sub(offset);
                Data::Synthetic(avail.min(len))
            }
        }
    }

    /// Encode little-endian f64s (convenience for fixtures).
    pub fn from_f64s(values: &[f64]) -> Data {
        let mut out = Vec::with_capacity(values.len() * 8);
        for v in values {
            out.extend_from_slice(&v.to_le_bytes());
        }
        Data::real(out)
    }

    /// Decode little-endian f64s from a real payload.
    pub fn to_f64s(&self) -> Option<Vec<f64>> {
        let b = self.as_bytes()?;
        if b.len() % 8 != 0 {
            return None;
        }
        Some(
            b.chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().expect("chunk of 8")))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lengths() {
        assert_eq!(Data::real(vec![1, 2, 3]).len(), 3);
        assert_eq!(Data::synthetic(1 << 40).len(), 1 << 40);
        assert!(Data::synthetic(0).is_empty());
    }

    #[test]
    fn slicing_real() {
        let d = Data::real(vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(d.slice(2, 3), Data::real(vec![2, 3, 4]));
        assert_eq!(d.slice(4, 100), Data::real(vec![4, 5]));
    }

    #[test]
    fn slicing_synthetic() {
        let d = Data::synthetic(100);
        assert_eq!(d.slice(90, 20).len(), 10);
        assert!(d.slice(90, 20).as_bytes().is_none());
    }

    #[test]
    fn f64_round_trip() {
        let d = Data::from_f64s(&[1.5, -2.25, 0.0]);
        assert_eq!(d.to_f64s().unwrap(), vec![1.5, -2.25, 0.0]);
        assert!(Data::synthetic(8).to_f64s().is_none());
        assert!(Data::real(vec![1, 2, 3]).to_f64s().is_none());
    }
}
