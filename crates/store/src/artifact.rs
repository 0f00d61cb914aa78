//! Codecs of the linalg types the store caches: `DenseMatrix` (tag 1),
//! `CsrMatrix` (tag 2), `Svd` (tag 4) and `Eigen` (tag 5).
//!
//! Every cached value crosses the store as its own type: a crate above
//! this one implements [`Artifact`] on the type it owns — the trained
//! model record in `bbgnn-gnn` (tag 3), the served job result in
//! `bbgnn-serve` (tag 6) — so no value is copied into a mirror struct.
//! Tags are append-only: a new codec takes the next free tag, existing
//! tags are never reused or renumbered (a tag mismatch on read is a
//! decode error, and [`FORMAT_VERSION`](crate::format::FORMAT_VERSION)
//! bumps cover layout changes inside a codec).

use crate::format::{Artifact, Reader, Writer};
use bbgnn_linalg::eigen::Eigen;
use bbgnn_linalg::svd::Svd;
use bbgnn_linalg::{CsrMatrix, DenseMatrix};

impl Artifact for DenseMatrix {
    const TAG: u8 = 1;
    const KIND: &'static str = "dense";

    fn encode(&self, w: &mut Writer) {
        w.usize(self.rows());
        w.usize(self.cols());
        w.f64s(self.as_slice());
    }

    fn decode(r: &mut Reader) -> Result<Self, String> {
        let rows = r.usize()?;
        let cols = r.usize()?;
        let data = r.f64s()?;
        let len = rows
            .checked_mul(cols)
            .ok_or_else(|| format!("dense shape {rows}x{cols} overflows usize"))?;
        if data.len() != len {
            return Err(format!(
                "dense payload has {} entries for a {rows}x{cols} matrix",
                data.len()
            ));
        }
        Ok(DenseMatrix::from_vec(rows, cols, data))
    }
}

impl Artifact for CsrMatrix {
    const TAG: u8 = 2;
    const KIND: &'static str = "csr";

    fn encode(&self, w: &mut Writer) {
        w.usize(self.rows());
        w.usize(self.cols());
        w.usizes(self.row_ptr());
        w.usizes(self.col_indices());
        w.f64s(self.values());
    }

    fn decode(r: &mut Reader) -> Result<Self, String> {
        let rows = r.usize()?;
        let cols = r.usize()?;
        let row_ptr = r.usizes()?;
        let col_idx = r.usizes()?;
        let values = r.f64s()?;
        CsrMatrix::try_from_raw_parts(rows, cols, row_ptr, col_idx, values)
    }
}

/// A truncated SVD `U Σ Vᵀ` (GCN-SVD's purification step).
impl Artifact for Svd {
    const TAG: u8 = 4;
    const KIND: &'static str = "svd";

    fn encode(&self, w: &mut Writer) {
        self.u.encode(w);
        w.f64s(&self.sigma);
        self.v.encode(w);
    }

    fn decode(r: &mut Reader) -> Result<Self, String> {
        Ok(Svd {
            u: DenseMatrix::decode(r)?,
            sigma: r.f64s()?,
            v: DenseMatrix::decode(r)?,
        })
    }
}

/// A top-k eigenpair bundle (GF-Attack's spectral filter inputs).
impl Artifact for Eigen {
    const TAG: u8 = 5;
    const KIND: &'static str = "eigen";

    fn encode(&self, w: &mut Writer) {
        w.f64s(&self.values);
        self.vectors.encode(w);
    }

    fn decode(r: &mut Reader) -> Result<Self, String> {
        Ok(Eigen {
            values: r.f64s()?,
            vectors: DenseMatrix::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<A: Artifact>(a: &A) -> A {
        let mut w = Writer::new();
        a.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let out = A::decode(&mut r).expect("decode");
        r.finish().expect("fully consumed");
        out
    }

    #[test]
    fn dense_roundtrip_is_bitwise() {
        let m = DenseMatrix::from_vec(2, 3, vec![1.0, -0.0, f64::NAN, 1e-308, -5.5, 0.1]);
        let back = roundtrip(&m);
        assert_eq!(back.rows(), 2);
        assert_eq!(back.cols(), 3);
        let bits = |x: &DenseMatrix| x.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&m), bits(&back));
    }

    #[test]
    fn csr_roundtrip_is_bitwise() {
        let m = CsrMatrix::from_triplets(4, 5, [(0, 1, 0.5), (0, 4, -0.0), (3, 2, 1e-30)]);
        let back = roundtrip(&m);
        assert_eq!(m.content_hash(), back.content_hash());
    }

    #[test]
    fn csr_decode_rejects_inconsistent_structure() {
        let mut w = Writer::new();
        w.usize(2); // rows
        w.usize(2); // cols
        w.usizes(&[0, 1]); // row_ptr too short for rows=2
        w.usizes(&[0]);
        w.f64s(&[1.0]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(CsrMatrix::decode(&mut r).is_err());
    }

    #[test]
    fn factor_bundles_roundtrip() {
        let svd = Svd {
            u: DenseMatrix::from_vec(2, 1, vec![0.6, 0.8]),
            sigma: vec![3.0, 1.0],
            v: DenseMatrix::from_vec(2, 1, vec![1.0, 0.0]),
        };
        let back = roundtrip(&svd);
        assert_eq!(back.sigma, svd.sigma);
        assert_eq!(back.u.as_slice(), svd.u.as_slice());

        let eig = Eigen {
            values: vec![2.5, -0.5],
            vectors: DenseMatrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]),
        };
        let back = roundtrip(&eig);
        assert_eq!(back.values, eig.values);
        assert_eq!(back.vectors.as_slice(), eig.vectors.as_slice());
    }
}
