//! Declarative shape-inference rules.
//!
//! Pure functions mapping *input shapes* to *output shapes* for every tensor
//! operation, without touching data. They mirror the validation performed by
//! the concrete kernels in [`crate::ops`] exactly, so a rule succeeding here
//! guarantees the kernel will accept the same shapes (and vice versa).
//!
//! The static graph auditor (`crates/analysis`) uses these rules to propagate
//! `[batch, seq, dim]` shapes symbolically through a recorded autograd tape,
//! turning mid-epoch shape panics into up-front diagnostics with op-level
//! provenance. Errors are the same structured [`TensorError`] values the
//! runtime ops return, so diagnostics and runtime failures read identically.

use crate::shape::broadcast_shapes;
use crate::{Result, TensorError};

/// Output shape of a broadcasting binary elementwise op (`add`, `mul`, ...).
pub fn broadcast(op: &'static str, lhs: &[usize], rhs: &[usize]) -> Result<Vec<usize>> {
    broadcast_shapes(lhs, rhs).map_err(|_| TensorError::ShapeMismatch {
        op,
        lhs: lhs.to_vec(),
        rhs: rhs.to_vec(),
    })
}

/// Output shape of `matmul`. Mirrors [`crate::ops::matmul`]: supports
/// `(m,k)·(k,n)`, `(b,m,k)·(b,k,n)` and `(b,m,k)·(k,n)`.
pub fn matmul(lhs: &[usize], rhs: &[usize]) -> Result<Vec<usize>> {
    let err = || TensorError::ShapeMismatch {
        op: "matmul",
        lhs: lhs.to_vec(),
        rhs: rhs.to_vec(),
    };
    match (lhs.len(), rhs.len()) {
        (2, 2) => {
            if lhs[1] != rhs[0] {
                return Err(err());
            }
            Ok(vec![lhs[0], rhs[1]])
        }
        (3, 3) => {
            if rhs[0] != lhs[0] || rhs[1] != lhs[2] {
                return Err(err());
            }
            Ok(vec![lhs[0], lhs[1], rhs[2]])
        }
        (3, 2) => {
            if rhs[0] != lhs[2] {
                return Err(err());
            }
            Ok(vec![lhs[0], lhs[1], rhs[1]])
        }
        _ => Err(err()),
    }
}

/// Output shape of the fused `matmul_transb` (`A·Bᵀ`). Mirrors
/// [`crate::ops::matmul_transb`]: supports `(m,k)·(n,k)ᵀ`,
/// `(b,m,k)·(b,n,k)ᵀ` and `(b,m,k)·(n,k)ᵀ`.
pub fn matmul_transb(lhs: &[usize], rhs: &[usize]) -> Result<Vec<usize>> {
    let err = || TensorError::ShapeMismatch {
        op: "matmul_transb",
        lhs: lhs.to_vec(),
        rhs: rhs.to_vec(),
    };
    match (lhs.len(), rhs.len()) {
        (2, 2) => {
            if lhs[1] != rhs[1] {
                return Err(err());
            }
            Ok(vec![lhs[0], rhs[0]])
        }
        (3, 3) => {
            if rhs[0] != lhs[0] || rhs[2] != lhs[2] {
                return Err(err());
            }
            Ok(vec![lhs[0], lhs[1], rhs[1]])
        }
        (3, 2) => {
            if rhs[1] != lhs[2] {
                return Err(err());
            }
            Ok(vec![lhs[0], lhs[1], rhs[0]])
        }
        _ => Err(err()),
    }
}

/// Output shape of the fused `matmul_transa` (`Aᵀ·B`). Mirrors
/// [`crate::ops::matmul_transa`]: supports `(k,m)ᵀ·(k,n)` and
/// `(b,k,m)ᵀ·(b,k,n)`.
pub fn matmul_transa(lhs: &[usize], rhs: &[usize]) -> Result<Vec<usize>> {
    let err = || TensorError::ShapeMismatch {
        op: "matmul_transa",
        lhs: lhs.to_vec(),
        rhs: rhs.to_vec(),
    };
    match (lhs.len(), rhs.len()) {
        (2, 2) => {
            if lhs[0] != rhs[0] {
                return Err(err());
            }
            Ok(vec![lhs[1], rhs[1]])
        }
        (3, 3) => {
            if rhs[0] != lhs[0] || rhs[1] != lhs[1] {
                return Err(err());
            }
            Ok(vec![lhs[0], lhs[2], rhs[2]])
        }
        _ => Err(err()),
    }
}

/// Output shape of an axis reduction (`sum_axis`, `mean_axis`, `max_axis`).
pub fn reduce_axis(input: &[usize], axis: usize, keepdim: bool) -> Result<Vec<usize>> {
    if axis >= input.len() {
        return Err(TensorError::InvalidAxis {
            axis,
            ndim: input.len(),
        });
    }
    let mut out = input.to_vec();
    if keepdim {
        out[axis] = 1;
    } else {
        out.remove(axis);
    }
    Ok(out)
}

/// Output shape of `reshape` to `target` (element counts must agree).
pub fn reshape(input: &[usize], target: &[usize]) -> Result<Vec<usize>> {
    let in_n: usize = input.iter().product();
    let out_n: usize = target.iter().product();
    if in_n != out_n {
        return Err(TensorError::ShapeMismatch {
            op: "reshape",
            lhs: input.to_vec(),
            rhs: target.to_vec(),
        });
    }
    Ok(target.to_vec())
}

/// Output shape of `transpose_last2` (rank must be ≥ 2).
pub fn transpose_last2(input: &[usize]) -> Result<Vec<usize>> {
    let nd = input.len();
    if nd < 2 {
        return Err(TensorError::InvalidAxis { axis: 1, ndim: nd });
    }
    let mut out = input.to_vec();
    out.swap(nd - 2, nd - 1);
    Ok(out)
}

/// Output shape of `permute` with axis order `perm`.
pub fn permute(input: &[usize], perm: &[usize]) -> Result<Vec<usize>> {
    let nd = input.len();
    if perm.len() != nd {
        return Err(TensorError::InvalidAxis {
            axis: perm.len(),
            ndim: nd,
        });
    }
    let mut seen = vec![false; nd];
    for &p in perm {
        if p >= nd || seen[p] {
            return Err(TensorError::InvalidAxis { axis: p, ndim: nd });
        }
        seen[p] = true;
    }
    Ok(perm.iter().map(|&p| input[p]).collect())
}

/// Output shape of `concat` along `axis`. All parts must share rank and
/// agree on every non-concat dimension.
pub fn concat(parts: &[&[usize]], axis: usize) -> Result<Vec<usize>> {
    let first = match parts.first() {
        Some(f) => *f,
        None => {
            return Err(TensorError::InvalidAxis { axis, ndim: 0 });
        }
    };
    let nd = first.len();
    if axis >= nd {
        return Err(TensorError::InvalidAxis { axis, ndim: nd });
    }
    let mut axis_total = 0usize;
    for p in parts {
        if p.len() != nd {
            return Err(TensorError::ShapeMismatch {
                op: "concat",
                lhs: first.to_vec(),
                rhs: p.to_vec(),
            });
        }
        for d in 0..nd {
            if d != axis && p[d] != first[d] {
                return Err(TensorError::ShapeMismatch {
                    op: "concat",
                    lhs: first.to_vec(),
                    rhs: p.to_vec(),
                });
            }
        }
        axis_total += p[axis];
    }
    let mut out = first.to_vec();
    out[axis] = axis_total;
    Ok(out)
}

/// Output shape of `slice_axis(t, axis, start, end)`.
pub fn slice_axis(input: &[usize], axis: usize, start: usize, end: usize) -> Result<Vec<usize>> {
    let nd = input.len();
    if axis >= nd {
        return Err(TensorError::InvalidAxis { axis, ndim: nd });
    }
    if end > input[axis] || start > end {
        return Err(TensorError::IndexOutOfRange {
            index: end,
            bound: input[axis],
        });
    }
    let mut out = input.to_vec();
    out[axis] = end - start;
    Ok(out)
}

/// Output shape of `index_select_rows` picking `count` rows of a rank-2
/// table.
pub fn gather_rows(input: &[usize], count: usize) -> Result<Vec<usize>> {
    if input.len() != 2 {
        return Err(TensorError::InvalidAxis {
            axis: 2,
            ndim: input.len(),
        });
    }
    Ok(vec![count, input[1]])
}

/// Output shape of `seg_attention` over packed `[R, d]` query, key and
/// value rows split into `heads` column groups. Mirrors
/// [`crate::segment::seg_attention`]'s shape checks.
pub fn seg_attention(inputs: &[&[usize]], heads: usize) -> Result<Vec<usize>> {
    match inputs {
        [q, k, v]
            if q.len() == 2 && k == q && v == q && heads > 0 && q[1].is_multiple_of(heads) =>
        {
            Ok(q.to_vec())
        }
        _ => Err(TensorError::ShapeMismatch {
            op: "seg_attention",
            lhs: inputs.first().map(|d| d.to_vec()).unwrap_or_default(),
            rhs: inputs.get(1).map(|d| d.to_vec()).unwrap_or_default(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_rule() {
        assert_eq!(broadcast("add", &[2, 3], &[3]).unwrap(), vec![2, 3]);
        assert_eq!(broadcast("mul", &[2, 1], &[2, 3]).unwrap(), vec![2, 3]);
        assert!(broadcast("add", &[2, 3], &[4, 3]).is_err());
    }

    #[test]
    fn matmul_rule() {
        assert_eq!(matmul(&[2, 3], &[3, 4]).unwrap(), vec![2, 4]);
        assert_eq!(matmul(&[5, 2, 3], &[5, 3, 4]).unwrap(), vec![5, 2, 4]);
        assert_eq!(matmul(&[5, 2, 3], &[3, 4]).unwrap(), vec![5, 2, 4]);
        assert!(matmul(&[2, 3], &[2, 3]).is_err());
        assert!(matmul(&[2], &[2]).is_err());
    }

    #[test]
    fn fused_matmul_rules() {
        assert_eq!(matmul_transb(&[2, 3], &[4, 3]).unwrap(), vec![2, 4]);
        assert_eq!(
            matmul_transb(&[5, 2, 3], &[5, 4, 3]).unwrap(),
            vec![5, 2, 4]
        );
        assert_eq!(matmul_transb(&[5, 2, 3], &[4, 3]).unwrap(), vec![5, 2, 4]);
        assert!(matmul_transb(&[2, 3], &[3, 4]).is_err());
        assert!(matmul_transb(&[2], &[2]).is_err());

        assert_eq!(matmul_transa(&[3, 2], &[3, 4]).unwrap(), vec![2, 4]);
        assert_eq!(
            matmul_transa(&[5, 3, 2], &[5, 3, 4]).unwrap(),
            vec![5, 2, 4]
        );
        assert!(matmul_transa(&[3, 2], &[4, 3]).is_err());
        assert!(matmul_transa(&[5, 3, 2], &[3, 4]).is_err());
    }

    #[test]
    fn reduce_reshape_rules() {
        assert_eq!(reduce_axis(&[2, 3, 4], 1, false).unwrap(), vec![2, 4]);
        assert_eq!(reduce_axis(&[2, 3, 4], 1, true).unwrap(), vec![2, 1, 4]);
        assert!(reduce_axis(&[2], 1, false).is_err());
        assert_eq!(reshape(&[2, 3], &[6]).unwrap(), vec![6]);
        assert!(reshape(&[2, 3], &[5]).is_err());
    }

    #[test]
    fn layout_rules() {
        assert_eq!(transpose_last2(&[4, 2, 3]).unwrap(), vec![4, 3, 2]);
        assert!(transpose_last2(&[4]).is_err());
        assert_eq!(permute(&[2, 3, 4], &[2, 0, 1]).unwrap(), vec![4, 2, 3]);
        assert!(permute(&[2, 3], &[0, 0]).is_err());
        assert_eq!(concat(&[&[2, 3][..], &[1, 3][..]], 0).unwrap(), vec![3, 3]);
        assert!(concat(&[&[2, 3][..], &[2, 4][..]], 0).is_err());
        assert_eq!(slice_axis(&[2, 5, 3], 1, 1, 4).unwrap(), vec![2, 3, 3]);
        assert!(slice_axis(&[2, 5, 3], 1, 2, 6).is_err());
        assert_eq!(gather_rows(&[10, 4], 3).unwrap(), vec![3, 4]);
        assert!(gather_rows(&[10], 3).is_err());
    }
}
