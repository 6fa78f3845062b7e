//! Packed batches: only the real rows of a left-padded batch.
//!
//! A training batch is `[b, n]` cells, most of them padding. A [`Packing`]
//! lists the real cells in row-major order (columns ascending within a
//! sequence) and groups them into one segment per sequence. Row-wise ops
//! (embedding gather, LayerNorm, projections, FFN, residuals) run on the
//! `[R, d]` packed rows unchanged; attention runs per segment
//! ([`autograd::Ctx::seg_attention`]). Each packed row keeps its padded
//! column as its position, so positions stay right-anchored.
//!
//! Dropout masks are still drawn at the padded shapes, in the padded
//! order, and only the real rows' entries are kept (see
//! [`crate::Dropout::apply_rows`]), so a packed forward consumes the same
//! RNG stream as a padded one.

use autograd::Ctx;
use tensor::{Segments, Tensor};

/// The real cells of a padded `[batch, window]` batch, as segments.
#[derive(Debug, Clone)]
pub struct Packing {
    batch: usize,
    window: usize,
    /// Flat padded cell (`b·window + column`) of each packed row.
    cells: Vec<usize>,
    segs: Segments,
}

impl Packing {
    /// Packs a batch whose padding is `pad[b][column]`. `causal` sets how
    /// rows attend within their segment.
    pub fn new(pad: &[Vec<bool>], causal: bool) -> Packing {
        let window = pad.first().map_or(0, Vec::len);
        let mut cells = Vec::new();
        let mut offsets = Vec::with_capacity(pad.len() + 1);
        offsets.push(0);
        for (b, row) in pad.iter().enumerate() {
            assert_eq!(row.len(), window, "padding rows have one length");
            cells.extend((0..window).filter(|&j| !row[j]).map(|j| b * window + j));
            offsets.push(cells.len());
        }
        Packing {
            batch: pad.len(),
            window,
            cells,
            segs: Segments::new(offsets, causal),
        }
    }

    /// One sequence of `len` rows, none of them padding, attending
    /// causally: a left-aligned window whose positions are `0..len`, the
    /// convention an append-only K/V cache needs.
    pub fn left_aligned(len: usize) -> Packing {
        Packing::new(&[vec![false; len]], true)
    }

    /// Sequences in the batch (segments, empty ones included).
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// The padded window `n`.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Packed rows `R`.
    pub fn rows(&self) -> usize {
        self.cells.len()
    }

    /// The segment layout the attention reads.
    pub fn segments(&self) -> &Segments {
        &self.segs
    }

    /// Flat padded cell (`b·window + column`) of each packed row, ascending.
    pub fn cells(&self) -> &[usize] {
        &self.cells
    }

    /// Position of each packed row: its padded column.
    pub fn positions(&self) -> Vec<usize> {
        self.cells.iter().map(|&c| c % self.window).collect()
    }

    /// True when no cell is padding, so packed rows are the padded rows.
    fn dense(&self) -> bool {
        self.cells.len() == self.batch * self.window
    }

    /// The real rows `[R, d]` of a padded `[b, n, d]` value.
    pub fn pack<C: Ctx>(&self, c: &C, x: &C::V) -> C::V {
        let d = c.dims(x)[2];
        let flat = c.reshape(x, vec![self.batch * self.window, d]);
        if self.dense() {
            flat
        } else {
            c.select_rows(&flat, &self.cells)
        }
    }

    /// Packed rows `x: [R, d]` back at their cells of `[b, n, d]`, with
    /// zero rows at the padding.
    pub fn unpack<C: Ctx>(&self, c: &C, x: &C::V) -> C::V {
        let d = c.dims(x)[1];
        let dims = vec![self.batch, self.window, d];
        if self.dense() {
            return c.reshape(x, dims);
        }
        let zero = self.cells.len();
        let mut from = vec![zero; self.batch * self.window];
        for (r, &cell) in self.cells.iter().enumerate() {
            from[cell] = r;
        }
        c.reshape(&c.select_rows(&with_zero_row(c, x, d), &from), dims)
    }

    /// Each segment's last row of `x: [R, d]`, as `[b, d]`; a zero row for
    /// a sequence with no real cell.
    pub fn last_rows<C: Ctx>(&self, c: &C, x: &C::V) -> C::V {
        let d = c.dims(x)[1];
        let zero = self.cells.len();
        let last: Vec<usize> = self
            .segs
            .spans()
            .map(|(start, len)| if len == 0 { zero } else { start + len - 1 })
            .collect();
        if last.contains(&zero) {
            c.select_rows(&with_zero_row(c, x, d), &last)
        } else {
            c.select_rows(x, &last)
        }
    }

    /// Flat index, in the padded `[b·heads, n, n]` weights, of each
    /// attention weight a [`Ctx::seg_attention`] over this packing keeps,
    /// in its buffer order (which is ascending).
    pub(crate) fn attention_cells(&self, heads: usize) -> Vec<usize> {
        let n = self.window;
        let offsets = self.segs.offsets();
        let mut out = Vec::with_capacity(self.segs.cells(heads));
        self.segs.for_each_cell(heads, |s, h, i, j| {
            let col = |r: usize| self.cells[offsets[s] + r] % n;
            out.push(((s * heads + h) * n + col(i)) * n + col(j));
        });
        out
    }
}

/// `x: [R, d]` with one zero row appended at index `R`.
fn with_zero_row<C: Ctx>(c: &C, x: &C::V, d: usize) -> C::V {
    let zero = c.constant(Tensor::zeros(vec![1, d]));
    c.concat(&[x, &zero], 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use autograd::Eager;

    fn pad(rows: &[&[bool]]) -> Vec<Vec<bool>> {
        rows.iter().map(|r| r.to_vec()).collect()
    }

    #[test]
    fn cells_positions_and_segments() {
        let p = Packing::new(
            &pad(&[
                &[true, true, false, false],
                &[false, true, false, false],
                &[true, true, true, true],
                &[false, false, false, false],
            ]),
            true,
        );
        assert_eq!(p.rows(), 9);
        assert_eq!(p.cells(), &[2, 3, 4, 6, 7, 12, 13, 14, 15]);
        assert_eq!(p.positions(), vec![2, 3, 0, 2, 3, 0, 1, 2, 3]);
        assert_eq!(p.segments().offsets(), &[0, 2, 5, 5, 9]);
    }

    #[test]
    fn unpack_inverts_pack_with_zero_padding() {
        let p = Packing::new(&pad(&[&[true, false, false], &[false, true, false]]), true);
        let x = Tensor::from_vec((1..=12).map(|v| v as f32).collect(), vec![2, 3, 2]);
        let packed = p.pack(&Eager, &x);
        assert_eq!(packed.data(), &[3., 4., 5., 6., 7., 8., 11., 12.]);
        let back = p.unpack(&Eager, &packed);
        assert_eq!(
            back.data(),
            &[0., 0., 3., 4., 5., 6., 7., 8., 0., 0., 11., 12.]
        );
        assert_eq!(p.last_rows(&Eager, &packed).data(), &[5., 6., 11., 12.]);
    }

    #[test]
    fn an_empty_segment_reads_a_zero_last_row() {
        let p = Packing::new(&pad(&[&[true, true], &[true, false]]), false);
        let packed = Tensor::from_vec(vec![-1.5, 2.0], vec![1, 2]);
        let last = p.last_rows(&Eager, &packed);
        assert_eq!(last.data(), &[0.0, 0.0, -1.5, 2.0]);
        assert!(last.data()[..2].iter().all(|v| v.to_bits() == 0));
    }

    #[test]
    fn attention_cells_index_the_padded_weights() {
        // Sequence 0 has real columns 1 and 2; sequence 1 only column 2.
        let p = Packing::new(&pad(&[&[true, false, false], &[true, true, false]]), true);
        let (n, heads) = (3, 2);
        // Segment 0, head 0 keeps (row, key) columns (1,1), (2,1), (2,2):
        // cells 4, 7, 8 of its 3×3 block; head 1 the same 9 cells on.
        // Segment 1 keeps (2,2) in blocks 2 and 3.
        let want = vec![4, 7, 8, 9 + 4, 9 + 7, 9 + 8, 2 * 9 + 8, 3 * 9 + 8];
        assert_eq!(p.attention_cells(heads), want);
        assert_eq!(want.len(), p.segments().cells(heads));
        assert!(want.iter().all(|&c| c < 2 * heads * n * n));
    }
}
