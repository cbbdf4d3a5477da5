//! Dense gene × condition expression matrices.

/// A genes × conditions matrix of expression levels, row-major.
#[derive(Clone, Debug, PartialEq)]
pub struct ExpressionMatrix {
    genes: usize,
    conditions: usize,
    data: Vec<f64>,
}

impl ExpressionMatrix {
    /// A zeroed matrix.
    pub fn zeros(genes: usize, conditions: usize) -> Self {
        ExpressionMatrix {
            genes,
            conditions,
            data: vec![0.0; genes * conditions],
        }
    }

    /// Build from row-major data. Panics unless
    /// `data.len() == genes * conditions`.
    pub fn from_rows(genes: usize, conditions: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), genes * conditions, "shape mismatch");
        ExpressionMatrix {
            genes,
            conditions,
            data,
        }
    }

    /// Number of genes (rows).
    #[inline]
    pub fn genes(&self) -> usize {
        self.genes
    }

    /// Number of conditions / arrays (columns).
    #[inline]
    pub fn conditions(&self) -> usize {
        self.conditions
    }

    /// Expression of gene `g` under condition `c`.
    #[inline]
    pub fn get(&self, g: usize, c: usize) -> f64 {
        self.data[g * self.conditions + c]
    }

    /// Set one entry.
    #[inline]
    pub fn set(&mut self, g: usize, c: usize, v: f64) {
        self.data[g * self.conditions + c] = v;
    }

    /// One gene's expression profile.
    #[inline]
    pub fn row(&self, g: usize) -> &[f64] {
        &self.data[g * self.conditions..(g + 1) * self.conditions]
    }

    /// Mutable access to one gene's profile.
    #[inline]
    pub fn row_mut(&mut self, g: usize) -> &mut [f64] {
        &mut self.data[g * self.conditions..(g + 1) * self.conditions]
    }

    /// One condition's values across all genes (copies; columns are
    /// strided).
    pub fn column(&self, c: usize) -> Vec<f64> {
        (0..self.genes).map(|g| self.get(g, c)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_and_access() {
        let mut m = ExpressionMatrix::zeros(3, 2);
        m.set(1, 1, 5.0);
        m.set(2, 0, -1.0);
        assert_eq!(m.get(1, 1), 5.0);
        assert_eq!(m.row(1), &[0.0, 5.0]);
        assert_eq!(m.column(0), vec![0.0, 0.0, -1.0]);
        assert_eq!(m.genes(), 3);
        assert_eq!(m.conditions(), 2);
    }

    #[test]
    fn from_rows_layout() {
        let m = ExpressionMatrix::from_rows(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(m.row(0), &[1., 2., 3.]);
        assert_eq!(m.row(1), &[4., 5., 6.]);
    }

    #[test]
    #[should_panic]
    fn from_rows_shape_checked() {
        ExpressionMatrix::from_rows(2, 3, vec![1.0; 5]);
    }
}
