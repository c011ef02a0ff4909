package linalg

import "fmt"

// CSR is a compressed-sparse-row matrix. The covariance of revocation
// dynamics across markets is sparse in practice (markets correlate within
// demand groups and barely across them), and exploiting that keeps the
// optimizer's per-iteration cost near-linear in the number of markets.
//
// Invariant: within each row, ColIdx is strictly increasing. Every
// constructor in this package maintains it (At relies on it for binary
// search); code building a CSR by hand must too.
type CSR struct {
	Rows, Cols int
	RowPtr     []int // len Rows+1
	ColIdx     []int
	Val        []float64
}

// NewCSRFromDense converts a dense matrix, dropping entries with
// |value| ≤ tol.
func NewCSRFromDense(m *Matrix, tol float64) *CSR {
	c := &CSR{Rows: m.Rows, Cols: m.Cols, RowPtr: make([]int, m.Rows+1)}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, v := range row {
			if v > tol || v < -tol {
				c.ColIdx = append(c.ColIdx, j)
				c.Val = append(c.Val, v)
			}
		}
		c.RowPtr[i+1] = len(c.Val)
	}
	return c
}

// NNZ returns the number of stored entries.
func (c *CSR) NNZ() int { return len(c.Val) }

// At returns element (i, j) by binary search over the row's sorted column
// indices — O(log nnz(row)), down from the linear scan this used to be.
func (c *CSR) At(i, j int) float64 {
	lo, hi := c.RowPtr[i], c.RowPtr[i+1]
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.ColIdx[mid] < j {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < c.RowPtr[i+1] && c.ColIdx[lo] == j {
		return c.Val[lo]
	}
	return 0
}

// MulVec computes dst = C·x and returns dst. Signature matches
// (*Matrix).MulVec so either can back the optimizer's risk term.
func (c *CSR) MulVec(x, dst Vector) Vector {
	if len(x) != c.Cols || len(dst) != c.Rows {
		panic(fmt.Sprintf("linalg: CSR MulVec shape mismatch %d/%d vs %dx%d",
			len(x), len(dst), c.Rows, c.Cols))
	}
	for i := 0; i < c.Rows; i++ {
		var s float64
		for k := c.RowPtr[i]; k < c.RowPtr[i+1]; k++ {
			s += c.Val[k] * x[c.ColIdx[k]]
		}
		dst[i] = s
	}
	return dst
}

// Dense expands the CSR back to a dense matrix.
func (c *CSR) Dense() *Matrix {
	m := NewMatrix(c.Rows, c.Cols)
	for i := 0; i < c.Rows; i++ {
		for k := c.RowPtr[i]; k < c.RowPtr[i+1]; k++ {
			m.Set(i, c.ColIdx[k], c.Val[k])
		}
	}
	return m
}

// FactorModel is a low-rank-plus-diagonal symmetric operator
// M = diag(D) + F·Fᵀ with F of shape n×k — the standard structured
// covariance in portfolio optimization. Applying it costs O(nk) instead of
// O(n²).
type FactorModel struct {
	D Vector  // idiosyncratic variances, length n
	F *Matrix // factor loadings, n×k
}

// Dim returns n.
func (f *FactorModel) Dim() int { return len(f.D) }

// MulVec computes dst = (diag(D) + FFᵀ)·x and returns dst.
func (f *FactorModel) MulVec(x, dst Vector) Vector {
	n := len(f.D)
	if len(x) != n || len(dst) != n {
		panic("linalg: FactorModel MulVec shape mismatch")
	}
	k := 0
	if f.F != nil {
		k = f.F.Cols
	}
	if k > 0 {
		tmp := NewVector(k)
		f.F.MulVecT(x, tmp)  // Fᵀx
		f.F.MulVec(tmp, dst) // F(Fᵀx)
	} else {
		dst.Zero()
	}
	for i := 0; i < n; i++ {
		dst[i] += f.D[i] * x[i]
	}
	return dst
}

// QuadForm evaluates xᵀMx.
func (f *FactorModel) QuadForm(x Vector) float64 {
	dst := NewVector(len(x))
	f.MulVec(x, dst)
	return x.Dot(dst)
}

// Dense expands the factor model to a dense matrix.
func (f *FactorModel) Dense() *Matrix {
	n := len(f.D)
	m := NewMatrix(n, n)
	if f.F != nil {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var s float64
				for c := 0; c < f.F.Cols; c++ {
					s += f.F.At(i, c) * f.F.At(j, c)
				}
				m.Set(i, j, s)
			}
		}
	}
	for i := 0; i < n; i++ {
		m.Add(i, i, f.D[i])
	}
	return m
}

// TopEigenpairs extracts the k leading eigenpairs of a symmetric PSD
// operator by power iteration with deflation — enough for the factor-model
// covariance estimation (k small). apply must compute dst = M·x; n is the
// dimension. Returns eigenvalues (descending) and the corresponding
// orthonormal eigenvectors as columns of an n×k matrix.
func TopEigenpairs(apply func(x, dst Vector), n, k, iters int) (Vector, *Matrix) {
	if iters <= 0 {
		iters = 100
	}
	vals := NewVector(k)
	vecs := NewMatrix(n, k)
	tmp := NewVector(n)
	for c := 0; c < k; c++ {
		// Deterministic start, different per component.
		v := NewVector(n)
		seed := uint64(c)*0x9e3779b97f4a7c15 + 0x2545F4914F6CDD1D
		for i := range v {
			seed ^= seed << 13
			seed ^= seed >> 7
			seed ^= seed << 17
			v[i] = float64(seed%2000)/1000 - 1
		}
		orthonormalize(v, vecs, c)
		lambda := 0.0
		for it := 0; it < iters; it++ {
			apply(v, tmp)
			// Deflation: for a symmetric operator, restricting the iterate
			// to the orthogonal complement of the found eigenvectors makes
			// power iteration converge to the next eigenpair.
			orthonormalizeInto(tmp, vecs, c)
			nrm := tmp.Norm2()
			if nrm == 0 {
				break
			}
			lambda = nrm
			copy(v, tmp)
			v.Scale(1 / nrm)
		}
		vals[c] = lambda
		for i := 0; i < n; i++ {
			vecs.Set(i, c, v[i])
		}
	}
	return vals, vecs
}

// orthonormalize projects out the first c columns of basis from v and
// normalizes.
func orthonormalize(v Vector, basis *Matrix, c int) {
	orthonormalizeInto(v, basis, c)
	if n := v.Norm2(); n > 0 {
		v.Scale(1 / n)
	} else {
		v[0] = 1
	}
}

// orthonormalizeInto subtracts the projections of v onto the first c basis
// columns in place (no normalization).
func orthonormalizeInto(v Vector, basis *Matrix, c int) {
	n := len(v)
	for p := 0; p < c; p++ {
		var dot float64
		for i := 0; i < n; i++ {
			dot += v[i] * basis.At(i, p)
		}
		for i := 0; i < n; i++ {
			v[i] -= dot * basis.At(i, p)
		}
	}
}
