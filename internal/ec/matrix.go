package ec

import "fmt"

// matrix is a dense row-major GF(2^8) matrix.
type matrix struct {
	rows, cols int
	data       []byte // rows*cols, row-major
}

func newMatrix(rows, cols int) matrix {
	return matrix{rows: rows, cols: cols, data: make([]byte, rows*cols)}
}

func (m matrix) at(r, c int) byte     { return m.data[r*m.cols+c] }
func (m matrix) set(r, c int, v byte) { m.data[r*m.cols+c] = v }
func (m matrix) row(r int) []byte     { return m.data[r*m.cols : (r+1)*m.cols] }
func (m matrix) swapRows(r1, r2 int) {
	if r1 == r2 {
		return
	}
	a, b := m.row(r1), m.row(r2)
	for i := range a {
		a[i], b[i] = b[i], a[i]
	}
}

// identity returns the n×n identity matrix.
func identity(n int) matrix {
	m := newMatrix(n, n)
	for i := 0; i < n; i++ {
		m.set(i, i, 1)
	}
	return m
}

// mul returns a·b.
func (m matrix) mul(b matrix) matrix {
	if m.cols != b.rows {
		panic("ec: matrix dimension mismatch")
	}
	out := newMatrix(m.rows, b.cols)
	for r := 0; r < m.rows; r++ {
		mrow := m.row(r)
		orow := out.row(r)
		for i, coeff := range mrow {
			if coeff == 0 {
				continue
			}
			brow := b.row(i)
			for c, bv := range brow {
				if bv != 0 {
					orow[c] ^= gfMul[coeff][bv]
				}
			}
		}
	}
	return out
}

// invert returns the inverse of the square matrix m via Gauss–Jordan
// elimination, or an error if m is singular. m is not modified.
func (m matrix) invert() (matrix, error) {
	if m.rows != m.cols {
		panic("ec: invert of non-square matrix")
	}
	n := m.rows
	work := newMatrix(n, n)
	copy(work.data, m.data)
	inv := identity(n)

	for col := 0; col < n; col++ {
		// Find a pivot at or below the diagonal.
		pivot := -1
		for r := col; r < n; r++ {
			if work.at(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return matrix{}, fmt.Errorf("ec: singular matrix (no pivot in column %d)", col)
		}
		work.swapRows(col, pivot)
		inv.swapRows(col, pivot)

		// Scale the pivot row so the diagonal element is 1.
		if d := work.at(col, col); d != 1 {
			di := gfInv(d)
			scaleRow(work.row(col), di)
			scaleRow(inv.row(col), di)
		}
		// Eliminate the column from every other row.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := work.at(r, col)
			if f == 0 {
				continue
			}
			addScaledRow(work.row(r), work.row(col), f)
			addScaledRow(inv.row(r), inv.row(col), f)
		}
	}
	return inv, nil
}

func scaleRow(row []byte, c byte) {
	for i, v := range row {
		row[i] = gfMul[c][v]
	}
}

// addScaledRow does dst ^= c·src.
func addScaledRow(dst, src []byte, c byte) {
	for i, v := range src {
		if v != 0 {
			dst[i] ^= gfMul[c][v]
		}
	}
}

// codingMatrix returns the k×m parity sub-matrix A of the systematic
// generator [I; A] for an (m+k, m) Reed–Solomon code.
//
// A is a normalized Cauchy matrix: start from C[i][j] = 1/(x_i ⊕ y_j)
// with x_i = m+i (parity points) and y_j = j (data points) — all
// distinct, so every square submatrix of C is invertible (the Cauchy
// property). Then scale rows and columns:
//
//	A[i][j] = C[i][j] · C[0][0] / (C[i][0] · C[0][j])
//
// Nonzero row/column scaling preserves the any-submatrix-invertible
// property, and it forces row 0 and column 0 to be all ones. An
// all-ones first parity row means the k=1 code IS plain XOR parity:
// byte-identical to the paper's computed copy on the same stripe rows, which is
// the compatibility guarantee the rest of the stack relies on.
func codingMatrix(m, k int) matrix {
	c := newMatrix(k, m)
	for i := 0; i < k; i++ {
		for j := 0; j < m; j++ {
			c.set(i, j, gfInv(byte((m+i)^j)))
		}
	}
	a := newMatrix(k, m)
	c00 := c.at(0, 0)
	for i := 0; i < k; i++ {
		for j := 0; j < m; j++ {
			num := gfMul[c.at(i, j)][c00]
			den := gfMul[c.at(i, 0)][c.at(0, j)]
			a.set(i, j, gfDiv(num, den))
		}
	}
	return a
}
