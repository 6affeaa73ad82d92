package partition

import "math/bits"

// bitMatrix is a dense rows×cols bit matrix used to track, per vertex, the
// set of partitions something lives on (replicas, in-edges, out-edges).
// Rows are vertices; columns are partitions.
type bitMatrix struct {
	cols  int
	words int // words per row
	bits  []uint64
}

func newBitMatrix(rows, cols int) *bitMatrix {
	w := (cols + 63) / 64
	return &bitMatrix{cols: cols, words: w, bits: make([]uint64, rows*w)}
}

// ensureRows grows the matrix to hold at least rows rows, reallocating
// geometrically so streamed ingress can discover the vertex count as it
// consumes batches.
func (m *bitMatrix) ensureRows(rows int) {
	need := rows * m.words
	if need <= len(m.bits) {
		return
	}
	if need <= cap(m.bits) {
		m.bits = m.bits[:need]
		return
	}
	newCap := 2 * cap(m.bits)
	if newCap < need {
		newCap = need
	}
	nb := make([]uint64, need, newCap)
	copy(nb, m.bits)
	m.bits = nb
}

func (m *bitMatrix) set(row int, col int) {
	m.bits[row*m.words+col/64] |= 1 << uint(col%64)
}

func (m *bitMatrix) has(row int, col int) bool {
	return m.bits[row*m.words+col/64]&(1<<uint(col%64)) != 0
}

// clear unsets one bit; the inverse of set, needed once partitions can lose
// a vertex's last edge under churn.
func (m *bitMatrix) clear(row int, col int) {
	m.bits[row*m.words+col/64] &^= 1 << uint(col%64)
}

// reset zeroes every bit in place, keeping the allocated rows.
func (m *bitMatrix) reset() {
	for i := range m.bits {
		m.bits[i] = 0
	}
}

// count returns the number of set bits in a row.
func (m *bitMatrix) count(row int) int {
	n := 0
	for _, w := range m.bits[row*m.words : (row+1)*m.words] {
		n += bits.OnesCount64(w)
	}
	return n
}

// forEach calls fn for every set column in a row, in ascending order.
func (m *bitMatrix) forEach(row int, fn func(col int)) {
	base := row * m.words
	for wi := 0; wi < m.words; wi++ {
		w := m.bits[base+wi]
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*64 + b)
			w &= w - 1
		}
	}
}

// or folds every set bit of other into m, growing m to other's row count.
// Both matrices must have the same column count. Because set-union is
// commutative and associative, or-merging per-worker matrices yields the
// same matrix a single sequential pass would have built.
func (m *bitMatrix) or(other *bitMatrix) {
	if m.words != other.words {
		panic("bitMatrix: or across different column counts")
	}
	if len(other.bits) > len(m.bits) {
		m.ensureRows(len(other.bits) / other.words)
	}
	for i, w := range other.bits {
		if w != 0 {
			m.bits[i] |= w
		}
	}
}

// row returns the words of a row (shared; do not modify).
func (m *bitMatrix) row(row int) []uint64 {
	return m.bits[row*m.words : (row+1)*m.words]
}

// onlyCol reports whether row's bits are a subset of the single set {col}.
// Used to test "all edges on one partition".
func (m *bitMatrix) onlyCol(row, col int) bool {
	base := row * m.words
	for wi := 0; wi < m.words; wi++ {
		want := uint64(0)
		if col/64 == wi {
			want = 1 << uint(col%64)
		}
		if m.bits[base+wi]&^want != 0 {
			return false
		}
	}
	return true
}
