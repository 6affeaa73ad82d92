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

// capRows is the number of rows the matrix can grow to without allocating.
func (m *bitMatrix) capRows() int { return cap(m.bits) / m.words }

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
	m.bits[row*m.words+int(uint(col)/64)] |= 1 << (uint(col) % 64)
}

// clear unsets one bit; the inverse of set, needed once partitions can lose
// a vertex's last edge under churn.
func (m *bitMatrix) clear(row int, col int) {
	m.bits[row*m.words+int(uint(col)/64)] &^= 1 << (uint(col) % 64)
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

// orRows folds other's rows [lo, hi) into m; rows past other's end are
// skipped. m must already hold those rows and both matrices must have the same
// column count. Set-union is commutative and associative, so or-merging
// per-worker matrices, in any order and by any row split, yields the matrix
// a single sequential pass would have built.
func (m *bitMatrix) orRows(other *bitMatrix, lo, hi int) {
	if m.words != other.words {
		panic("bitMatrix: or across different column counts")
	}
	src := other.bits[min(lo*other.words, len(other.bits)):min(hi*other.words, len(other.bits))]
	dst := m.bits[lo*m.words:]
	for i, w := range src {
		dst[i] |= w
	}
}

// row returns the words of a row (shared; do not modify).
func (m *bitMatrix) row(row int) []uint64 {
	return m.bits[row*m.words : (row+1)*m.words]
}
