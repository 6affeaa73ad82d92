package partition

import (
	"hash/maphash"
	"math/bits"
)

// edgeIndex maps an edge key to the live position of its newest copy: an
// open-addressed table with linear probing, backward-shift deletion and a
// load factor of at most ½. A slot holds the key and pos+1, so 0 marks an
// empty slot; older copies of the same edge hang off the newest one
// through liveEdge.prev, so a key has exactly one slot however many copies
// are live.
//
// Keys hash by multiply-shift with an odd multiplier drawn per table from a
// random maphash seed, as Go's own map seeds itself: with a fixed one, a
// client could pick edges that share a home slot and make every probe walk
// one long cluster. The multiplier decides only where a key sits, never
// what is found: nothing iterates the table, so no result, order or summary
// can depend on it.
type edgeIndex struct {
	slots []indexSlot // len is a power of two (or 0 before the first put)
	mul   uint64      // odd
	shift uint8       // 64 − log2(len(slots))
	n     int         // occupied slots
}

type indexSlot struct {
	key uint64
	pos uint32 // live position + 1; 0 = empty
}

func newEdgeIndex() edgeIndex {
	return edgeIndex{mul: maphash.Bytes(maphash.MakeSeed(), nil) | 1}
}

// home is key's preferred slot.
func (x *edgeIndex) home(key uint64) int {
	return int((key * x.mul) >> x.shift)
}

// find returns key's slot, or the empty slot that ends its probe.
func (x *edgeIndex) find(key uint64) int {
	mask := len(x.slots) - 1
	i := x.home(key)
	for x.slots[i].pos != 0 && x.slots[i].key != key {
		i = (i + 1) & mask
	}
	return i
}

// get returns the newest live position of key, or -1.
func (x *edgeIndex) get(key uint64) int32 {
	if x.n == 0 {
		return -1
	}
	return int32(x.slots[x.find(key)].pos) - 1
}

// put records pos as key's newest copy and returns the copy it replaces,
// or -1 when key was absent.
func (x *edgeIndex) put(key uint64, pos int32) int32 {
	if 2*(x.n+1) > len(x.slots) {
		x.grow()
	}
	s := &x.slots[x.find(key)]
	prev := int32(s.pos) - 1
	if s.pos == 0 {
		x.n++
	}
	*s = indexSlot{key: key, pos: uint32(pos) + 1}
	return prev
}

// set moves key, which must be present, to position pos.
func (x *edgeIndex) set(key uint64, pos int32) {
	x.slots[x.find(key)].pos = uint32(pos) + 1
}

// del removes key, which must be present, shifting back each later member
// of its cluster that may sit in the freed slot so no probe ends early.
func (x *edgeIndex) del(key uint64) {
	mask := len(x.slots) - 1
	i := x.find(key)
	for j := (i + 1) & mask; x.slots[j].pos != 0; j = (j + 1) & mask {
		// The entry at j may fill hole i when i lies on its probe path,
		// cyclically in [home, j).
		if (j-x.home(x.slots[j].key))&mask >= (j-i)&mask {
			x.slots[i] = x.slots[j]
			i = j
		}
	}
	x.slots[i] = indexSlot{}
	x.n--
}

// grow doubles the table (to 16 slots at first) and reinserts every key.
func (x *edgeIndex) grow() {
	old := x.slots
	size := max(16, 2*len(old))
	x.slots = make([]indexSlot, size)
	x.shift = uint8(64 - bits.Len(uint(size-1)))
	for _, s := range old {
		if s.pos != 0 {
			x.slots[x.find(s.key)] = s
		}
	}
}
