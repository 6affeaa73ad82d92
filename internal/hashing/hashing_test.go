package hashing

import (
	"testing"
	"testing/quick"
)

func TestMix64Deterministic(t *testing.T) {
	if Mix64(42) != Mix64(42) {
		t.Fatal("Mix64 not deterministic")
	}
	if Mix64(42) == Mix64(43) {
		t.Fatal("Mix64(42) == Mix64(43): suspicious collision")
	}
}

func TestMix64Avalanche(t *testing.T) {
	// Flipping one input bit should flip roughly half the output bits.
	base := Mix64(0x123456789abcdef)
	for bit := 0; bit < 64; bit += 7 {
		diff := base ^ Mix64(0x123456789abcdef^(1<<uint(bit)))
		ones := 0
		for d := diff; d != 0; d &= d - 1 {
			ones++
		}
		if ones < 12 || ones > 52 {
			t.Errorf("bit %d: only %d output bits flipped", bit, ones)
		}
	}
}

func TestEdgeCanonicalSymmetric(t *testing.T) {
	f := func(seed uint64, a, b uint32) bool {
		return EdgeCanonical(seed, a, b) == EdgeCanonical(seed, b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeDirectedAsymmetric(t *testing.T) {
	// Directed hashing must distinguish direction for most pairs.
	same := 0
	const trials = 1000
	for i := uint32(0); i < trials; i++ {
		if EdgeDirected(1, i, i+trials) == EdgeDirected(1, i+trials, i) {
			same++
		}
	}
	if same > trials/100 {
		t.Fatalf("%d/%d symmetric collisions in directed hash", same, trials)
	}
}

func TestVertexSeedSensitivity(t *testing.T) {
	if Vertex(1, 7) == Vertex(2, 7) {
		t.Fatal("vertex hash ignores seed")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(9), NewRNG(9)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverge")
		}
	}
}

// TestRNGSkip holds Skip(n) to n calls of Uint64: both generators must then
// produce the same next values.
func TestRNGSkip(t *testing.T) {
	for _, n := range []uint64{0, 1, 1000} {
		a, b := NewRNG(0x5eed), NewRNG(0x5eed)
		for i := uint64(0); i < n; i++ {
			a.Uint64()
		}
		b.Skip(n)
		for i := 0; i < 3; i++ {
			if x, y := a.Uint64(), b.Uint64(); x != y {
				t.Fatalf("Skip(%d): value %d after is %x, want %x", n, i, y, x)
			}
		}
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(4)
	sum := 0.0
	const n = 10000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
		sum += v
	}
	if mean := sum / n; mean < 0.45 || mean > 0.55 {
		t.Errorf("Float64 mean %.3f far from 0.5", mean)
	}
}

func TestIntnUniformity(t *testing.T) {
	r := NewRNG(5)
	counts := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.Intn(10)]++
	}
	for b, c := range counts {
		if c < n/10*8/10 || c > n/10*12/10 {
			t.Errorf("bucket %d: %d of %d (expected ~%d)", b, c, n, n/10)
		}
	}
}
