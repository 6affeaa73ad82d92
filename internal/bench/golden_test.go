package bench

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// updateGolden regenerates testdata/golden/*.txt from the current renders.
var updateGolden = flag.Bool("update", false, "rewrite golden experiment renders")

// goldenSlow mirrors the root shape_test gating: the multi-second engine
// sweeps are only byte-checked in full (non -short) runs.
var goldenSlow = map[string]bool{
	"fig5.3":     true,
	"fig5.4":     true,
	"fig5.5":     true,
	"fig8.4":     true,
	"fig5.9":     true,
	"tab5.1":     true,
	"adv.regret": true,
	"dyn.drift":  true,
}

// TestGoldenTableRenders pins every experiment's plain-text table render
// byte-for-byte. The refactor from stringified rows to typed cell emission
// must not change a single rendered byte: the paper reproduction is the
// plain render, and this is the proof it is untouched.
func TestGoldenTableRenders(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			if testing.Short() && goldenSlow[e.ID] {
				t.Skipf("%s takes multiple seconds; run without -short", e.ID)
			}
			res := runDefault(t, e)
			var buf bytes.Buffer
			if err := res.Render(&buf); err != nil {
				t.Fatalf("%s: render: %v", e.ID, err)
			}
			path := filepath.Join("testdata", "golden", e.ID+".txt")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%s: missing golden (run with -update): %v", e.ID, err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s: render differs from golden %s\n--- got ---\n%s\n--- want ---\n%s",
					e.ID, path, buf.Bytes(), want)
			}
		})
	}
}
