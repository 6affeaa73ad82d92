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

// goldenSlow lists the multi-second engine sweeps. Under -short the shared
// seed-1 pass leaves them out, so only full runs render and compare them;
// their committed verdicts are checked either way.
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
// plain render, and this is the proof it is untouched. Every table has a
// row, and every render names its experiment.
func TestGoldenTableRenders(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			if testing.Short() && goldenSlow[e.ID] {
				t.Skipf("%s takes multiple seconds; run without -short", e.ID)
			}
			res := seed1Result(t, e.ID)
			if len(res.Table().Rows) == 0 {
				t.Fatalf("%s: empty table", e.ID)
			}
			var buf bytes.Buffer
			if err := res.Render(&buf); err != nil {
				t.Fatalf("%s: render: %v", e.ID, err)
			}
			if !bytes.Contains(buf.Bytes(), []byte(e.ID)) {
				t.Errorf("%s: rendered output missing experiment id", e.ID)
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
