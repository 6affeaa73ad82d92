package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestRun drives the whole command in-process over throwaway modules: a raw
// map range is exit 1 with the finding on stdout, a clean package is exit
// 0, and one that does not parse is exit 2.
func TestRun(t *testing.T) {
	const clean = "package metrics\n\nfunc Sum(xs []float64) (total float64) {\n\tfor _, v := range xs {\n\t\ttotal += v\n\t}\n\treturn total\n}\n"
	const mapRange = "package metrics\n\nfunc Sum(m map[string]float64) (total float64) {\n\tfor _, v := range m {\n\t\ttotal += v\n\t}\n\treturn total\n}\n"
	for _, tc := range []struct {
		name, source string
		code         int
		stdout       string
	}{
		{"finding", mapRange, 1, `metrics\.go:4:2: detrange: non-deterministic iteration over map m`},
		{"clean", clean, 0, `^$`},
		{"unparsable", "package metrics\n\nfunc {", 2, `^$`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for name, content := range map[string]string{"go.mod": "module tmplint\n\ngo 1.22\n", "metrics.go": tc.source} {
				if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o666); err != nil {
					t.Fatal(err)
				}
			}
			var stdout, stderr bytes.Buffer
			if code := run(dir, nil, &stdout, &stderr); code != tc.code {
				t.Errorf("exit code %d, want %d\nstdout: %s\nstderr: %s", code, tc.code, &stdout, &stderr)
			}
			if !regexp.MustCompile(tc.stdout).MatchString(stdout.String()) {
				t.Errorf("stdout %q does not match %q", &stdout, tc.stdout)
			}
		})
	}
}
