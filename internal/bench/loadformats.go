package bench

// load.formats sizes every on-disk format the repo supports (text, csrg-v1,
// csrg-v2) over three datasets and checks the v2 compression claim. File
// sizes are a pure function of the graph, so every cell is deterministic.
// How fast each format loads is a wall-clock question, and benchmark/ is the
// one place that asks it: its graph.load_text_s / load_v1mmap_s /
// load_v1read_s / load_v2_s and graph.stream_decode_s metrics.

import (
	"io"

	"graphpart/internal/graph"
	"graphpart/internal/report"
)

func loadFormats() Experiment {
	return Experiment{
		ID:    "load.formats",
		Title: "On-disk size by format (text, csrg-v1, csrg-v2)",
		Paper: "the paper's ingestion phase reads the edge list once per run (§4.1); its cost is format-bound — parse-bound for text, I/O-bound for binary — so the loader formats are a first-order term in total time-to-solution",
		Run: func(cfg Config) (*Result, error) {
			// Power-law graphs are where delta+varint compression pays
			// (locality-heavy edge order → small deltas); road-ca is the
			// low-skew contrast.
			powerLaw := []string{"uk-web", "twitter"}
			names := append([]string{"road-ca"}, powerLaw...)

			r := NewResult("load.formats", "On-disk formats: file size and bytes per edge",
				"dataset", "format", "file-bytes", "bytes/edge")
			sizes := map[[2]string]float64{} // (dataset, format) → bytes
			for _, ds := range names {
				g, err := loadGraph(cfg, ds)
				if err != nil {
					return nil, err
				}
				edges := float64(g.NumEdges())
				for _, f := range []struct {
					name  string
					write func(io.Writer) error
				}{
					{"text", func(w io.Writer) error { return graph.WriteEdgeList(g, w) }},
					{"csrg-v1", func(w io.Writer) error { return graph.WriteCSRVersion(g, w, graph.CSRVersion1) }},
					{"csrg-v2", func(w io.Writer) error { return graph.WriteCSRVersion(g, w, graph.CSRVersion2) }},
				} {
					var bytes byteCounter
					if err := f.write(&bytes); err != nil {
						return nil, err
					}
					sizes[[2]string{ds, f.name}] = float64(bytes)
					r.Row(report.Dims{Dataset: ds, Variant: f.name}).
						Col(ds, f.name).
						Metric("file-bytes", float64(bytes), "B", 0).
						Metric("bytes-per-edge", float64(bytes)/edges, "B/edge", 2)
				}
			}

			pass := true
			worst := 0.0
			for _, ds := range powerLaw {
				ratio := sizes[[2]string{ds, "csrg-v2"}] / sizes[[2]string{ds, "csrg-v1"}]
				if ratio > worst {
					worst = ratio
				}
				if ratio > 0.75 {
					pass = false
				}
			}
			r.Checkf(pass, "csrg-v2 is ≥25% smaller than csrg-v1 on power-law datasets",
				"csrg-v2 is ≥25%% smaller than v1 on power-law datasets (worst ratio %.3f): %s", worst, Mark(pass))
			r.Notef("load time per format is wall-clock and is measured by benchmark/ (graph.load_*_s, graph.stream_decode_s), not here")
			return r, nil
		},
	}
}

// byteCounter is the file each format is written to: only its length is read.
type byteCounter int64

func (c *byteCounter) Write(p []byte) (int, error) {
	*c += byteCounter(len(p))
	return len(p), nil
}
