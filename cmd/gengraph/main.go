// Command gengraph produces graph files: a named registered dataset (Table
// 4.2's stand-ins plus anything registered at runtime) or a raw generator
// with custom parameters, written as a plain-text edge list or — when the
// output path ends in .csrg — the compact binary CSR format that loads
// I/O-bound instead of parse-bound. It also converts between the formats
// without materializing the graph, and prints dataset manifests.
//
// Usage:
//
//	gengraph -dataset uk-web -scale 2 -o ukweb.csrg
//	gengraph -dataset twitter -manifest            # dataset manifest as JSON
//	gengraph -kind road -n 10000 -o road.txt
//	gengraph -kind road -n 100000000 -stream -o road.csrg   # O(batch) memory
//	gengraph -kind prefattach -n 50000 -m 10 -o social.txt
//	gengraph -kind powerlaw -n 50000 -alpha 2.0 -o pl.txt
//	gengraph -kind web -n 50000 -alpha 1.8 -o web.txt
//	gengraph -convert road.txt -o road.csrg        # streaming, either way
//	gengraph -convert g.csrg -format v1 -o g1.csrg # re-encode v2 → v1
//
// Binary outputs default to .csrg format v2 (delta+varint compressed edge
// blocks); -format v1 selects the fixed-width layout, whose loads can be
// memory-mapped without copying. Both convert to each other and to text
// losslessly — edge order is preserved exactly.
//
// With -stream, generators that can emit edges incrementally (road) write
// batches straight to the output without ever materializing the edge list;
// -convert streams any input format to any output format the same way.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"graphpart/internal/datasets"
	"graphpart/internal/gen"
	"graphpart/internal/graph"
)

func main() {
	log.SetFlags(0)
	var (
		dataset  = flag.String("dataset", "", "registered dataset name ("+fmt.Sprint(datasets.Names())+")")
		scale    = flag.Int("scale", 1, "dataset scale factor")
		kind     = flag.String("kind", "", "generator: road | prefattach | powerlaw | web")
		n        = flag.Int("n", 10000, "number of vertices")
		m        = flag.Int("m", 8, "edges per vertex (prefattach)")
		alpha    = flag.Float64("alpha", 2.0, "power-law exponent (powerlaw/web)")
		seed     = flag.Uint64("seed", 1, "generator seed")
		out      = flag.String("o", "", "output file; a .csrg suffix selects the binary format (default stdout, text)")
		stream   = flag.Bool("stream", false, "stream edge batches to the output without materializing the graph (road only)")
		convert  = flag.String("convert", "", "convert this graph file (text or .csrg, sniffed) to -o's format, streaming")
		format   = flag.String("format", "v2", "binary .csrg version for outputs: v1 (fixed-width, mmap-able) or v2 (compressed blocks)")
		manifest = flag.Bool("manifest", false, "print the dataset's manifest (sizes, degree-skew stats, provenance) as JSON and exit")
	)
	flag.Parse()
	version := formatVersion(*format)

	switch {
	case *manifest:
		if *dataset == "" {
			log.Fatal("gengraph: -manifest needs -dataset NAME")
		}
		mf, err := datasets.BuildManifest(*dataset, *scale)
		if err != nil {
			log.Fatal(err)
		}
		if err := mf.Encode(os.Stdout); err != nil {
			log.Fatal(err)
		}
	case *convert != "":
		if *out == "" {
			log.Fatal("gengraph: -convert needs -o FILE")
		}
		if err := convertFile(*convert, *out, version); err != nil {
			log.Fatal(err)
		}
	case *stream:
		if *dataset != "" {
			log.Fatal("gengraph: -stream does not support -dataset (datasets materialize); use -kind road")
		}
		if *kind != "road" {
			log.Fatalf("gengraph: -stream supports -kind road (got %q); the degree-sequence generators need the whole stub multiset", *kind)
		}
		if err := streamRoad(*n, *seed, *out, version); err != nil {
			log.Fatal(err)
		}
	default:
		materialize(*dataset, *scale, *kind, *n, *m, *alpha, *seed, *out, version)
	}
}

// formatVersion maps the -format flag to a .csrg writer version.
func formatVersion(s string) int {
	switch s {
	case "v1":
		return graph.CSRVersion1
	case "v2":
		return graph.CSRVersion2
	default:
		log.Fatalf("gengraph: unknown -format %q (want v1 or v2)", s)
		return 0
	}
}

// materialize builds the requested graph in memory and writes it in the
// format the output path selects.
func materialize(dataset string, scale int, kind string, n, m int, alpha float64, seed uint64, out string, version int) {
	var g *graph.Graph
	var err error
	switch {
	case dataset != "":
		g, err = datasets.Load(dataset, scale)
		if err != nil {
			log.Fatal(err)
		}
	case kind != "":
		switch kind {
		case "road":
			side := latticeSide(n)
			g = gen.RoadNet("road", side, side, seed)
		case "prefattach":
			g = gen.PrefAttach("prefattach", n, m, seed)
		case "powerlaw":
			g = gen.PowerLaw("powerlaw", gen.PowerLawConfig{
				N: n, Alpha: alpha, MinD: 1, MaxD: n / 10, Seed: seed,
			})
		case "web":
			g = gen.WebGraph("web", gen.WebGraphConfig{
				N: n, Alpha: alpha, MaxOutD: n / 10, Seed: seed,
			})
		default:
			log.Fatalf("gengraph: unknown -kind %q", kind)
		}
	default:
		log.Fatal("gengraph: need -dataset NAME, -kind KIND, or -convert FILE (see -h)")
	}

	if graph.IsCSRPath(out) {
		if err := graph.SaveCSRVersion(g, out, version); err != nil {
			log.Fatal(err)
		}
	} else {
		w := os.Stdout
		if out != "" {
			f, err := os.Create(out)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			w = f
		}
		if err := graph.WriteEdgeList(g, w); err != nil {
			log.Fatal(err)
		}
	}
	cls := graph.Classify(g)
	fmt.Fprintf(os.Stderr, "wrote %v (%s, max degree %d)\n", g, cls.Class, cls.MaxDegree)
}

// streamRoad emits a road lattice in O(batch) memory, to a text edge list or
// (with a .csrg output path) the binary format via the streaming CSR writer.
func streamRoad(n int, seed uint64, out string, version int) error {
	side := latticeSide(n)
	var edges int64
	if graph.IsCSRPath(out) {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		cw, err := graph.NewCSRWriterVersion(f, fmt.Sprintf("road-%dx%d", side, side), version)
		if err != nil {
			return err
		}
		if err := gen.StreamRoadNet(side, side, seed, graph.DefaultBatchSize, func(b []graph.Edge) error {
			edges += int64(len(b))
			return cw.Append(b)
		}); err != nil {
			return err
		}
		if err := cw.Close(); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	} else {
		w := bufio.NewWriter(os.Stdout)
		if out != "" {
			f, err := os.Create(out)
			if err != nil {
				return err
			}
			defer f.Close()
			w = bufio.NewWriter(f)
		}
		// Counts are unknown up front when streaming; the header carries
		// only the name (comment lines are ignored by the readers).
		if _, err := fmt.Fprintf(w, "# road (streamed %dx%d lattice)\n", side, side); err != nil {
			return err
		}
		if err := gen.StreamRoadNet(side, side, seed, graph.DefaultBatchSize, func(b []graph.Edge) error {
			edges += int64(len(b))
			return graph.WriteEdgeBatch(w, b)
		}); err != nil {
			return err
		}
		if err := w.Flush(); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "streamed road{%dx%d} |E|=%d\n", side, side, edges)
	return nil
}

// convertFile streams src (either format, sniffed) into dst (format chosen
// by extension) without materializing the edge list. The output goes to a
// temp file renamed into place on success, so a failed conversion never
// leaves a partial dst behind — and converting a file onto itself works.
func convertFile(src, dst string, version int) error {
	f, err := os.CreateTemp(filepath.Dir(dst), filepath.Base(dst)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name())
	defer f.Close()

	var total int64
	if graph.IsCSRPath(dst) {
		cw, err := graph.NewCSRWriterVersion(f, src, version)
		if err != nil {
			return err
		}
		total, _, err = graph.StreamFile(src, graph.DefaultBatchSize, func(_ int64, edges []graph.Edge) error {
			return cw.Append(edges)
		})
		if err != nil {
			return err
		}
		if err := cw.Close(); err != nil {
			return err
		}
	} else {
		bw := bufio.NewWriter(f)
		if _, err := fmt.Fprintf(bw, "# converted from %s\n", src); err != nil {
			return err
		}
		total, _, err = graph.StreamFile(src, graph.DefaultBatchSize, func(_ int64, edges []graph.Edge) error {
			return graph.WriteEdgeBatch(bw, edges)
		})
		if err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	// CreateTemp makes 0600 files; match the permissions os.Create would
	// have used so converted outputs read like any other gengraph output.
	if err := os.Chmod(f.Name(), 0o644); err != nil {
		return err
	}
	if err := os.Rename(f.Name(), dst); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "converted %s → %s (%d edges)\n", src, dst, total)
	return nil
}

// latticeSide returns the smallest lattice side whose square holds n
// vertices; streamed and materialized road generation must agree on it.
func latticeSide(n int) int {
	side := 1
	for side*side < n {
		side++
	}
	return side
}
