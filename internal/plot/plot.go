// Package plot renders simple ASCII scatter plots and line series so the
// benchmark runner can draw the paper's figures — not just their numbers —
// in a terminal. It supports the two shapes the paper uses: labeled scatter
// plots with an optional trend line (Figs 5.3–5.5, 6.1–6.2, 8.3) and
// multi-series cumulative curves (Figs 9.1–9.2).
package plot

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// width and height are the plot area of every chart, in characters.
const width, height = 64, 18

// marks are the symbols of successive points or series.
var marks = []byte("*o+x#@%&$^!~")

// frame is the plot area of one chart over its value ranges.
type frame struct {
	grid                   [][]byte
	minX, maxX, minY, maxY float64
}

func newFrame(minX, maxX, minY, maxY float64) *frame {
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	return &frame{grid, minX, maxX, minY, maxY}
}

// col and row place a value on the plot area; either may fall outside it.
func (f *frame) col(x float64) int {
	return int((x - f.minX) / (f.maxX - f.minX) * float64(width-1))
}

func (f *frame) row(y float64) int {
	return height - 1 - int((y-f.minY)/(f.maxY-f.minY)*float64(height-1))
}

// mark sets cell (r, c) to m when it falls inside the plot area.
func (f *frame) mark(r, c int, m byte) {
	if r >= 0 && r < height && c >= 0 && c < width {
		f.grid[r][c] = m
	}
}

// set marks the cell of the point (x, y).
func (f *frame) set(x, y float64, m byte) { f.mark(f.row(y), f.col(x), m) }

// render writes the title, the y label, the rows with the y range at the
// top and bottom, the x axis and the x range with its label.
func (f *frame) render(w io.Writer, title, xLabel, yLabel string) error {
	if _, err := fmt.Fprintf(w, "%s\n%s\n", title, yLabel); err != nil {
		return err
	}
	for i, line := range f.grid {
		label := "        "
		switch i {
		case 0:
			label = fmt.Sprintf("%8.3g", f.maxY)
		case height - 1:
			label = fmt.Sprintf("%8.3g", f.minY)
		}
		fmt.Fprintf(w, "%s |%s\n", label, string(line))
	}
	fmt.Fprintf(w, "         +%s\n", strings.Repeat("-", width))
	fmt.Fprintf(w, "          %-*.3g%*.3g  (%s)\n", width/2, f.minX, width/2, f.maxX, xLabel)
	return nil
}

// Point is one labeled sample of a scatter plot.
type Point struct {
	X, Y  float64
	Label string
}

// Scatter describes a scatter plot.
type Scatter struct {
	Title  string
	XLabel string
	YLabel string
	Points []Point
	// Trend, if non-nil, draws the line y = Trend[0]·x + Trend[1].
	Trend *[2]float64
}

// Render writes the plot.
func (s *Scatter) Render(w io.Writer) error {
	if len(s.Points) == 0 {
		_, err := fmt.Fprintf(w, "%s\n(no data)\n", s.Title)
		return err
	}

	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, p := range s.Points {
		minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
		minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
	}
	// Pad the ranges so points do not sit on the border.
	padX := (maxX - minX) * 0.08
	padY := (maxY - minY) * 0.12
	if padX == 0 {
		padX = math.Abs(maxX)*0.1 + 1e-12
	}
	if padY == 0 {
		padY = math.Abs(maxY)*0.1 + 1e-12
	}
	f := newFrame(minX-padX, maxX+padX, minY-padY, maxY+padY)

	if s.Trend != nil {
		for c := 0; c < width; c++ {
			x := f.minX + (f.maxX-f.minX)*float64(c)/float64(width-1)
			f.mark(f.row(s.Trend[0]*x+s.Trend[1]), c, '.')
		}
	}
	legend := make([]string, 0, len(s.Points))
	for i, p := range s.Points {
		m := marks[i%len(marks)]
		f.set(p.X, p.Y, m)
		legend = append(legend, fmt.Sprintf("%c=%s(%.3g,%.4g)", m, p.Label, p.X, p.Y))
	}

	if err := f.render(w, s.Title, s.XLabel, s.YLabel); err != nil {
		return err
	}
	for i := 0; i < len(legend); i += 3 {
		fmt.Fprintf(w, "  %s\n", strings.Join(legend[i:min(i+3, len(legend))], "  "))
	}
	return nil
}

// Series is one named curve of a line chart.
type Series struct {
	Name string
	Y    []float64 // sampled at X[i] of the chart
}

// Lines describes a multi-series line chart with shared x samples.
type Lines struct {
	Title  string
	XLabel string
	YLabel string
	X      []float64
	Series []Series
}

// Render writes the chart.
func (l *Lines) Render(w io.Writer) error {
	if len(l.X) == 0 || len(l.Series) == 0 {
		_, err := fmt.Fprintf(w, "%s\n(no data)\n", l.Title)
		return err
	}
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, s := range l.Series {
		for _, y := range s.Y {
			minY, maxY = math.Min(minY, y), math.Max(maxY, y)
		}
	}
	if minY == maxY {
		maxY = minY + 1
	}
	minX, maxX := l.X[0], l.X[len(l.X)-1]
	if minX == maxX {
		maxX = minX + 1
	}
	f := newFrame(minX, maxX, minY, maxY)

	// Interpolate between consecutive samples.
	steps := max(width/len(l.X)*2, 2)
	for si, s := range l.Series {
		m := marks[si%len(marks)]
		for i := 1; i < len(s.Y) && i < len(l.X); i++ {
			for k := 0; k <= steps; k++ {
				t := float64(k) / float64(steps)
				f.set(l.X[i-1]+(l.X[i]-l.X[i-1])*t, s.Y[i-1]+(s.Y[i]-s.Y[i-1])*t, m)
			}
		}
	}

	if err := f.render(w, l.Title, l.XLabel, l.YLabel); err != nil {
		return err
	}
	leg := make([]string, len(l.Series))
	for si, s := range l.Series {
		leg[si] = fmt.Sprintf("%c=%s", marks[si%len(marks)], s.Name)
	}
	fmt.Fprintf(w, "  %s\n", strings.Join(leg, "  "))
	return nil
}
