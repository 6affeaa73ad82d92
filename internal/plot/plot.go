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
	minX, maxX = minX-padX, maxX+padX
	minY, maxY = minY-padY, maxY+padY

	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	col := func(x float64) int { return int((x - minX) / (maxX - minX) * float64(width-1)) }
	row := func(y float64) int { return height - 1 - int((y-minY)/(maxY-minY)*float64(height-1)) }

	if s.Trend != nil {
		for c := 0; c < width; c++ {
			x := minX + (maxX-minX)*float64(c)/float64(width-1)
			y := s.Trend[0]*x + s.Trend[1]
			r := row(y)
			if r >= 0 && r < height {
				grid[r][c] = '.'
			}
		}
	}
	marks := []byte("*o+x#@%&$^!~")
	legend := make([]string, 0, len(s.Points))
	for i, p := range s.Points {
		m := marks[i%len(marks)]
		r, c := row(p.Y), col(p.X)
		if r >= 0 && r < height && c >= 0 && c < width {
			grid[r][c] = m
		}
		legend = append(legend, fmt.Sprintf("%c=%s(%.3g,%.4g)", m, p.Label, p.X, p.Y))
	}

	if _, err := fmt.Fprintf(w, "%s\n", s.Title); err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", s.YLabel)
	for i, line := range grid {
		label := "        "
		switch i {
		case 0:
			label = fmt.Sprintf("%8.3g", maxY)
		case height - 1:
			label = fmt.Sprintf("%8.3g", minY)
		}
		fmt.Fprintf(w, "%s |%s\n", label, string(line))
	}
	fmt.Fprintf(w, "         +%s\n", strings.Repeat("-", width))
	fmt.Fprintf(w, "          %-*.3g%*.3g  (%s)\n", width/2, minX, width/2, maxX, s.XLabel)
	for i := 0; i < len(legend); i += 3 {
		end := i + 3
		if end > len(legend) {
			end = len(legend)
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(legend[i:end], "  "))
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

	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	marks := []byte("*o+x#@%&$^!~")
	for si, s := range l.Series {
		m := marks[si%len(marks)]
		for i := 1; i < len(s.Y) && i < len(l.X); i++ {
			// Interpolate between consecutive samples.
			steps := width / len(l.X) * 2
			if steps < 2 {
				steps = 2
			}
			for k := 0; k <= steps; k++ {
				f := float64(k) / float64(steps)
				x := l.X[i-1] + (l.X[i]-l.X[i-1])*f
				y := s.Y[i-1] + (s.Y[i]-s.Y[i-1])*f
				c := int((x - minX) / (maxX - minX) * float64(width-1))
				r := height - 1 - int((y-minY)/(maxY-minY)*float64(height-1))
				if r >= 0 && r < height && c >= 0 && c < width {
					grid[r][c] = m
				}
			}
		}
	}

	if _, err := fmt.Fprintf(w, "%s\n%s\n", l.Title, l.YLabel); err != nil {
		return err
	}
	for i, line := range grid {
		label := "        "
		switch i {
		case 0:
			label = fmt.Sprintf("%8.3g", maxY)
		case height - 1:
			label = fmt.Sprintf("%8.3g", minY)
		}
		fmt.Fprintf(w, "%s |%s\n", label, string(line))
	}
	fmt.Fprintf(w, "         +%s\n", strings.Repeat("-", width))
	fmt.Fprintf(w, "          %-*.3g%*.3g  (%s)\n", width/2, minX, width/2, maxX, l.XLabel)
	var leg []string
	for si, s := range l.Series {
		leg = append(leg, fmt.Sprintf("%c=%s", marks[si%len(marks)], s.Name))
	}
	fmt.Fprintf(w, "  %s\n", strings.Join(leg, "  "))
	return nil
}
