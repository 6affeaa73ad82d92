package report

import (
	"fmt"
	"math"
)

// DefaultRelTol is Compare's default relative tolerance. Experiment runs
// are deterministic, so the gate is tight; the slack absorbs float noise
// across toolchains, not real drift.
const DefaultRelTol = 1e-6

// Diff kinds reported by Compare.
const (
	DiffValue             = "value"              // cell present in both, value drifted
	DiffMissingCell       = "missing-cell"       // baseline cell absent from current
	DiffMissingExperiment = "missing-experiment" // baseline experiment absent from current
	DiffCheck             = "check"              // check passed in baseline, fails (or vanished) now
	DiffError             = "error"              // experiment errored in current run
)

// Diff is one regression Compare found against a baseline report.
type Diff struct {
	Experiment string  `json:"experiment"`
	Kind       string  `json:"kind"`
	Key        string  `json:"key"`
	Base       float64 `json:"base,omitempty"`
	Current    float64 `json:"current,omitempty"`
	RelDelta   float64 `json:"relDelta,omitempty"`
	Detail     string  `json:"detail"`
}

func (d Diff) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Experiment, d.Kind, d.Detail)
}

// Scoped returns a copy of the report restricted to the given experiment
// IDs (nil keeps every experiment) with f applied to cells. Scope a full
// baseline this way before Compare when the current run selected a subset
// of experiments (-run) or filtered its cells (-filter): otherwise every
// unselected experiment and pruned cell reads as a regression. A full
// (-all, unfiltered) run should compare against the unscoped baseline so
// genuinely vanished experiments still flag.
func (r *Report) Scoped(ids []string, f Filter) *Report {
	keep := map[string]bool{}
	for _, id := range ids {
		keep[id] = true
	}
	out := *r
	out.Experiments = nil
	for _, e := range r.Experiments {
		if ids != nil && !keep[e.ID] {
			continue
		}
		if f != nil {
			cells := make([]Cell, 0, len(e.Cells))
			for _, c := range e.Cells {
				if f.Match(c) {
					cells = append(cells, c)
				}
			}
			e.Cells = cells
		}
		out.Experiments = append(out.Experiments, e)
	}
	return &out
}

// relDelta is the symmetric relative difference |a-b| / max(|a|, |b|);
// zero when both values are zero.
func relDelta(a, b float64) float64 {
	denom := math.Max(math.Abs(a), math.Abs(b))
	if denom == 0 {
		return 0
	}
	return math.Abs(a-b) / denom
}

// Compare diffs cur against the baseline cell-by-cell with a relative
// tolerance (0 demands exact equality; negative means DefaultRelTol) and
// returns every regression: drifted values, baseline cells or experiments
// missing from cur, checks that passed in the baseline but not now, and
// experiments that errored. Cells and experiments that are new in cur are
// not regressions. Every cell is held to the same tolerance whatever its
// unit: a report holds no wall-clock value.
func Compare(base, cur *Report, relTol float64) []Diff {
	if relTol < 0 {
		relTol = DefaultRelTol
	}
	curByID := map[string]*Experiment{}
	for i := range cur.Experiments {
		curByID[cur.Experiments[i].ID] = &cur.Experiments[i]
	}
	var diffs []Diff
	for bi := range base.Experiments {
		be := &base.Experiments[bi]
		if be.Error != "" {
			continue // a baseline failure gates nothing
		}
		ce, ok := curByID[be.ID]
		if !ok {
			diffs = append(diffs, Diff{
				Experiment: be.ID, Kind: DiffMissingExperiment, Key: be.ID,
				Detail: fmt.Sprintf("experiment %q in baseline but not in current report", be.ID),
			})
			continue
		}
		if ce.Error != "" {
			diffs = append(diffs, Diff{
				Experiment: be.ID, Kind: DiffError, Key: be.ID,
				Detail: fmt.Sprintf("experiment errored: %s", ce.Error),
			})
			continue
		}
		diffs = append(diffs, compareCells(be, ce, relTol)...)
		diffs = append(diffs, compareChecks(be, ce)...)
	}
	return diffs
}

// compareCells matches cells by key; duplicate keys within one experiment
// (e.g. repeated phases) are matched positionally.
func compareCells(base, cur *Experiment, relTol float64) []Diff {
	curByKey := map[string][]Cell{}
	for _, c := range cur.Cells {
		k := c.Key()
		curByKey[k] = append(curByKey[k], c)
	}
	seen := map[string]int{}
	var diffs []Diff
	for _, bc := range base.Cells {
		k := bc.Key()
		i := seen[k]
		seen[k]++
		matches := curByKey[k]
		if i >= len(matches) {
			diffs = append(diffs, Diff{
				Experiment: base.ID, Kind: DiffMissingCell, Key: k,
				Base:   bc.Value,
				Detail: fmt.Sprintf("cell %s (baseline %g %s) missing from current report", k, bc.Value, bc.Unit),
			})
			continue
		}
		cc := matches[i]
		if rd := relDelta(bc.Value, cc.Value); rd > relTol {
			diffs = append(diffs, Diff{
				Experiment: base.ID, Kind: DiffValue, Key: k,
				Base: bc.Value, Current: cc.Value, RelDelta: rd,
				Detail: fmt.Sprintf("%s: %g → %g (Δrel %.3g > tol %.3g)", k, bc.Value, cc.Value, rd, relTol),
			})
		}
	}
	return diffs
}

// compareChecks flags checks that passed in the baseline but fail or are
// gone in cur. Checks match by claim, positionally among duplicates.
func compareChecks(base, cur *Experiment) []Diff {
	curByClaim := map[string][]Check{}
	for _, c := range cur.Checks {
		curByClaim[c.Claim] = append(curByClaim[c.Claim], c)
	}
	seen := map[string]int{}
	var diffs []Diff
	for _, bc := range base.Checks {
		i := seen[bc.Claim]
		seen[bc.Claim]++
		if !bc.Pass {
			continue
		}
		matches := curByClaim[bc.Claim]
		if i >= len(matches) {
			diffs = append(diffs, Diff{
				Experiment: base.ID, Kind: DiffCheck, Key: bc.Claim,
				Detail: fmt.Sprintf("check %q passed in baseline but is missing now", bc.Claim),
			})
			continue
		}
		if !matches[i].Pass {
			diffs = append(diffs, Diff{
				Experiment: base.ID, Kind: DiffCheck, Key: bc.Claim,
				Detail: fmt.Sprintf("check %q regressed: passed in baseline, fails now (%s)", bc.Claim, matches[i].Observed),
			})
		}
	}
	return diffs
}
