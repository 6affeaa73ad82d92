package advisor

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"graphpart/internal/datasets"
	"graphpart/internal/decision"
	"graphpart/internal/partition"
	"graphpart/internal/report"
)

// Learner bounds. The training sets are tens of observations per engine,
// so the model stays a shallow, readable tree: every recommendation can
// print the handful of threshold comparisons behind it.
const (
	maxDepth = 4
	minLeaf  = 1
	minSplit = 2
)

// nearBestSlack is the tolerance behind confidences and regret checks: a
// strategy within 10% of an observation's best counts as a hit (the same
// slack the paper's Fig 5.9 validation uses).
const nearBestSlack = 1.10

// Model is a fitted advisor: one learned threshold tree per engine plus
// the observations and manifests it was fitted from. It implements
// decision.Rule, so it slots in beside decision.PaperTrees.
type Model struct {
	engines   map[string]*engineModel
	manifests map[string]datasets.Manifest
	// Skipped counts observation groups dropped because their dataset had
	// no manifest (feature vector unknown).
	Skipped int
}

var _ decision.Rule = (*Model)(nil)

// engineModel is one engine's learned tree over its training set.
type engineModel struct {
	engine string
	obs    []*Observation
	root   *node
}

// node is one learned split (internal: left if feature < threshold) or
// leaf (obs non-nil).
type node struct {
	feature   string
	threshold float64
	left      *node
	right     *node
	obs       []*Observation
}

// Fit learns a model from a benchrunner report and the manifests of the
// datasets it measures. It errors when the report contains no usable
// measurement groups (a group needs an engine, a dataset with a manifest,
// and at least two scored strategies).
func Fit(rep *report.Report, mans []datasets.Manifest) (*Model, error) {
	if rep == nil {
		return nil, fmt.Errorf("advisor: nil report")
	}
	mm := make(map[string]datasets.Manifest, len(mans))
	for _, m := range mans {
		mm[m.Name] = m
	}
	obs, skipped := observations(rep, mm)
	if len(obs) == 0 {
		return nil, fmt.Errorf("advisor: no usable measurement cells in report (need engine+dataset+strategy dims and manifests for the datasets; %d groups lacked a manifest)", skipped)
	}
	byEngine := map[string][]*Observation{}
	for _, o := range obs {
		byEngine[o.Engine] = append(byEngine[o.Engine], o)
	}
	m := &Model{engines: map[string]*engineModel{}, manifests: mm, Skipped: skipped}
	for _, engine := range sortedKeys(byEngine) {
		set := byEngine[engine]
		m.engines[engine] = &engineModel{engine: engine, obs: set, root: learn(set, 0)}
	}
	return m, nil
}

// sortedKeys returns m's keys in sorted order. Every map iteration on the
// fitting path goes through it: model fitting must be a pure function of
// the report, and Go randomizes map order per range statement (this is
// what graphlint's detrange analyzer enforces).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Name implements decision.Rule.
func (m *Model) Name() string { return "empirical" }

// Engines returns the engine labels the model has measurements for,
// sorted.
func (m *Model) Engines() []string {
	out := make([]string, 0, len(m.engines))
	for e := range m.engines {
		out = append(out, e)
	}
	sort.Strings(out)
	return out
}

// Observations returns the engine's training set (nil for unmeasured
// engines).
func (m *Model) Observations(engine string) []*Observation {
	if em := m.engines[engine]; em != nil {
		return em.obs
	}
	return nil
}

// --- learning ---------------------------------------------------------

// impurity is the Gini impurity of the best-strategy labels. The sum runs
// over sorted labels: float accumulation is order-sensitive in the last
// ulp, and learn() compares split scores at 1e-12, so summing in map order
// could flip a split between two fits of the same report.
func impurity(obs []*Observation) float64 {
	counts := map[string]int{}
	for _, o := range obs {
		counts[o.Best]++
	}
	n := float64(len(obs))
	g := 1.0
	for _, label := range sortedKeys(counts) {
		p := float64(counts[label]) / n
		g -= p * p
	}
	return g
}

// learn grows the threshold tree top-down: at each node it scans every
// feature (in featureNames order) and every midpoint between adjacent
// observed values, keeping the split with the lowest weighted child
// impurity. Pure nodes, tiny nodes, and depth-capped nodes become leaves.
func learn(obs []*Observation, depth int) *node {
	if depth >= maxDepth || len(obs) < minSplit || impurity(obs) == 0 {
		return &node{obs: obs}
	}
	parent := impurity(obs)
	best := struct {
		feature     string
		threshold   float64
		score       float64
		left, right []*Observation
	}{score: parent}
	for _, feat := range featureNames {
		vals := make([]float64, 0, len(obs))
		seen := map[float64]bool{}
		for _, o := range obs {
			v := featureValue(o.W, feat)
			if !seen[v] {
				seen[v] = true
				vals = append(vals, v)
			}
		}
		sort.Float64s(vals)
		for i := 0; i+1 < len(vals); i++ {
			thr := (vals[i] + vals[i+1]) / 2
			var left, right []*Observation
			for _, o := range obs {
				if featureValue(o.W, feat) < thr {
					left = append(left, o)
				} else {
					right = append(right, o)
				}
			}
			if len(left) < minLeaf || len(right) < minLeaf {
				continue
			}
			n := float64(len(obs))
			score := float64(len(left))/n*impurity(left) + float64(len(right))/n*impurity(right)
			// Strict improvement with an epsilon: equal-quality splits
			// keep the earlier feature and lower threshold, which is what
			// makes fitting order-independent and deterministic.
			if score < best.score-1e-12 {
				best.feature, best.threshold, best.score = feat, thr, score
				best.left, best.right = left, right
			}
		}
	}
	if best.feature == "" {
		return &node{obs: obs}
	}
	return &node{
		feature:   best.feature,
		threshold: best.threshold,
		left:      learn(best.left, depth+1),
		right:     learn(best.right, depth+1),
	}
}

// walk descends from the root to a leaf, recording one line per split.
func (em *engineModel) walk(w decision.Workload) (*node, []string) {
	n := em.root
	var trace []string
	for n.obs == nil {
		v := featureValue(w, n.feature)
		if v < n.threshold {
			trace = append(trace, fmt.Sprintf("%s %.4g < %.4g", n.feature, v, n.threshold))
			n = n.left
		} else {
			trace = append(trace, fmt.Sprintf("%s %.4g ≥ %.4g", n.feature, v, n.threshold))
			n = n.right
		}
	}
	return n, trace
}

// --- recommendation ---------------------------------------------------

// engineLabel maps a system to the engine dimension its measurements
// carry: the "all strategies in one system" configurations run on the
// host system's engine.
func engineLabel(sys partition.System) (string, error) {
	switch sys {
	case partition.PowerGraph:
		return "PowerGraph", nil
	case partition.PowerLyra, partition.PowerLyraAll, partition.AllFamilies:
		// All-Families ranks over the PowerLyra measurements: the engine
		// with the broadest strategy coverage, including the added
		// families' fig8.x rows.
		return "PowerLyra", nil
	case partition.GraphX, partition.GraphXAll:
		return "GraphX", nil
	}
	return "", fmt.Errorf("advisor: unknown system %q", sys)
}

// allowedStrategies is the candidate set for a system under a workload:
// the system's shipped strategies, minus Grid when the cluster cannot form
// the N×N arrangement it needs (ResilientGrid handles non-squares).
func allowedStrategies(sys partition.System, w decision.Workload) (map[string]bool, error) {
	names, err := partition.SystemStrategies(sys)
	if err != nil {
		return nil, err
	}
	allowed := make(map[string]bool, len(names))
	for _, n := range names {
		if n == "Grid" && w.Machines > 0 && !decision.PerfectSquare(w.Machines) {
			continue
		}
		allowed[n] = true
	}
	return allowed, nil
}

// candidate aggregates one strategy's standing across a set of
// observations.
type candidate struct {
	strategy string
	// meanSlowdown averages score/best over the observations that measure
	// the strategy; 1 means it was the best everywhere.
	meanSlowdown float64
	// support is how many observations measure the strategy; nearBest how
	// many of those have it within nearBestSlack of their best.
	support  int
	nearBest int
}

// rank orders the allowed strategies by mean slowdown over obs. Only
// strategies with at least one measurement rank; ties break by name.
func rank(obs []*Observation, allowed map[string]bool) []candidate {
	sums := map[string]*candidate{}
	for _, o := range obs {
		if o.BestScore <= 0 {
			continue
		}
		for _, s := range o.Strategies() {
			if !allowed[s] {
				continue
			}
			c := sums[s]
			if c == nil {
				c = &candidate{strategy: s}
				sums[s] = c
			}
			slow := o.Scores[s] / o.BestScore
			c.meanSlowdown += slow
			c.support++
			if slow <= nearBestSlack {
				c.nearBest++
			}
		}
	}
	out := make([]candidate, 0, len(sums))
	for _, s := range sortedKeys(sums) {
		c := sums[s]
		c.meanSlowdown /= float64(c.support)
		out = append(out, *c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].meanSlowdown != out[j].meanSlowdown {
			return out[i].meanSlowdown < out[j].meanSlowdown
		}
		return out[i].strategy < out[j].strategy
	})
	return out
}

// Recommend implements decision.Rule: walk the engine's learned tree to a
// leaf, rank the system's strategies over the leaf's measured workloads,
// and attach the trace, a confidence, and predicted metrics.
func (m *Model) Recommend(sys partition.System, w decision.Workload) (decision.Recommendation, error) {
	engine, err := engineLabel(sys)
	if err != nil {
		return decision.Recommendation{}, err
	}
	em := m.engines[engine]
	if em == nil {
		return decision.Recommendation{}, fmt.Errorf("advisor: report has no %s measurements (have %v)", engine, m.Engines())
	}
	allowed, err := allowedStrategies(sys, w)
	if err != nil {
		return decision.Recommendation{}, err
	}
	leaf, trace := em.walk(w)
	explanation := []string{fmt.Sprintf("model: %s tree fitted on %d measured workloads", engine, len(em.obs))}
	explanation = append(explanation, trace...)

	cands := rank(leaf.obs, allowed)
	scope := leaf.obs
	if len(cands) == 0 {
		// The leaf's measurements don't cover this system's strategy set;
		// fall back to the engine's whole training set.
		scope = em.obs
		cands = rank(scope, allowed)
		explanation = append(explanation, fmt.Sprintf("leaf has no measurements for %s strategies; ranking over all %d workloads", sys, len(scope)))
	}
	if len(cands) == 0 {
		return decision.Recommendation{}, fmt.Errorf("advisor: no measured strategy of %s is usable on %d machines", sys, w.Machines)
	}
	top := cands[0]
	explanation = append(explanation, fmt.Sprintf(
		"leaf: %d workload(s); %s mean slowdown ×%.3f vs best, near-best in %d/%d",
		len(scope), top.strategy, top.meanSlowdown, top.nearBest, top.support))

	predicted, note := m.predict(em, w, top.strategy)
	if note != "" {
		explanation = append(explanation, note)
	}
	return decision.Recommendation{
		System:      sys,
		Strategy:    top.strategy,
		Source:      m.Name(),
		Confidence:  float64(top.nearBest) / float64(top.support),
		Explanation: explanation,
		Predicted:   predicted,
	}, nil
}

// --- prediction -------------------------------------------------------

// predict pulls the measured cells for the recommended strategy on the
// workload's dataset — or, for unmeasured graphs, its nearest measured
// neighbor in feature space — and re-emits them as pred-* cells.
func (m *Model) predict(em *engineModel, w decision.Workload, strategy string) ([]report.Cell, string) {
	ds, note := m.nearestDataset(em, w)
	if ds == "" {
		return nil, ""
	}
	var cells []report.Cell
	for _, o := range em.obs {
		if o.Dataset != ds {
			continue
		}
		// Total/compute observations are app-specific; only predict from
		// the matching app (or all, when the workload names none).
		if (o.Kind == KindTotal || o.Kind == KindCompute) && w.App != "" && o.App != w.App {
			continue
		}
		score, ok := o.Scores[strategy]
		if !ok {
			continue
		}
		metric, unit := "pred-total-s", "s"
		switch o.Kind {
		case KindCompute:
			metric = "pred-compute-s"
		case KindIngress:
			metric = "pred-ingress-s"
		case KindReplication:
			metric, unit = "pred-replication-factor", "ratio"
		}
		cells = append(cells, report.Cell{
			Dims: report.Dims{
				Dataset: ds, Strategy: strategy, App: o.App,
				Engine: em.engine, Cluster: o.Cluster, Parts: o.Parts,
				Variant: o.Variant,
			},
			Metric: metric, Value: score, Unit: unit,
		})
	}
	return cells, note
}

// nearestDataset returns the engine's measured dataset to predict from:
// the workload's own when measured, else the feature-space nearest
// neighbor (normalized Euclidean over the manifest statistics).
func (m *Model) nearestDataset(em *engineModel, w decision.Workload) (string, string) {
	measured := map[string]decision.Workload{}
	for _, o := range em.obs {
		if _, ok := measured[o.Dataset]; !ok {
			measured[o.Dataset] = o.W
		}
	}
	if _, ok := measured[w.Dataset]; ok && w.Dataset != "" {
		return w.Dataset, fmt.Sprintf("prediction: measured cells for %s", w.Dataset)
	}
	names := make([]string, 0, len(measured))
	for n := range measured {
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return "", ""
	}
	feats := []string{"class", "gini", "alpha", "lowDegreeRatio", "maxDegree", "avgDegree"}
	// Normalize each feature by its range over the measured datasets and
	// the query, so maxDegree (hundreds) doesn't drown gini (0..1) and an
	// out-of-range query doesn't blow up a feature with a tiny measured
	// span.
	lo, hi := map[string]float64{}, map[string]float64{}
	for _, f := range feats {
		lo[f], hi[f] = math.Inf(1), math.Inf(-1)
		for _, n := range names {
			v := scaled(featureValue(measured[n], f), f)
			lo[f], hi[f] = math.Min(lo[f], v), math.Max(hi[f], v)
		}
		v := scaled(featureValue(w, f), f)
		lo[f], hi[f] = math.Min(lo[f], v), math.Max(hi[f], v)
	}
	bestName, bestDist := "", math.Inf(1)
	for _, n := range names {
		var d float64
		for _, f := range feats {
			span := hi[f] - lo[f]
			if span == 0 {
				continue
			}
			diff := (scaled(featureValue(w, f), f) - scaled(featureValue(measured[n], f), f)) / span
			d += diff * diff
		}
		if d < bestDist {
			bestName, bestDist = n, d
		}
	}
	return bestName, fmt.Sprintf("prediction: %s is unmeasured; using nearest measured dataset %s", orUnnamed(w.Dataset), bestName)
}

// scaled compresses heavy-tailed features before distance computation.
func scaled(v float64, feature string) float64 {
	if feature == "maxDegree" || feature == "avgDegree" {
		return math.Log1p(math.Max(v, 0))
	}
	return v
}

func orUnnamed(name string) string {
	if name == "" {
		return "the input graph"
	}
	return name
}

// --- rendering --------------------------------------------------------

// Explain renders every learned tree as indented text — the interpretable
// artifact the advisor trades on. The output is deterministic for a given
// report + manifests.
func (m *Model) Explain() string {
	var sb strings.Builder
	for _, engine := range m.Engines() {
		em := m.engines[engine]
		fmt.Fprintf(&sb, "engine %s — %d measured workloads\n", engine, len(em.obs))
		renderNode(&sb, em.root, 1)
	}
	return sb.String()
}

func renderNode(sb *strings.Builder, n *node, depth int) {
	indent := strings.Repeat("  ", depth)
	if n.obs != nil {
		counts := map[string]int{}
		for _, o := range n.obs {
			counts[o.Best]++
		}
		names := make([]string, 0, len(counts))
		for s := range counts {
			names = append(names, s)
		}
		sort.Slice(names, func(i, j int) bool {
			if counts[names[i]] != counts[names[j]] {
				return counts[names[i]] > counts[names[j]]
			}
			return names[i] < names[j]
		})
		parts := make([]string, len(names))
		for i, s := range names {
			parts[i] = fmt.Sprintf("%s %d/%d", s, counts[s], len(n.obs))
		}
		fmt.Fprintf(sb, "%sleaf: best = %s\n", indent, strings.Join(parts, ", "))
		return
	}
	fmt.Fprintf(sb, "%s%s < %.4g?\n", indent, n.feature, n.threshold)
	fmt.Fprintf(sb, "%syes:\n", indent)
	renderNode(sb, n.left, depth+1)
	fmt.Fprintf(sb, "%sno:\n", indent)
	renderNode(sb, n.right, depth+1)
}
