package advisor

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"graphpart/internal/datasets"
	"graphpart/internal/decision"
	"graphpart/internal/report"
)

// Observation kinds: how the per-strategy scores were measured.
const (
	// KindTotal scores are end-to-end job seconds (ingress + compute),
	// either measured directly (total-s cells) or synthesized from
	// matching ingress and compute cells.
	KindTotal = "total"
	// KindCompute scores are compute seconds only — a long-job proxy
	// (ingress amortizes away, §5.4.3).
	KindCompute = "compute"
	// KindIngress scores are ingress seconds only — a short-job proxy
	// (the job is the load).
	KindIngress = "ingress"
	// KindReplication scores are replication factors — the paper's
	// long-job network proxy: per-superstep traffic scales with the
	// number of replicas (§5.1.1).
	KindReplication = "replication"
)

// Proxy compute/ingress ratios attached to observations whose job length
// is implied by their kind rather than measured.
const (
	shortJobRatio = 0.25
	longJobRatio  = 4
)

// Observation is one measured workload point: a (engine, dataset, app)
// combination with a score per strategy, lower better. The learner's
// training label is Best; the leaf statistics that back confidences and
// regret come from the full Scores map.
type Observation struct {
	Engine  string
	Dataset string
	App     string
	Variant string
	Cluster string
	Parts   int
	Kind    string
	// Ratio is the compute/ingress ratio: measured when the cells allow
	// it, otherwise the kind's proxy value.
	Ratio float64
	// W is the workload feature vector the model branches on.
	W decision.Workload
	// Scores maps strategy → score (seconds or replication factor).
	Scores map[string]float64
	// Best is the argmin of Scores (ties broken by name); BestScore its
	// value.
	Best      string
	BestScore float64
}

// Strategies returns the observation's measured strategies, sorted.
func (o *Observation) Strategies() []string {
	out := make([]string, 0, len(o.Scores))
	for s := range o.Scores {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// groupKey identifies one observation group: every dimension except the
// strategy axis the scores range over.
type groupKey struct {
	engine, dataset, app, variant, cluster string
	parts                                  int
}

// ingressKey is groupKey without the app/variant axes: ingress runs before
// any application exists.
type ingressKey struct {
	engine, dataset, cluster string
	parts                    int
}

// acc averages duplicate cells (the same dims can be emitted by several
// experiments; runs are deterministic so the values agree, but averaging
// keeps the extraction total).
type acc struct {
	sum float64
	n   int
}

func (a *acc) add(v float64) { a.sum += v; a.n++ }
func (a *acc) mean() float64 { return a.sum / float64(a.n) }

// scoreTable accumulates strategy→value for one group.
type scoreTable map[string]*acc

func addScore[K comparable](tables map[K]scoreTable, k K, strategy string, v float64) {
	t := tables[k]
	if t == nil {
		t = scoreTable{}
		tables[k] = t
	}
	a := t[strategy]
	if a == nil {
		a = &acc{}
		t[strategy] = a
	}
	a.add(v)
}

func (t scoreTable) means() map[string]float64 {
	out := make(map[string]float64, len(t))
	//graphlint:unordered map→map transform; every consumer iterates the result via sorted keys
	for s, a := range t {
		out[s] = a.mean()
	}
	return out
}

// sortedGroupKeys returns m's keys ordered by every field: observation
// extraction iterates groups in this order so the fitted model (and any
// extraction error) is a pure function of the report.
func sortedGroupKeys(m map[groupKey]scoreTable) []groupKey {
	keys := make([]groupKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].less(keys[j]) })
	return keys
}

func sortedIngressKeys(m map[ingressKey]scoreTable) []ingressKey {
	keys := make([]ingressKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		ga := groupKey{a.engine, a.dataset, "", "", a.cluster, a.parts}
		gb := groupKey{b.engine, b.dataset, "", "", b.cluster, b.parts}
		return ga.less(gb)
	})
	return keys
}

// less is a total order over group keys (field-lexicographic).
func (a groupKey) less(b groupKey) bool {
	switch {
	case a.engine != b.engine:
		return a.engine < b.engine
	case a.dataset != b.dataset:
		return a.dataset < b.dataset
	case a.app != b.app:
		return a.app < b.app
	case a.variant != b.variant:
		return a.variant < b.variant
	case a.cluster != b.cluster:
		return a.cluster < b.cluster
	}
	return a.parts < b.parts
}

// machinesOf recovers the machine count from a cluster label ("EC2-25",
// "Local-9", "GraphX-Local-9" — the trailing dash-separated number), with
// the partition count as fallback.
func machinesOf(cluster string, parts int) int {
	if i := strings.LastIndex(cluster, "-"); i >= 0 {
		if n, err := strconv.Atoi(cluster[i+1:]); err == nil && n > 0 {
			return n
		}
	}
	return parts
}

// variantRatio maps an "iters=N" variant to a compute/ingress ratio: the
// Fig 9.1 crossover falls around iteration 3–5 at scale 1, so 5 iterations
// ≈ break-even.
func variantRatio(variant string) (float64, bool) {
	s, ok := strings.CutPrefix(variant, "iters=")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(s)
	if err != nil || n <= 0 {
		return 0, false
	}
	return float64(n) / 5, true
}

// observations extracts the training set from a report: one observation
// per measured (engine, dataset, app) group with at least two strategies
// scored, plus short-job (ingress) and long-job (replication) proxy
// observations. Datasets without a manifest are skipped — their feature
// vector is unknown; skipped counts how many groups that dropped.
func observations(rep *report.Report, mans map[string]datasets.Manifest) (obs []*Observation, skipped int) {
	totals := map[groupKey]scoreTable{}
	compute := map[groupKey]scoreTable{}
	ingress := map[ingressKey]scoreTable{}
	replication := map[ingressKey]scoreTable{}

	for _, e := range rep.Experiments {
		for _, c := range e.Cells {
			d := c.Dims
			if d.Engine == "" || d.Dataset == "" || d.Strategy == "" {
				continue
			}
			gk := groupKey{d.Engine, d.Dataset, d.App, d.Variant, d.Cluster, d.Parts}
			ik := ingressKey{d.Engine, d.Dataset, d.Cluster, d.Parts}
			switch c.Metric {
			case "total-s":
				addScore(totals, gk, d.Strategy, c.Value)
			case "compute-s", "compute-seconds":
				if d.App != "" {
					addScore(compute, gk, d.Strategy, c.Value)
				}
			case "ingress-seconds", "ingress-s":
				if d.App == "" && d.Variant == "" {
					addScore(ingress, ik, d.Strategy, c.Value)
				}
			case "replication-factor":
				if d.App == "" && d.Variant == "" {
					addScore(replication, ik, d.Strategy, c.Value)
				}
			}
		}
	}

	// Synthesize totals from compute + matching ingress where no measured
	// total exists: end-to-end = load + run, the quantity the trees rank.
	for _, gk := range sortedGroupKeys(compute) {
		if _, have := totals[gk]; have {
			continue
		}
		ing := ingress[ingressKey{gk.engine, gk.dataset, gk.cluster, gk.parts}]
		if ing == nil {
			continue
		}
		comp := compute[gk]
		for _, strat := range sortedKeys(comp) {
			if ia := ing[strat]; ia != nil {
				addScore(totals, gk, strat, comp[strat].mean()+ia.mean())
			}
		}
	}

	build := func(gk groupKey, kind string, ratio float64, scores map[string]float64) {
		if len(scores) < 2 {
			return // nothing to choose between
		}
		m, ok := mans[gk.dataset]
		if !ok {
			skipped++
			return
		}
		o := &Observation{
			Engine: gk.engine, Dataset: gk.dataset, App: gk.app,
			Variant: gk.variant, Cluster: gk.cluster, Parts: gk.parts,
			Kind: kind, Ratio: ratio, Scores: scores,
			W: WorkloadFor(m, machinesOf(gk.cluster, gk.parts), ratio, gk.app),
		}
		for _, s := range o.Strategies() {
			if o.Best == "" || scores[s] < o.BestScore {
				o.Best, o.BestScore = s, scores[s]
			}
		}
		obs = append(obs, o)
	}

	// Measured (or synthesized) end-to-end totals. The ratio is recovered
	// from matching ingress cells when they exist, from an "iters=N"
	// variant otherwise, defaulting to break-even.
	for _, gk := range sortedGroupKeys(totals) {
		scores := totals[gk].means()
		ratio := 1.0
		if ing := ingress[ingressKey{gk.engine, gk.dataset, gk.cluster, gk.parts}]; ing != nil {
			var sum float64
			var n int
			// Sorted so the float accumulation order — and hence the
			// last-ulp value of the ratio — is a pure function of the data.
			for _, strat := range sortedKeys(scores) {
				if ia := ing[strat]; ia != nil && ia.mean() > 0 {
					r := scores[strat]/ia.mean() - 1
					if r < 0 {
						r = 0
					}
					sum += r
					n++
				}
			}
			if n > 0 {
				ratio = sum / float64(n)
			}
		} else if r, ok := variantRatio(gk.variant); ok {
			ratio = r
		}
		build(gk, KindTotal, ratio, scores)
	}

	// Compute-only groups with no ingress to pair with: long-job proxies.
	for _, gk := range sortedGroupKeys(compute) {
		if _, have := totals[gk]; have {
			continue
		}
		build(gk, KindCompute, longJobRatio, compute[gk].means())
	}

	// Ingress sweeps: short-job proxies (the job is the load).
	for _, ik := range sortedIngressKeys(ingress) {
		gk := groupKey{ik.engine, ik.dataset, "", "", ik.cluster, ik.parts}
		build(gk, KindIngress, shortJobRatio, ingress[ik].means())
	}

	// Replication-factor sweeps: long-job network proxies.
	for _, ik := range sortedIngressKeys(replication) {
		gk := groupKey{ik.engine, ik.dataset, "", "", ik.cluster, ik.parts}
		build(gk, KindReplication, longJobRatio, replication[ik].means())
	}

	sort.Slice(obs, func(i, j int) bool {
		a, b := obs[i], obs[j]
		ka := fmt.Sprintf("%s|%s|%s|%s|%s|%d|%s", a.Engine, a.Dataset, a.App, a.Variant, a.Cluster, a.Parts, a.Kind)
		kb := fmt.Sprintf("%s|%s|%s|%s|%s|%d|%s", b.Engine, b.Dataset, b.App, b.Variant, b.Cluster, b.Parts, b.Kind)
		return ka < kb
	})
	return obs, skipped
}
