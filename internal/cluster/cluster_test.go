package cluster

import (
	"math"
	"strings"
	"testing"

	"graphpart/internal/gen"
	"graphpart/internal/partition"
)

func TestConfigNumParts(t *testing.T) {
	if got := (Config{Machines: 9}).NumParts(); got != 9 {
		t.Errorf("NumParts = %d, want 9", got)
	}
	if got := GraphXLocal10.NumParts(); got != 40 {
		t.Errorf("GraphX NumParts = %d, want 40", got)
	}
	if err := (Config{}).Validate(); err == nil {
		t.Error("zero config validated")
	}
	if err := Local9.Validate(); err != nil {
		t.Errorf("Local9 invalid: %v", err)
	}
}

func TestMachineOfRoundRobin(t *testing.T) {
	cc := Config{Machines: 4, PartsPerMachine: 3}
	counts := make([]int, 4)
	for p := 0; p < cc.NumParts(); p++ {
		m := cc.MachineOf(p)
		if m < 0 || m >= 4 {
			t.Fatalf("MachineOf(%d) = %d", p, m)
		}
		counts[m]++
	}
	for m, c := range counts {
		if c != 3 {
			t.Errorf("machine %d hosts %d partitions, want 3", m, c)
		}
	}
}

func TestRunStepAccounting(t *testing.T) {
	model := DefaultModel()
	r := NewRun(Config{Machines: 2, PartsPerMachine: 1}, model)
	r.StepPartitioned([]float64{1e9, 2e9}, []float64{0, model.BandwidthBytesPerSec}, []float64{1, 2})
	// Step time = max work (2s) + max in (1s) + barrier.
	want := 2 + 1 + model.BarrierNs/1e9
	if diff := r.SimSeconds - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("SimSeconds = %v, want %v", r.SimSeconds, want)
	}
	if r.Machines[0].CPUBusyNs != 1e9 || r.Machines[1].CPUBusyNs != 2e9 {
		t.Errorf("busy = %v/%v", r.Machines[0].CPUBusyNs, r.Machines[1].CPUBusyNs)
	}
	if r.Machines[1].NetInBytes != model.BandwidthBytesPerSec {
		t.Errorf("net in = %v", r.Machines[1].NetInBytes)
	}
	util := r.CPUUtilization()
	if util[1] <= util[0] {
		t.Errorf("machine 1 (busier) should have higher utilization: %v", util)
	}
	for _, u := range util {
		if u < 0 || u > 1 {
			t.Errorf("utilization %v out of range", u)
		}
	}
}

func TestRunAggregates(t *testing.T) {
	r := NewRun(Config{Machines: 2}, DefaultModel())
	r.StepPartitioned([]float64{0, 0}, []float64{1e9, 3e9}, nil)
	if got := r.AvgNetInGB(); got != 2 {
		t.Errorf("AvgNetInGB = %v, want 2", got)
	}
	r.SetPeakMem(0, 5e9)
	r.SetPeakMem(0, 4e9) // lower: must not overwrite
	r.SetPeakMem(1, 1e9)
	if got := r.MaxPeakMemGB(); got != 5 {
		t.Errorf("MaxPeakMemGB = %v, want 5", got)
	}
}

func TestUtilizationEmptyRun(t *testing.T) {
	r := NewRun(Local9, DefaultModel())
	for _, u := range r.CPUUtilization() {
		if u != 0 {
			t.Errorf("empty run utilization %v", u)
		}
	}
}

// ingressAssignment builds a small assignment for ingress-model tests with
// the named strategy (the hybrid family at threshold 30).
func ingressAssignment(t *testing.T, name string, parts int) (*partition.Assignment, partition.Strategy) {
	t.Helper()
	s := partition.MustNew(name, partition.Options{})
	g := gen.PrefAttach("ingress-test", 3000, 6, 0x77)
	a, err := partition.Partition(g, s, parts, 1)
	if err != nil {
		t.Fatal(err)
	}
	return a, s
}

func TestIngressPhasesSumToTotal(t *testing.T) {
	a, s := ingressAssignment(t, "Random", 9)
	st := Ingress(a, s, Local9, DefaultModel())
	var sum float64
	for _, ph := range st.Phases {
		sum += ph.Seconds
	}
	if diff := st.Seconds - sum; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("phases sum %v != total %v", sum, st.Seconds)
	}
	if st.Seconds <= 0 || st.PeakMemPerMachine <= 0 {
		t.Error("non-positive ingress stats")
	}
}

func TestIngressOrderings(t *testing.T) {
	model := DefaultModel()
	// The figure-level orderings (Grid fastest, greedy slower on skewed
	// graphs) are asserted by the fig5.7/fig6.4 experiments on the real
	// dataset stand-ins; here we verify the model's components: the
	// greedy family pays a strictly larger assignment phase, and Grid
	// beats Random because fewer replicas finalize faster (§5.4.4).
	ingress := func(name string) IngressStats {
		a, s := ingressAssignment(t, name, 25)
		return Ingress(a, s, EC2x25, model)
	}
	random, grid, hdrf := ingress("Random"), ingress("Grid"), ingress("HDRF")
	hybrid, ginger := ingress("Hybrid"), ingress("H-Ginger")

	if grid.Seconds >= random.Seconds {
		t.Errorf("Grid ingress %.4f ≥ Random %.4f (lower-RF finalize should win, §5.4.4)", grid.Seconds, random.Seconds)
	}
	assignPhase := func(st IngressStats) float64 { return st.Phases[1].Seconds }
	if assignPhase(hdrf) <= assignPhase(random) {
		t.Errorf("HDRF assign phase %.4f ≤ Random %.4f", assignPhase(hdrf), assignPhase(random))
	}
	// H-Ginger is the slowest of all (§6.4.4).
	for name, st := range map[string]IngressStats{"Random": random, "HDRF": hdrf, "Hybrid": hybrid} {
		if ginger.Seconds <= st.Seconds {
			t.Errorf("H-Ginger ingress %.4f ≤ %s %.4f", ginger.Seconds, name, st.Seconds)
		}
	}
	// Multi-pass strategies carry the larger ingress memory footprint
	// (Fig 6.2).
	if hybrid.PeakMemPerMachine <= random.PeakMemPerMachine {
		t.Errorf("Hybrid ingress memory %.0f ≤ Random %.0f", hybrid.PeakMemPerMachine, random.PeakMemPerMachine)
	}
	if ginger.PeakMemPerMachine <= hybrid.PeakMemPerMachine {
		t.Errorf("H-Ginger ingress memory %.0f ≤ Hybrid %.0f", ginger.PeakMemPerMachine, hybrid.PeakMemPerMachine)
	}
}

func TestComputeMemPositive(t *testing.T) {
	a, _ := ingressAssignment(t, "Random", 9)
	perMachine, total := ComputeMem(a, Local9, DefaultModel())
	if len(perMachine) != Local9.Machines {
		t.Fatalf("ComputeMem returned %d machines, want %d", len(perMachine), Local9.Machines)
	}
	var sum float64
	for m, b := range perMachine {
		if b <= 0 {
			t.Errorf("machine %d holds %v bytes", m, b)
		}
		sum += b
	}
	if total <= 0 || math.Abs(sum-total) > 1e-6*total {
		t.Errorf("total %v, per-machine sum %v", total, sum)
	}
}

func TestDefaultModelSane(t *testing.T) {
	m := DefaultModel()
	if m.BandwidthBytesPerSec <= 0 || m.BarrierNs <= 0 || m.GatherEdgeNs <= 0 {
		t.Fatal("default model has non-positive constants")
	}
	if m.ReplicaBytes <= 0 || m.EdgeMemBytes <= 0 {
		t.Fatal("default memory constants non-positive")
	}
}

// TestCostModelValidate: the default model passes, and each refusal names the
// field — the two rates at zero, any constant negative or NaN, int fields
// included.
func TestCostModelValidate(t *testing.T) {
	if err := DefaultModel().Validate(); err != nil {
		t.Fatalf("default model refused: %v", err)
	}
	free := DefaultModel()
	free.SignalBytes, free.BarrierNs = 0, 0
	if err := free.Validate(); err != nil {
		t.Errorf("zero sizes and times refused: %v", err)
	}
	for field, breakIt := range map[string]func(*CostModel){
		"BandwidthBytesPerSec": func(m *CostModel) { m.BandwidthBytesPerSec = 0 },
		"DiskBytesPerSec":      func(m *CostModel) { m.DiskBytesPerSec = 0 },
		"GatherEdgeNs":         func(m *CostModel) { m.GatherEdgeNs = -1 },
		"BarrierNs":            func(m *CostModel) { m.BarrierNs = math.NaN() },
		"SignalBytes":          func(m *CostModel) { m.SignalBytes = -8 },
		"RedistributeSec":      func(m *CostModel) { m.RedistributeSec = math.Inf(-1) },
	} {
		m := DefaultModel()
		breakIt(&m)
		if err := m.Validate(); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("broken %s: Validate() = %v, want an error naming the field", field, err)
		}
	}
}

// TestValidateRejectsNegativePartsPerMachine: 0 means "default to 1", but a
// negative count must be rejected before MachineOf misbehaves for callers
// that do not go through NumParts's clamp.
func TestValidateRejectsNegativePartsPerMachine(t *testing.T) {
	if err := (Config{Machines: 4, PartsPerMachine: -1}).Validate(); err == nil {
		t.Error("Validate accepted PartsPerMachine = -1")
	}
	if err := (Config{Machines: 4, PartsPerMachine: 0}).Validate(); err != nil {
		t.Errorf("Validate rejected PartsPerMachine = 0 (means default): %v", err)
	}
	if got := (Config{Machines: 4, PartsPerMachine: 0}).NumParts(); got != 4 {
		t.Errorf("NumParts with ppm=0 = %d, want 4", got)
	}
}
