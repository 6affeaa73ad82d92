package main

import (
	"sync"
	"time"
)

// probe is a fixed piece of work, timed immediately before and after
// every pass, that pass times are divided by.
//
// The reference box is a two-vCPU VM on a shared host. For seconds to
// minutes at a time its second vCPU runs at a fraction of the first, or a
// neighbour's memory traffic slows every load: eight-second windows of
// one unchanged workload, taken one after the other in one process,
// differed by up to 50% in their median pass time and by up to 40% in
// their fastest. No statistic of a run's own pass times removes that,
// because the whole run sits inside the slow spell. The probe sits inside
// it too: W goroutines, each a dependent multiply-add chain (what the
// cores give) followed by pseudo-random reads of one 32 MiB array (what
// the memory system gives, in the access pattern of a gather over a
// graph). The ratio of a pass to the probes around it moves several times
// less than the pass does when the box is noisy, and about as much as the
// fastest pass does when it is quiet.
type probe struct {
	data []float64
	sink []float64
}

// probeNominalSeconds is what one probe takes on the reference box when
// the box is quiet. setup_s has to be in seconds, so a set-up's cost in
// probes is multiplied by it: seconds as the quiet box would have taken.
const probeNominalSeconds = 0.006

const (
	probeElements = 4 << 20   // 32 MiB of float64
	probeSpins    = 2_000_000 // multiply-adds per goroutine
	probeReads    = 300_000   // array reads per goroutine
)

func newProbe() *probe {
	p := &probe{data: make([]float64, probeElements), sink: make([]float64, 64)}
	for i := range p.data {
		p.data[i] = float64(i)
	}
	return p
}

// bytes is what the probe adds to the live heap.
func (p *probe) bytes() uint64 { return 8 * uint64(len(p.data)+len(p.sink)) }

// run times one probe on the given number of goroutines, in seconds.
func (p *probe) run(workers int) float64 {
	t0 := time.Now()
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x, s := uint64(k)*7919+1, 0.0
			for i := 0; i < probeSpins; i++ {
				x = x*6364136223846793005 + 1442695040888963407
			}
			for i := 0; i < probeReads; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				s += p.data[(x>>33)%probeElements]
			}
			p.sink[k%len(p.sink)] = s
		}()
	}
	wg.Wait()
	return time.Since(t0).Seconds()
}
