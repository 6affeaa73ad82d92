package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Named job lifecycle errors. statusOf maps them to status codes (429 for
// ErrQueueFull, 503 for ErrDraining); ErrShutdown lands in the Error
// field of every job the drain rejected.
var (
	// ErrQueueFull rejects a submission when the bounded queue is at
	// capacity — the server sheds load instead of growing goroutines.
	ErrQueueFull = errors.New("service: job queue full")
	// ErrDraining rejects submissions made after Shutdown began.
	ErrDraining = errors.New("service: server draining; not accepting jobs")
	// ErrShutdown marks queued jobs the drain rejected before they ran.
	ErrShutdown = errors.New("service: shutdown rejected queued job")
)

// JobStatus is a partition job's lifecycle state.
type JobStatus string

// Job lifecycle: queued → running → done|failed; queued jobs become
// rejected when the server drains before they start.
const (
	JobQueued   JobStatus = "queued"
	JobRunning  JobStatus = "running"
	JobDone     JobStatus = "done"
	JobFailed   JobStatus = "failed"
	JobRejected JobStatus = "rejected"
)

// Job is one asynchronous partitioning: submitted with POST /v1/jobs,
// polled at GET /v1/jobs/{id}. Quality fields are set once Status is
// done.
type Job struct {
	ID       string    `json:"id"`
	Dataset  string    `json:"dataset"`
	Strategy string    `json:"strategy"`
	Parts    int       `json:"parts"`
	Status   JobStatus `json:"status"`
	Error    string    `json:"error,omitempty"`

	Edges             int64   `json:"edges,omitempty"`
	Vertices          int     `json:"vertices,omitempty"`
	ReplicationFactor float64 `json:"replicationFactor,omitempty"`
	EdgeBalance       float64 `json:"edgeBalance,omitempty"`
	Seconds           float64 `json:"seconds,omitempty"`
}

// jobRunner is the bounded asynchronous executor: a fixed worker pool
// pulls from a capacity-capped pending list. No goroutine is created per
// job, so a submission burst can only ever fill the queue (and then be
// 429'd), never exhaust the process.
type jobRunner struct {
	srv      *Server
	capacity int

	mu       sync.Mutex
	cond     *sync.Cond
	byID     map[string]*Job
	order    []string // submission order, for GET /v1/jobs
	pending  []*Job
	seq      int
	draining bool

	workers sync.WaitGroup
}

func newJobRunner(srv *Server, capacity, workers int) *jobRunner {
	r := &jobRunner{srv: srv, capacity: capacity, byID: map[string]*Job{}}
	r.cond = sync.NewCond(&r.mu)
	r.workers.Add(workers)
	for i := 0; i < workers; i++ {
		go r.worker()
	}
	return r
}

// submit validates capacity and enqueues; the key is already validated,
// so queue rejections are the only failure mode here.
func (r *jobRunner) submit(k cutKey) (Job, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.draining {
		return Job{}, ErrDraining
	}
	if len(r.pending) >= r.capacity {
		return Job{}, ErrQueueFull
	}
	r.seq++
	j := &Job{
		ID:       fmt.Sprintf("job-%d", r.seq),
		Dataset:  k.name,
		Strategy: k.strategy,
		Parts:    k.parts,
		Status:   JobQueued,
	}
	r.byID[j.ID] = j
	r.order = append(r.order, j.ID)
	r.pending = append(r.pending, j)
	r.cond.Signal()
	return *j, nil
}

// get returns a snapshot of one job.
func (r *jobRunner) get(id string) (Job, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.byID[id]
	if !ok {
		return Job{}, false
	}
	return *j, true
}

// list returns snapshots of every job in submission order.
func (r *jobRunner) list() []Job {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Job, 0, len(r.order))
	for _, id := range r.order {
		out = append(out, *r.byID[id])
	}
	return out
}

// worker pulls pending jobs until the drain starts. A worker mid-job
// finishes it (run happens outside the lock) and only then observes
// draining and exits.
func (r *jobRunner) worker() {
	defer r.workers.Done()
	for {
		r.mu.Lock()
		for len(r.pending) == 0 && !r.draining {
			r.cond.Wait()
		}
		if r.draining {
			r.mu.Unlock()
			return
		}
		j := r.pending[0]
		r.pending = r.pending[1:]
		j.Status = JobRunning
		r.mu.Unlock()
		r.run(j)
	}
}

// run executes one job through the server's singleflight assignment
// cache, so a completed job warms the assignment endpoint for free.
func (r *jobRunner) run(j *Job) {
	start := time.Now()
	c, err := r.srv.assignment(context.Background(), time.Time{}, cutKey{j.Dataset, j.Strategy, j.Parts})
	elapsed := time.Since(start)
	r.mu.Lock()
	defer r.mu.Unlock()
	j.Seconds = elapsed.Seconds()
	if err != nil {
		j.Status = JobFailed
		j.Error = err.Error()
		return
	}
	j.Status = JobDone
	a := c.v
	j.Edges = int64(a.G.NumEdges())
	j.Vertices = a.G.NumVertices()
	j.ReplicationFactor = a.ReplicationFactor()
	j.EdgeBalance = a.EdgeBalance()
}

// shutdown starts the drain: queued jobs are rejected with ErrShutdown,
// running jobs complete, and workers exit. Returns ctx.Err() if the
// inflight jobs outlive the context.
func (r *jobRunner) shutdown(ctx context.Context) error {
	r.mu.Lock()
	r.draining = true
	for _, j := range r.pending {
		j.Status = JobRejected
		j.Error = ErrShutdown.Error()
	}
	r.pending = nil
	r.cond.Broadcast()
	r.mu.Unlock()

	done := make(chan struct{})
	go func() {
		r.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: drain incomplete: %w", ctx.Err())
	}
}
