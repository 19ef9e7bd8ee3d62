package analytics

import (
	"context"
	"sync"
	"time"

	"graphsurge/internal/obs"
)

// Pool hands out up to its size in concurrently live runner replicas for one
// computation. It is the admission control for segment-level parallelism —
// Acquire blocks while all replica slots are busy, so at most `size`
// dataflows are stepping at once — and the warm-replica cache for an engine:
// released runners are kept idle and recycled by later acquires, amortizing
// dataflow construction across segments, RunCollection calls and concurrent
// callers.
//
// Reuse is Runner.Reset, which is in place: it drops operator traces, pending
// work and the captured answer through dataflow.Scope.ResetState without
// reconstructing the dataflow graph, so recycling a runner skips graph
// construction entirely — the infrastructure-reuse optimization the paper's
// shared-dataflow design motivates (§5). Because the graph (including the
// computation's fused operator closures) is reused, Reset can only restore
// runners whose Computation.Build wired stateless operator functions; state
// hidden in closures survives a reset.
//
// All methods are safe for concurrent use.
type Pool struct {
	comp    Computation
	workers int

	mu   sync.Mutex
	cond *sync.Cond
	size int
	live int
	idle []Runner // warm replicas waiting for reuse

	built  int // runners constructed from scratch
	reused int // acquisitions served by resetting an idle runner
}

// NewPool creates a pool of up to size replicas (minimum 1), each built with
// the given intra-dataflow worker count.
func NewPool(comp Computation, workers, size int) *Pool {
	if size < 1 {
		size = 1
	}
	p := &Pool{comp: comp, workers: workers, size: size}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// Computation returns the computation the pool builds replicas for.
func (p *Pool) Computation() Computation { return p.comp }

// Size returns the current replica capacity.
func (p *Pool) Size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.size
}

// Grow raises the replica capacity to at least size. Capacity never shrinks:
// concurrent runs admitted under a larger capacity keep their slots, and an
// engine-level pool serves the largest parallelism any caller asked for.
func (p *Pool) Grow(size int) {
	p.mu.Lock()
	if size > p.size {
		p.size = size
		p.cond.Broadcast()
	}
	p.mu.Unlock()
}

// Live returns the number of currently acquired replica slots.
func (p *Pool) Live() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.live
}

// Idle returns the number of warm replicas waiting for reuse.
func (p *Pool) Idle() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle)
}

// Counts reports how many acquisitions built a runner from scratch and how
// many were served by resetting a warm replica — the pool's effectiveness
// metric (BenchmarkPoolReuse measures the per-acquisition gap).
func (p *Pool) Counts() (built, reused int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.built, p.reused
}

// DropIdle discards all warm replicas, keeping acquired slots valid. An
// engine evicting a pool uses it to release runner memory immediately
// rather than waiting for the pool itself to be collected.
func (p *Pool) DropIdle() {
	p.mu.Lock()
	p.idle = nil
	p.mu.Unlock()
}

// Acquire blocks until a replica slot frees and returns a runner ready for a
// from-scratch run, together with the time spent building or resetting it.
// That setup time is part of the cost of splitting (the executor folds it
// into the seed view's duration, as the sequential executor measured runner
// construction); time spent waiting for a slot is scheduling, not splitting
// cost, and is excluded.
//
// The wait is bounded by ctx: a caller canceled while queued for a slot
// returns ctx's error without claiming one, which is what lets a canceled
// run drain instead of deadlocking behind the replicas it will never get.
func (p *Pool) Acquire(ctx context.Context) (Runner, time.Duration, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	// The condition variable has no channel to select on, so cancellation is
	// delivered as a broadcast: every waiter wakes, re-checks its own ctx,
	// and the canceled one leaves the queue.
	stop := context.AfterFunc(ctx, func() {
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
	})
	defer stop()
	p.mu.Lock()
	for p.live >= p.size {
		if err := ctx.Err(); err != nil {
			p.mu.Unlock()
			return nil, 0, err
		}
		p.cond.Wait()
	}
	p.live++
	// Pop the most recently released replica: hottest caches.
	r := p.popIdle()
	p.mu.Unlock()

	// The popped warm replica (possibly nil) is reset in place, falling
	// through to a fresh build when there is none or the reset fails (the
	// broken runner is dropped). On build failure the claimed slot is
	// returned to the pool.
	start := time.Now()
	if r != nil {
		if err := r.Reset(p.comp); err == nil {
			p.mu.Lock()
			p.reused++
			p.mu.Unlock()
			obs.M.PoolReused.Inc()
			return r, time.Since(start), nil
		}
	}
	r, err := NewRunner(p.comp, p.workers)
	if err != nil {
		p.mu.Lock()
		p.live--
		p.cond.Signal()
		p.mu.Unlock()
		return nil, 0, err
	}
	p.mu.Lock()
	p.built++
	p.mu.Unlock()
	obs.M.PoolBuilt.Inc()
	return r, time.Since(start), nil
}

// popIdle takes the most recently released warm replica, if any, zeroing
// the vacated slot so the backing array never pins a runner DropIdle later
// lets go of. Caller holds p.mu.
func (p *Pool) popIdle() Runner {
	n := len(p.idle)
	if n == 0 {
		return nil
	}
	r := p.idle[n-1]
	p.idle[n-1] = nil
	p.idle = p.idle[:n-1]
	return r
}

// Release returns the runner's slot to the pool and keeps the runner warm
// for reuse by a later Acquire, parked (Runner.Park) so an idle replica holds
// no exchange columns of a difference set. The caller must be done reading
// the runner — the next Acquire resets it.
func (p *Pool) Release(r Runner) {
	r.Park()
	p.mu.Lock()
	p.idle = append(p.idle, r)
	p.live--
	p.cond.Signal()
	p.mu.Unlock()
}
