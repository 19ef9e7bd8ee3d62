// Fixture for the poolrelease analyzer: each function is one shape of
// acquire/release flow; `want` comments mark the leaks it must report.
package a

import (
	"context"
	"errors"

	"analytics"
)

var sink *analytics.Runner

// deferRelease is the canonical clean shape.
func deferRelease(ctx context.Context, p *analytics.Pool) error {
	r, _, err := p.Acquire(ctx)
	if err != nil {
		return err
	}
	defer p.Release(r)
	return r.Step()
}

// linearRelease releases on the single path through the function.
func linearRelease(ctx context.Context, p *analytics.Pool) {
	r, _, err := p.Acquire(ctx)
	if err != nil {
		return
	}
	_ = r.Step()
	p.Release(r)
}

// earlyReturnLeak exits between acquire and release.
func earlyReturnLeak(ctx context.Context, p *analytics.Pool, bad bool) error {
	r, _, err := p.Acquire(ctx) // want `replica acquired from analytics\.Pool\.Acquire is not released on every path`
	if err != nil {
		return err
	}
	if bad {
		return errors.New("forgot the replica")
	}
	p.Release(r)
	return nil
}

// branchRelease releases on both arms.
func branchRelease(ctx context.Context, p *analytics.Pool, fast bool) {
	r, _, err := p.Acquire(ctx)
	if err != nil {
		return
	}
	if fast {
		p.Release(r)
	} else {
		_ = r.Step()
		p.Release(r)
	}
}

// oneArmLeak releases on only one arm and falls off the end.
func oneArmLeak(ctx context.Context, p *analytics.Pool, fast bool) {
	r, _, err := p.Acquire(ctx) // want `replica acquired from analytics\.Pool\.Acquire is not released on every path`
	if err != nil {
		return
	}
	if fast {
		p.Release(r)
	}
}

// ifInitGuard acquires in an if-init and releases in the success body,
// clean.
func ifInitGuard(ctx context.Context, p *analytics.Pool) {
	if r, _, err := p.Acquire(ctx); err == nil {
		defer p.Release(r)
		_ = r.Step()
	}
}

// ifInitLeak claims a slot in the success body and never returns it.
func ifInitLeak(ctx context.Context, p *analytics.Pool) {
	if r, _, err := p.Acquire(ctx); err == nil { // want `replica acquired from analytics\.Pool\.Acquire is not released on every path`
		_ = r.Step()
	}
}

// discarded can never be released.
func discarded(ctx context.Context, p *analytics.Pool) {
	p.Acquire(ctx) // want `result of analytics\.Pool\.Acquire is discarded`
}

// blankRunner throws the runner away but keeps the setup duration.
func blankRunner(ctx context.Context, p *analytics.Pool) {
	_, d, _ := p.Acquire(ctx) // want `runner from analytics\.Pool\.Acquire assigned to the blank identifier`
	_ = d
}

// escapeReturn transfers ownership to the caller: not this function's leak.
func escapeReturn(ctx context.Context, p *analytics.Pool) (*analytics.Runner, error) {
	r, _, err := p.Acquire(ctx)
	if err != nil {
		return nil, err
	}
	return r, nil
}

// escapeStore parks the runner in package state; released elsewhere.
func escapeStore(ctx context.Context, p *analytics.Pool) {
	r, _, err := p.Acquire(ctx)
	if err != nil {
		return
	}
	sink = r
}

// loopPerIteration releases inside each iteration, clean.
func loopPerIteration(ctx context.Context, p *analytics.Pool, n int) {
	for i := 0; i < n; i++ {
		r, _, err := p.Acquire(ctx)
		if err != nil {
			return
		}
		_ = r.Step()
		p.Release(r)
	}
}

// loopContinueLeak abandons an iteration's runner on continue.
func loopContinueLeak(ctx context.Context, p *analytics.Pool, n int) {
	for i := 0; i < n; i++ {
		r, _, err := p.Acquire(ctx) // want `replica acquired from analytics\.Pool\.Acquire is not released on every path`
		if err != nil {
			return
		}
		if r.Step() != nil {
			continue
		}
		p.Release(r)
	}
}

// breakThenRelease exits the loop first and releases after it, clean.
func breakThenRelease(ctx context.Context, p *analytics.Pool, n int) {
	r, _, err := p.Acquire(ctx)
	if err != nil {
		return
	}
	for i := 0; i < n; i++ {
		if r.Step() == nil {
			break
		}
	}
	p.Release(r)
}

// selectRelease releases in every comm case, clean.
func selectRelease(ctx context.Context, p *analytics.Pool, done chan struct{}) {
	r, _, err := p.Acquire(ctx)
	if err != nil {
		return
	}
	select {
	case <-done:
		p.Release(r)
	case <-ctx.Done():
		p.Release(r)
	}
}
