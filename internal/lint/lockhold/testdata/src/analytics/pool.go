// Stub of graphsurge/internal/analytics for fixture type-checking.
package analytics

import (
	"context"
	"time"
)

type Runner struct{ ID int }

type Pool struct{}

func (p *Pool) Acquire(ctx context.Context) (*Runner, time.Duration, error) {
	return &Runner{}, 0, nil
}

func (p *Pool) Release(r *Runner) {}
