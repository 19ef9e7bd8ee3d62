// Stub of graphsurge/internal/analytics for fixture type-checking: the
// analyzer matches methods on a type named Pool in a package whose import
// path ends in "analytics", so this shape is all it needs.
package analytics

import (
	"context"
	"time"
)

type Runner struct{ ID int }

func (r *Runner) Step() error { return nil }

type Pool struct{}

func (p *Pool) Acquire(ctx context.Context) (*Runner, time.Duration, error) {
	return &Runner{}, 0, nil
}

func (p *Pool) Release(r *Runner) {}
