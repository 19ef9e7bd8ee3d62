// Fixture for the lockhold analyzer: blocking operations under a held
// sync.Mutex/RWMutex are reported; unlock-then-block and sync.Cond.Wait
// are fine. The package path internal/core puts the fixture
// in the analyzer's scope.
package core

import (
	"context"
	"sync"
	"time"

	"analytics"
	"net/rpc"
)

type engine struct {
	mu    sync.Mutex
	state int
	ch    chan int
	pool  *analytics.Pool
	cli   *rpc.Client
}

func (e *engine) goodSnapshot() int {
	e.mu.Lock()
	v := e.state
	e.mu.Unlock()
	e.ch <- v // after the unlock: fine
	return v
}

func (e *engine) sendUnderDefer() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ch <- 1 // want `blocking channel send while holding e\.mu`
}

func (e *engine) sleepUnderLock() {
	e.mu.Lock()
	time.Sleep(time.Millisecond) // want `blocking time\.Sleep while holding e\.mu`
	e.mu.Unlock()
}

func (e *engine) acquireUnderLock(ctx context.Context) {
	e.mu.Lock()
	defer e.mu.Unlock()
	r, _, err := e.pool.Acquire(ctx) // want `blocking analytics\.Pool\.Acquire while holding e\.mu`
	if err == nil {
		e.pool.Release(r)
	}
}

func (e *engine) rpcUnderLock() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cli.Call("Worker.Ping", 1, nil) // want `blocking rpc\.Client\.Call while holding e\.mu`
}

func (e *engine) branchScoped() {
	e.mu.Lock()
	if e.state > 0 {
		e.mu.Unlock()
		e.ch <- 1 // this branch unlocked first: fine
		return
	}
	e.mu.Unlock()
}

func (e *engine) recvUnderRead(rw *sync.RWMutex) int {
	rw.RLock()
	v := <-e.ch // want `blocking channel receive while holding rw`
	rw.RUnlock()
	return v
}

func (e *engine) selectNoDefault(done chan struct{}) {
	e.mu.Lock()
	defer e.mu.Unlock()
	select { // want `blocking select with no default case while holding e\.mu`
	case <-done:
	case e.ch <- 1:
	}
}

func (e *engine) selectWithDefault() {
	e.mu.Lock()
	defer e.mu.Unlock()
	select {
	case e.ch <- 1: // a ready send inside a default-guarded select: fine
	default:
	}
}

func (e *engine) rangeChanUnderLock() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for v := range e.ch { // want `blocking range over a channel while holding e\.mu`
		e.state += v
	}
}

func (e *engine) condWait(c *sync.Cond) {
	c.L.Lock()
	for e.state == 0 {
		c.Wait() // sync.Cond.Wait holds its mutex by design: fine
	}
	c.L.Unlock()
}

func (e *engine) wgUnderLock(wg *sync.WaitGroup) {
	e.mu.Lock()
	wg.Wait() // want `blocking sync\.WaitGroup\.Wait while holding e\.mu`
	e.mu.Unlock()
}

func (e *engine) goroutineNotUnderLock() {
	e.mu.Lock()
	defer e.mu.Unlock()
	go func() {
		e.ch <- 1 // runs outside the caller's critical section: fine
	}()
}

func (e *engine) annotated() {
	e.mu.Lock()
	defer e.mu.Unlock()
	//lint:ignore lockhold startup handshake is deliberately serialized under the roster lock
	time.Sleep(time.Millisecond)
}

func (e *engine) badAnnotation() {
	e.mu.Lock()
	defer e.mu.Unlock()
	//lint:ignore lockhold // want `malformed //lint:ignore directive: missing reason`
	time.Sleep(time.Millisecond) // want `blocking time\.Sleep while holding e\.mu`
}
