package campaign

import (
	"context"
	"errors"
	"sync"
)

// errMemoAborted is what a memo's waiters receive when the leader's
// computation panicked instead of returning.
var errMemoAborted = errors.New("campaign: memo leader aborted before completing")

// memo is the campaign's one compute-once primitive: the first caller for
// a key (the leader) runs fn, and every other caller for that key, then or
// later, receives the leader's value and error. Errors are kept too: the
// simulator is deterministic, so a failed computation fails identically
// for everyone sharing its key. The zero value is ready to use.
type memo[K comparable, V any] struct {
	mu    sync.Mutex
	calls map[K]*memoCall[V]
}

type memoCall[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// do returns key's value, running fn only when no caller has claimed key
// before. A waiter whose ctx ends first returns ctx.Err() and leaves the
// leader computing. If fn panics, done still closes — waiters receive
// errMemoAborted rather than deadlocking — and the panic propagates to
// the leader's caller.
func (m *memo[K, V]) do(ctx context.Context, key K, fn func() (V, error)) (V, error) {
	m.mu.Lock()
	if c, ok := m.calls[key]; ok {
		m.mu.Unlock()
		select {
		case <-c.done:
			return c.val, c.err
		case <-ctx.Done():
			var zero V
			return zero, ctx.Err()
		}
	}
	if m.calls == nil {
		m.calls = make(map[K]*memoCall[V])
	}
	c := &memoCall[V]{done: make(chan struct{}), err: errMemoAborted}
	m.calls[key] = c
	m.mu.Unlock()

	defer close(c.done)
	c.val, c.err = fn()
	return c.val, c.err
}

// forget drops key's entry, so the next caller computes afresh.
func (m *memo[K, V]) forget(key K) {
	m.mu.Lock()
	delete(m.calls, key)
	m.mu.Unlock()
}

// len returns the number of keys claimed so far, finished or not.
func (m *memo[K, V]) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.calls)
}
