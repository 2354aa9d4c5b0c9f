package campaign

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestMemoComputesOnce: concurrent callers for one key run fn exactly
// once and all receive the leader's value; forget re-arms the key.
func TestMemoComputesOnce(t *testing.T) {
	var m memo[string, int]
	var runs atomic.Int64
	fn := func() (int, error) { return int(runs.Add(1)) * 10, nil }

	const callers = 32
	start := make(chan struct{})
	got := make([]int, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			v, err := m.do(context.Background(), "k", fn)
			if err != nil {
				t.Error(err)
			}
			got[i] = v
		}()
	}
	close(start)
	wg.Wait()
	if n := runs.Load(); n != 1 {
		t.Fatalf("fn ran %d times, want 1", n)
	}
	for i, v := range got {
		if v != 10 {
			t.Errorf("caller %d got %d, want the leader's 10", i, v)
		}
	}
	if m.len() != 1 {
		t.Errorf("len = %d, want 1", m.len())
	}
	m.forget("k")
	if v, _ := m.do(context.Background(), "k", fn); v != 20 || m.len() != 1 {
		t.Errorf("after forget: got %d (len %d), want a fresh computation 20 (len 1)", v, m.len())
	}
}

// TestMemoPanickingLeaderReleasesWaiters: a leader that panics must not
// strand its waiters — they, and every later caller, receive
// errMemoAborted — while the panic itself reaches the leader's caller.
func TestMemoPanickingLeaderReleasesWaiters(t *testing.T) {
	var m memo[int, string]
	started, release := make(chan struct{}), make(chan struct{})
	leaderPanic := make(chan any, 1)
	go func() {
		defer func() { leaderPanic <- recover() }()
		m.do(context.Background(), 1, func() (string, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()
	<-started

	waiter := make(chan error, 1)
	go func() {
		_, err := m.do(context.Background(), 1, func() (string, error) {
			t.Error("waiter ran fn for a claimed key")
			return "", nil
		})
		waiter <- err
	}()
	close(release)

	if p := <-leaderPanic; p != "boom" {
		t.Errorf("leader recovered %v, want the fn's panic", p)
	}
	if err := <-waiter; !errors.Is(err, errMemoAborted) {
		t.Errorf("waiter err = %v, want errMemoAborted", err)
	}
	if _, err := m.do(context.Background(), 1, nil); !errors.Is(err, errMemoAborted) {
		t.Errorf("later caller err = %v, want errMemoAborted", err)
	}
}

// TestMemoWaiterHonoursContext: a waiter whose context is already done
// returns ctx.Err() without waiting, and the leader's result still lands
// for everyone after.
func TestMemoWaiterHonoursContext(t *testing.T) {
	var m memo[string, int]
	started, release := make(chan struct{}), make(chan struct{})
	leader := make(chan int, 1)
	go func() {
		v, _ := m.do(context.Background(), "k", func() (int, error) {
			close(started)
			<-release
			return 7, nil
		})
		leader <- v
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.do(ctx, "k", nil); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled waiter err = %v, want context.Canceled", err)
	}

	close(release)
	if v := <-leader; v != 7 {
		t.Errorf("leader got %d, want 7", v)
	}
	if v, err := m.do(context.Background(), "k", nil); v != 7 || err != nil {
		t.Errorf("later caller got (%d, %v), want (7, nil)", v, err)
	}
}
