package pool

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSubmitRunsEverything(t *testing.T) {
	p := New(4, 0)
	defer p.Close()
	var n atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 200; i++ {
		wg.Add(1)
		if err := p.Submit(context.Background(), func() {
			defer wg.Done()
			n.Add(1)
		}); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	wg.Wait()
	if got := n.Load(); got != 200 {
		t.Fatalf("ran %d tasks, want 200", got)
	}
	// A worker updates the counters after its task returns, so wait for the
	// workers to exit before reading them.
	p.Close()
	if p.Submitted() != 200 || p.Completed() != 200 {
		t.Fatalf("counters submitted=%d completed=%d, want 200/200", p.Submitted(), p.Completed())
	}
	if d := p.Depth(); d != 0 {
		t.Fatalf("queue depth %d after drain, want 0", d)
	}
}

func TestSubmitAfterClose(t *testing.T) {
	p := New(1, 0)
	p.Close()
	err := p.Submit(context.Background(), func() {})
	if !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Submit after Close = %v, want ErrPoolClosed", err)
	}
	if err != ErrClosed { // the legacy name must stay comparable
		t.Fatalf("Submit after Close = %v, not identical to ErrClosed", err)
	}
	if ok := p.TrySubmit(func() {}); ok {
		t.Fatal("TrySubmit after Close succeeded")
	}
}

func TestSubmitHonorsContext(t *testing.T) {
	// One worker wedged on a blocker and a full queue: Submit must give up
	// when the context is canceled instead of blocking forever.
	p := New(1, 1)
	defer p.Close()
	release := make(chan struct{})
	if err := p.Submit(context.Background(), func() { <-release }); err != nil {
		t.Fatalf("Submit blocker: %v", err)
	}
	for !p.TrySubmit(func() {}) { // fill the queue
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	if err := p.Submit(ctx, func() {}); err != context.Canceled {
		t.Fatalf("Submit on canceled ctx = %v, want context.Canceled", err)
	}
	close(release)
}

func TestCloseWaitsForQueued(t *testing.T) {
	p := New(2, 0)
	var n atomic.Int64
	for i := 0; i < 50; i++ {
		if err := p.Submit(context.Background(), func() { n.Add(1) }); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	p.Close()
	if got := n.Load(); got != 50 {
		t.Fatalf("Close returned with %d/50 tasks run", got)
	}
	p.Close() // idempotent
}

func TestConcurrentSubmitAndClose(t *testing.T) {
	// Hammer Submit from many goroutines while Close races in; no sends on
	// a closed channel, every accepted task runs, and every rejection is
	// the typed ErrPoolClosed — never a panic or an untyped error (run
	// with -race).
	p := New(4, 8)
	var accepted, ran, rejected atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				switch err := p.Submit(context.Background(), func() { ran.Add(1) }); {
				case err == nil:
					accepted.Add(1)
				case errors.Is(err, ErrPoolClosed):
					rejected.Add(1)
				default:
					t.Errorf("Submit racing Close = %v, want nil or ErrPoolClosed", err)
				}
			}
		}()
	}
	time.Sleep(2 * time.Millisecond)
	p.Close()
	wg.Wait()
	if accepted.Load()+rejected.Load() != 16*100 {
		t.Fatalf("accepted %d + rejected %d != %d submits", accepted.Load(), rejected.Load(), 16*100)
	}
	// Close blocks until workers drain, but tasks accepted after Close
	// started returning are impossible; all accepted tasks must have run.
	deadline := time.Now().Add(5 * time.Second)
	for ran.Load() != accepted.Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if ran.Load() != accepted.Load() {
		t.Fatalf("accepted %d tasks but ran %d", accepted.Load(), ran.Load())
	}
}

func TestDefaultSizes(t *testing.T) {
	p := New(0, 0)
	defer p.Close()
	if p.Workers() < 1 {
		t.Fatalf("Workers() = %d, want >= 1", p.Workers())
	}
}
