package srpc

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestSequentialCallsReuseSpares: once a connection has a spare parked,
// each request's read side goes to it, so back-to-back calls start no
// goroutines.
func TestSequentialCallsReuseSpares(t *testing.T) {
	s := newServer(t)
	c := dial(t, s)
	call := func() {
		t.Helper()
		if err := c.Call("add", addParams{A: 1, B: 2}, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		call()
	}
	before := s.readersStarted.Load()
	for i := 0; i < 1000; i++ {
		call()
	}
	if n := s.readersStarted.Load() - before; n > 2 {
		t.Fatalf("1000 sequential calls started %d reader goroutines, want at most 2", n)
	}
}

// settledGoroutines polls runtime.NumGoroutine until cond holds for it,
// failing after a few seconds.
func settledGoroutines(t *testing.T, what string, cond func(n int) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if cond(n) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines", what, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// slowBurst runs n concurrent "slow" calls on c to completion, so n
// goroutines serve at once on the server and then park or exit.
func slowBurst(t *testing.T, c *Client, n int) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.Call("slow", struct{}{}, nil); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSparesEndWithConnection: a burst leaves maxSpares goroutines
// parked on its connection; closing the client ends them, and
// Server.Close returns while another connection's spares are parked.
func TestSparesEndWithConnection(t *testing.T) {
	s := newServer(t)
	base := runtime.NumGoroutine()
	c, err := Dial(s.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	slowBurst(t, c, 64)
	c.Close()
	settledGoroutines(t, "after the client closed", func(n int) bool { return n <= base })

	c = dial(t, s)
	if err := c.Call("add", addParams{}, nil); err != nil {
		t.Fatal(err)
	}
	// One reader and the spare that served the call.
	dialed := runtime.NumGoroutine()
	slowBurst(t, c, 64)
	settledGoroutines(t, "spares parked after the burst", func(n int) bool { return n == dialed+maxSpares-1 })
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Server.Close did not return with spares parked")
	}
}

// deepStack recurses n frames with a 256-byte local each, so a handler
// that calls it grows its goroutine's stack well past the 2 KB start.
//
//go:noinline
func deepStack(n int) byte {
	var pad [256]byte
	pad[n%len(pad)] = byte(n)
	if n == 0 {
		return pad[0]
	}
	return deepStack(n-1) ^ pad[(n*7)%len(pad)]
}

// BenchmarkCallSequential times one client's back-to-back calls: null
// runs an empty handler, deep one whose stack grows to ~20 KB, which a
// request pays again whenever it runs on a fresh goroutine.
func BenchmarkCallSequential(b *testing.B) {
	s := NewServer()
	HandleFunc(s, "null", func(struct{}) (any, error) { return nil, nil })
	HandleFunc(s, "deep", func(struct{}) (any, error) { return int(deepStack(64)), nil })
	if err := s.Listen("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr(), 5*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	for _, method := range []string{"null", "deep"} {
		b.Run(method, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.Call(method, nil, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
