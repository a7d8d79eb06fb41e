package main

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// maxInFlight caps concurrent open-loop operations. An arrival that
// finds the cap reached is refused and counts as failed: a backlog that
// deep — over a second of arrivals at the highest rate offered — means
// the system under test has stopped keeping up. (A cap of 512 was
// tripped by the virtual machine's own freezes, which run past 100 ms.)
const maxInFlight = 4096

// loadStats is what one load phase observed.
type loadStats struct {
	attempted int
	failed    int // errors, wrong answers and refused arrivals
	elapsed   time.Duration
	// late holds, per arrival, how long after its due time the generator
	// dispatched it (µs); empty for closed loops.
	late []float64
	// firstErr is the first operation error, for the report.
	firstErr error
}

func (s loadStats) completed() int { return s.attempted - s.failed }

// opFunc runs one operation to completion and checks its answer. u is
// the operation's share of the seeded random stream; caller identifies
// the closed-loop caller (0 for open loops).
type opFunc func(caller int, u uint64) error

// openLoop offers operations as a Poisson process of the given rate for
// dur, regardless of how fast they complete — independent users. Each
// latency is timed from the operation's due time, so a stall in the
// generator or the system shows up in every operation it delayed. rec
// may be nil (warm-up).
type openLoop struct {
	rate float64
	dur  time.Duration
	rng  *rand.Rand
	// clock replaces the wall clock and its timer; tests inject stalls.
	clock pacer
}

// pacer is the clock an open loop runs by.
type pacer interface {
	now() time.Time
	// sleep waits out the gap to the next arrival.
	sleep(time.Duration)
}

func (l openLoop) run(rec *windows, op opFunc) loadStats {
	clock := l.clock
	if clock == nil {
		t, err := newTimerFD()
		if err != nil {
			return loadStats{firstErr: err}
		}
		defer t.close()
		clock = t
	}
	var (
		st       loadStats
		inFlight atomic.Int64
		failed   atomic.Int64
		errOnce  sync.Once
		wg       sync.WaitGroup
	)
	start := clock.now()
	end := start.Add(l.dur)
	due := start
	for {
		gap := time.Duration(l.rng.ExpFloat64() / l.rate * float64(time.Second))
		due = due.Add(gap)
		if due.After(end) {
			break
		}
		u := l.rng.Uint64()
		if d := due.Sub(clock.now()); d > 0 {
			clock.sleep(d)
		}
		st.attempted++
		st.late = append(st.late, float64(clock.now().Sub(due))/float64(time.Microsecond))
		if inFlight.Load() >= maxInFlight {
			failed.Add(1)
			continue
		}
		inFlight.Add(1)
		wg.Add(1)
		go func(due time.Time, u uint64) {
			defer wg.Done()
			err := op(0, u)
			us := float64(clock.now().Sub(due)) / float64(time.Microsecond)
			inFlight.Add(-1)
			if err != nil {
				failed.Add(1)
				errOnce.Do(func() { st.firstErr = err })
				return
			}
			if rec != nil {
				rec.add(due, us)
			}
		}(due, u)
	}
	wg.Wait()
	st.elapsed = clock.now().Sub(start)
	st.failed = int(failed.Load())
	return st
}

// closedLoop runs callers goroutines that each issue their next
// operation only after the previous one completed — callers that wait
// for a reply — for dur. Latency is timed from the send.
func closedLoop(callers int, dur time.Duration, seed int64, rec *windows, op opFunc) loadStats {
	var (
		st        loadStats
		attempted atomic.Int64
		failed    atomic.Int64
		errOnce   sync.Once
		wg        sync.WaitGroup
	)
	start := time.Now()
	end := start.Add(dur)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(c)))
			for {
				sent := time.Now()
				if !sent.Before(end) {
					return
				}
				attempted.Add(1)
				err := op(c, rng.Uint64())
				if err != nil {
					failed.Add(1)
					errOnce.Do(func() { st.firstErr = err })
					continue
				}
				if rec != nil {
					rec.add(sent, float64(time.Since(sent))/float64(time.Microsecond))
				}
			}
		}(c)
	}
	wg.Wait()
	st.elapsed = time.Since(start)
	st.attempted = int(attempted.Load())
	st.failed = int(failed.Load())
	return st
}

// timerFD paces the open loop. time.Sleep parks a goroutine on the
// runtime's timers, which an otherwise idle Go process polls at
// millisecond granularity — too coarse for arrivals a third of a
// millisecond apart — and sleeping in a raw syscall would hold the
// goroutine's processor hostage. A timerfd read through the runtime's
// network poller does neither: the goroutine parks, and epoll wakes it
// when the kernel's high-resolution timer fires.
type timerFD struct {
	fd uintptr // f.Fd() would switch the descriptor to blocking mode
	f  *os.File
}

func newTimerFD() (*timerFD, error) {
	const (
		clockMonotonic = 1
		tfdNonblock    = 0x800
		tfdCloexec     = 0x80000
	)
	fd, _, errno := syscall.RawSyscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &timerFD{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

// sleep arms the timer for d from now and waits for it to fire.
func (t *timerFD) sleep(d time.Duration) {
	// struct itimerspec: interval (zero: one shot), then value.
	spec := [2]syscall.Timespec{{}, syscall.NsecToTimespec(int64(d))}
	_, _, errno := syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, t.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	if errno != 0 {
		time.Sleep(d)
		return
	}
	var expirations [8]byte
	_, _ = t.f.Read(expirations[:])
}

func (t *timerFD) now() time.Time { return time.Now() }

func (t *timerFD) close() { _ = t.f.Close() }
