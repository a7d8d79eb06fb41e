package main

import (
	"errors"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"
)

// The reference corrects the benchmark's clock. On the kind of virtual
// machine the baseline was taken on, every microsecond the system under
// test spends in the kernel's network path or waiting for a cross-CPU
// wake-up stretches and shrinks with what the host's other tenants are
// doing — by 15 to 30 %, for tens of seconds to minutes at a time, which
// is longer than a run. Ten runs of identical code then spread by 20 % in
// latency and CPU per operation, and no statistic taken within a run can
// help. So while a measured segment runs, the driver also exchanges a bare
// 8-byte TCP echo with a bench-owned process that shares the system under
// test's CPUs and runs none of the program's code. The echo's median round
// trip is what the platform charges, at that moment, for the cheapest
// possible exchange; a time measured in the same half second is scaled by
// refNominalUS over it, that is, reported as it would have read had the
// platform run at its usual speed. The corrected times held 3 to 10 %
// where the raw ones spread 10 to 30 %. Raw values are printed beside.

// refNominalUS is the round trip times are corrected to: the reference's
// median on the baseline machine over a quiet hour.
const refNominalUS = 70.0

// refRate is how many echoes a second the driver exchanges: enough for a
// steady median in half a second, little enough (about 2 % of a CPU) to
// leave the system under test alone.
const refRate = 250

// hostRef is the ref role: a TCP listener that echoes whatever it reads.
func hostRef() (func(), string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				buf := make([]byte, 64)
				for {
					n, err := c.Read(buf)
					if err != nil {
						return
					}
					if _, err := c.Write(buf[:n]); err != nil {
						return
					}
				}
			}()
		}
	}()
	return func() { ln.Close() }, ln.Addr().String(), nil
}

// reference is the driver's side: the echo process and a connection to it.
type reference struct {
	child *child
	conn  net.Conn
}

func startReference(sb *sandbox) (*reference, error) {
	c, err := spawnNode(sb, nodeSpec{Role: roleRef})
	if err != nil {
		return nil, err
	}
	if len(c.addrs) < 2 {
		c.release()
		return nil, errors.New("bench: the reference announced no echo address")
	}
	conn, err := net.Dial("tcp", c.addrs[1])
	if err != nil {
		c.release()
		return nil, err
	}
	return &reference{child: c, conn: conn}, nil
}

func (r *reference) close() {
	r.conn.Close()
	r.child.release()
}

// during runs fn while exchanging echoes as a Poisson process of refRate,
// one at a time, and returns the median round trip (µs) and how many were
// timed.
func (r *reference) during(fn func()) (float64, int, error) {
	t, err := newTimerFD()
	if err != nil {
		return 0, 0, err
	}
	defer t.close()
	var (
		wg   sync.WaitGroup
		stop = make(chan struct{})
		rtts []float64
		perr error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1)) // the schedule is no input of the program
		var buf [8]byte
		for {
			t.sleep(time.Duration(rng.ExpFloat64() / refRate * float64(time.Second)))
			select {
			case <-stop:
				return
			default:
			}
			sent := time.Now()
			if _, perr = r.conn.Write(buf[:]); perr != nil {
				return
			}
			if _, perr = io.ReadFull(r.conn, buf[:]); perr != nil {
				return
			}
			rtts = append(rtts, float64(time.Since(sent))/float64(time.Microsecond))
		}
	}()
	fn()
	close(stop)
	wg.Wait()
	if perr != nil {
		return 0, 0, perr
	}
	return percentile(rtts, 50), len(rtts), nil
}
