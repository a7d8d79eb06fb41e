package main

import (
	"net"
	"sync"
	"sync/atomic"
)

// countingProxy is a loopback TCP relay that counts the connections it
// accepts and the bytes it forwards in both directions. A traced run
// puts one between the driver and the system under test, so wire bytes
// and stub dials are counted where they happen instead of estimated.
type countingProxy struct {
	ln     net.Listener
	target string

	conns atomic.Int64
	bytes atomic.Int64

	mu     sync.Mutex
	open   map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

func newCountingProxy(target string) (*countingProxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &countingProxy{ln: ln, target: target, open: make(map[net.Conn]struct{})}
	p.wg.Add(1)
	go p.accept()
	return p, nil
}

func (p *countingProxy) addr() string { return p.ln.Addr().String() }

func (p *countingProxy) accept() {
	defer p.wg.Done()
	for {
		in, err := p.ln.Accept()
		if err != nil {
			return
		}
		out, err := net.Dial("tcp", p.target)
		if err != nil {
			in.Close()
			continue
		}
		if !p.track(in, out) {
			in.Close()
			out.Close()
			return
		}
		p.conns.Add(1)
		p.wg.Add(2)
		go p.relay(in, out)
		go p.relay(out, in)
	}
}

func (p *countingProxy) track(conns ...net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	for _, c := range conns {
		p.open[c] = struct{}{}
	}
	return true
}

// relay copies src to dst until either side closes, then closes both so
// the opposite relay ends too.
func (p *countingProxy) relay(dst, src net.Conn) {
	defer p.wg.Done()
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			p.bytes.Add(int64(n))
			if _, werr := dst.Write(buf[:n]); werr != nil {
				break
			}
		}
		if err != nil {
			break
		}
	}
	dst.Close()
	src.Close()
	p.mu.Lock()
	delete(p.open, dst)
	delete(p.open, src)
	p.mu.Unlock()
}

func (p *countingProxy) close() {
	p.mu.Lock()
	p.closed = true
	open := p.open
	p.open = map[net.Conn]struct{}{}
	p.mu.Unlock()
	p.ln.Close()
	for c := range open {
		c.Close()
	}
	p.wg.Wait()
}
