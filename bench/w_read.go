package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"time"

	"sensorcer/internal/remote"
	"sensorcer/internal/srpc"
	"sensorcer/internal/wire"
)

// read_poll: the paper's Fig. 3 read, polled. 3000 requests a second
// over two remote.AccessorClients: 80 % read an on-demand ESP, 20 % read
// Fig3-Composite, which averages two local ESPs, a local sub-composite
// and one ESP in a second process. srpc and remote do nearly all the
// work, sensor and expr almost none, and the composite's tree makes its
// slowest child set the tail.
const (
	readRate     = 3000
	readESPShare = 80 // percent of reads that go to the ESP
)

// Read classes, which are also the two connections.
const (
	classESP = iota
	classComposite
)

var readClassNames = [2]string{"esp", "composite"}

type readPoll struct {
	leaf, main *child
	proxy      *countingProxy
	clients    [2]*remote.AccessorClient
	ctl        *srpc.Client
	want       [2]float64
	rec        classRecorder

	tr    *tracer
	calls [2]atomic.Uint64
}

func (w *readPoll) setup(sb *sandbox, rng *rand.Rand, trace bool) error {
	values := make([]float64, readValues)
	for i := range values {
		// Two decimals: exact at the wire quantum.
		values[i] = math.Round((15+rng.Float64()*20)*100) / 100
	}
	w.want[classESP], w.want[classComposite] = expectedRead(values)
	var err error
	if w.leaf, err = spawnNode(sb, nodeSpec{Role: roleLeaf, Values: values[readValues-1:]}); err != nil {
		return err
	}
	if w.main, err = spawnNode(sb, nodeSpec{Role: roleRead, Trace: trace, Values: values, LeafAddr: w.leaf.addr}); err != nil {
		return err
	}
	addr := w.main.addr
	if trace {
		w.tr = &tracer{}
		if w.proxy, err = newCountingProxy(addr); err != nil {
			return err
		}
		addr = w.proxy.addr()
	}
	for class, svc := range []string{svcESP, svcComposite} {
		desc := remote.ProxyDesc{Kind: remote.AccessorKind, Locator: addr, Service: svc}
		if w.clients[class], err = remote.NewAccessorClient(desc, 5*time.Second); err != nil {
			return err
		}
		if err := w.read(class); err != nil {
			return fmt.Errorf("first read of %s: %w", svc, err)
		}
	}
	w.ctl, err = srpc.Dial(w.main.addr, 5*time.Second)
	return err
}

func (w *readPoll) read(class int) error {
	start := time.Now()
	r, err := w.clients[class].GetValue()
	if err != nil {
		return err
	}
	w.rec.add(readClassNames[class], start)
	if w.tr != nil {
		w.tr.add(span{Name: "remote.read." + readClassNames[class], Req: w.calls[class].Add(1),
			Start: start.UnixNano(), End: time.Now().UnixNano()})
	}
	if math.Abs(r.Value-w.want[class]) > wire.Quantum {
		return fmt.Errorf("%s read %v, want %v", readClassNames[class], r.Value, w.want[class])
	}
	return nil
}

// op reads the ESP or the composite, by the 80/20 mix.
func (w *readPoll) op(_ int, u uint64) error {
	class := classESP
	if u%100 >= readESPShare {
		class = classComposite
	}
	return w.read(class)
}

func (w *readPoll) finish() error                 { return nil }
func (w *readPoll) sut() []*child                 { return []*child{w.main, w.leaf} }
func (w *readPoll) node() *srpc.Client            { return w.ctl }
func (w *readPoll) classes() map[string][]float64 { return w.rec.take() }
func (w *readPoll) spans() []span                 { return w.tr.take() }

func (w *readPoll) wire() (int64, int64) {
	return w.proxy.bytes.Load(), w.proxy.conns.Load()
}

func (w *readPoll) close() {
	for _, c := range w.clients {
		if c != nil {
			c.Close()
		}
	}
	if w.ctl != nil {
		w.ctl.Close()
	}
	if w.proxy != nil {
		w.proxy.close()
	}
	releaseAll(w.main, w.leaf)
}
