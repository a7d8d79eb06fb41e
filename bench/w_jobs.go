package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"sensorcer/internal/srpc"
)

// space_jobs: exertions through the replicated space. 300 jobs a second
// over two connections, each an 8-task parallel pull-mode job, submitted
// to a node hosting the shard's primary (synchronous ship to the backup
// replica in a second node), a Spacer and two workers. space, wal, repl
// and sorcer do the work; sensor, subscribe and registry do none. (Open
// loop like the other request workloads: two callers in a closed loop
// keep the one CPU the system under test has on this box 94 % busy, and
// then the reference echo that shares that CPU waits behind the jobs and
// stops measuring the platform.)
const jobsRate = 300

type spaceJobs struct {
	shard, main *child
	proxy       *countingProxy
	clients     [connections]*srpc.Client
	ctl         *srpc.Client
	rec         classRecorder
	nextID      atomic.Uint64
	turn        atomic.Uint64
	tr          *tracer
}

func (w *spaceJobs) setup(sb *sandbox, _ *rand.Rand, trace bool) error {
	shardDir, err := sb.subdir("shard-")
	if err != nil {
		return err
	}
	walDir, err := sb.subdir("primary-")
	if err != nil {
		return err
	}
	if w.shard, err = spawnNode(sb, nodeSpec{Role: roleBackup, WALDir: shardDir}); err != nil {
		return err
	}
	if w.main, err = spawnNode(sb, nodeSpec{Role: roleJobs, Trace: trace, ShardAddr: w.shard.addr, WALDir: walDir}); err != nil {
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
	for i := range w.clients {
		if w.clients[i], err = srpc.Dial(addr, 30*time.Second); err != nil {
			return err
		}
		if err := w.job(w.clients[i], uint64(i)); err != nil {
			return fmt.Errorf("first job on connection %d: %w", i, err)
		}
	}
	w.ctl, err = srpc.Dial(w.main.addr, 5*time.Second)
	return err
}

// op submits one job on the connection whose turn it is.
func (w *spaceJobs) op(_ int, u uint64) error {
	return w.job(w.clients[w.turn.Add(1)%connections], u)
}

// job submits one job of 8 additions drawn from u and checks the sums.
func (w *spaceJobs) job(c *srpc.Client, u uint64) error {
	p := jobParams{ID: w.nextID.Add(1), A: make([]float64, jobTasks), B: make([]float64, jobTasks)}
	for i := 0; i < jobTasks; i++ {
		p.A[i] = float64((u >> (8 * i)) & 0xff)
		p.B[i] = float64(100*i) + float64(p.ID%97)
	}
	var res jobResult
	start := time.Now()
	if err := c.Call(methodJob, p, &res); err != nil {
		return err
	}
	w.rec.add("job", start)
	if w.tr != nil {
		w.tr.add(span{Name: "bench.job", Req: p.ID, Start: start.UnixNano(), End: time.Now().UnixNano()})
	}
	if len(res.Sums) != jobTasks {
		return fmt.Errorf("job %d returned %d sums", p.ID, len(res.Sums))
	}
	for i, sum := range res.Sums {
		if sum != p.A[i]+p.B[i] {
			return fmt.Errorf("job %d task %d: %v + %v = %v", p.ID, i, p.A[i], p.B[i], sum)
		}
	}
	return nil
}

// finish checks that the jobs left nothing in the space and that the
// backup holds every record the primary logged.
func (w *spaceJobs) finish() error {
	var c jobCheck
	if err := w.ctl.Call(methodJobCheck, struct{}{}, &c); err != nil {
		return err
	}
	if c.Leftover != 0 {
		return fmt.Errorf("%d envelope/result entries left in the space", c.Leftover)
	}
	if c.BackupNext != c.PrimaryNext {
		return fmt.Errorf("backup expects sequence %d, primary log is at %d", c.BackupNext, c.PrimaryNext)
	}
	return nil
}

func (w *spaceJobs) sut() []*child                 { return []*child{w.main, w.shard} }
func (w *spaceJobs) node() *srpc.Client            { return w.ctl }
func (w *spaceJobs) classes() map[string][]float64 { return w.rec.take() }
func (w *spaceJobs) spans() []span                 { return w.tr.take() }

func (w *spaceJobs) wire() (int64, int64) {
	return w.proxy.bytes.Load(), w.proxy.conns.Load()
}

func (w *spaceJobs) close() {
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
	releaseAll(w.main, w.shard)
}
