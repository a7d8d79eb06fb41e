// Federation: the multi-process deployment mode. Where New assembles a
// whole SenSORCER network inside one process, StartFederation builds
// the sensorcerd binary and supervises real child processes — one
// lookup service (registrar + coordination-lease host) and any number
// of shard backup replicas serving replication endpoints — so system
// tests exercise the same srpc surfaces a production deployment
// crosses. The caller's process typically hosts the shard primaries
// and the coordinator replicas, which reach the children through
// remote.ReplicationClient and remote.CoordinationClient.
package testbed

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"sensorcer/internal/clockwork"
)

// BuildSensorcerd compiles cmd/sensorcerd into dir and returns the
// binary path. It must run from a working directory inside the module
// (tests always do).
func BuildSensorcerd(dir string) (string, error) {
	bin := filepath.Join(dir, "sensorcerd")
	out, err := exec.Command("go", "build", "-o", bin, "sensorcer/cmd/sensorcerd").CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("testbed: building sensorcerd: %v\n%s", err, out)
	}
	return bin, nil
}

// Proc is one supervised sensorcerd child process.
type Proc struct {
	cmd   *exec.Cmd
	clock clockwork.Clock
	ready chan struct{}
	once  sync.Once

	mu    sync.Mutex
	lines []string
	addr  string
}

// StartProc spawns bin with args and scans its stdout for the serving
// address every sensorcerd subcommand announces.
func StartProc(clock clockwork.Clock, bin string, args ...string) (*Proc, error) {
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	p := &Proc{cmd: cmd, clock: clock, ready: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("testbed: starting %s %s: %w", bin, strings.Join(args, " "), err)
	}
	go p.scan(stdout)
	return p, nil
}

// scan records the child's stdout and resolves the serving address from
// the announcement line ("... serving on <addr> ...").
func (p *Proc) scan(r io.Reader) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		p.mu.Lock()
		p.lines = append(p.lines, line)
		if p.addr == "" {
			if i := strings.Index(line, " serving on "); i >= 0 {
				if fields := strings.Fields(line[i+len(" serving on "):]); len(fields) > 0 {
					p.addr = fields[0]
					p.once.Do(func() { close(p.ready) })
				}
			}
		}
		p.mu.Unlock()
	}
	// Stdout closed (the child exited): unblock waiters either way.
	p.once.Do(func() { close(p.ready) })
}

// Addr waits for the child to announce its serving address.
func (p *Proc) Addr(timeout time.Duration) (string, error) {
	t := p.clock.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-p.ready:
	case <-t.C():
		return "", fmt.Errorf("testbed: %s did not announce a serving address within %v\n%s",
			p.cmd.Path, timeout, p.Output())
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.addr == "" {
		return "", fmt.Errorf("testbed: %s exited before announcing a serving address\n%s",
			p.cmd.Path, strings.Join(p.lines, "\n"))
	}
	return p.addr, nil
}

// Output returns everything the child has printed so far.
func (p *Proc) Output() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.lines, "\n")
}

// Stop terminates the child gracefully (SIGTERM, then kill after a
// grace period) and reaps it.
func (p *Proc) Stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_, _ = p.cmd.Process.Wait()
		done <- struct{}{}
	}()
	t := p.clock.NewTimer(5 * time.Second)
	defer t.Stop()
	select {
	case <-done:
	case <-t.C():
		_ = p.cmd.Process.Kill()
		<-done
	}
}

// Kill terminates the child without grace — the crash case.
func (p *Proc) Kill() {
	_ = p.cmd.Process.Kill()
	_, _ = p.cmd.Process.Wait()
}

// FederationConfig shapes a multi-process deployment.
type FederationConfig struct {
	// Bin is a prebuilt sensorcerd binary; empty builds one into Dir.
	Bin string
	// Dir is the scratch directory for the binary and the shard WALs
	// (empty = a fresh temp dir, removed on Close).
	Dir string
	// Shards names the shard backup replicas to host, one process each.
	Shards []string
	// StartTimeout bounds each child's startup announcement (default 30s).
	StartTimeout time.Duration
	// Clock defaults to the real clock (children always run real time;
	// the clock only paces the supervisor's own waits).
	Clock clockwork.Clock
}

// Federation is a running multi-process deployment.
type Federation struct {
	Bin        string
	LUS        *Proc
	LUSAddr    string
	Shards     []*Proc
	ShardAddrs []string

	dir    string
	rmDir  bool
	closed bool
}

// StartFederation builds sensorcerd (unless cfg.Bin is set), starts one
// lookup-service process plus a backup process per cfg.Shards entry,
// and waits for each child to announce its serving address.
func StartFederation(cfg FederationConfig) (*Federation, error) {
	if cfg.Clock == nil {
		cfg.Clock = clockwork.Real()
	}
	if cfg.StartTimeout <= 0 {
		cfg.StartTimeout = 30 * time.Second
	}
	f := &Federation{Bin: cfg.Bin, dir: cfg.Dir}
	if f.dir == "" {
		d, err := os.MkdirTemp("", "sensorcer-federation-*")
		if err != nil {
			return nil, err
		}
		f.dir, f.rmDir = d, true
	}
	if f.Bin == "" {
		bin, err := BuildSensorcerd(f.dir)
		if err != nil {
			f.Close()
			return nil, err
		}
		f.Bin = bin
	}

	lus, err := StartProc(cfg.Clock, f.Bin, "lus", "-listen", "127.0.0.1:0")
	if err != nil {
		f.Close()
		return nil, err
	}
	f.LUS = lus
	if f.LUSAddr, err = lus.Addr(cfg.StartTimeout); err != nil {
		f.Close()
		return nil, err
	}

	for _, name := range cfg.Shards {
		proc, err := StartProc(cfg.Clock, f.Bin, "shard",
			"-name", name,
			"-listen", "127.0.0.1:0",
			"-dir", filepath.Join(f.dir, "shard-"+name))
		if err != nil {
			f.Close()
			return nil, err
		}
		f.Shards = append(f.Shards, proc)
		addr, err := proc.Addr(cfg.StartTimeout)
		if err != nil {
			f.Close()
			return nil, err
		}
		f.ShardAddrs = append(f.ShardAddrs, addr)
	}
	return f, nil
}

// Close stops every child process (shards first, then the lookup
// service) and removes the scratch directory if Close created it.
func (f *Federation) Close() {
	if f.closed {
		return
	}
	f.closed = true
	for _, p := range f.Shards {
		p.Stop()
	}
	if f.LUS != nil {
		f.LUS.Stop()
	}
	if f.rmDir {
		_ = os.RemoveAll(f.dir)
	}
}
