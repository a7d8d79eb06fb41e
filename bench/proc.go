package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Everything the benchmark writes stays inside the checkout it runs
// from: runRoot holds each run's scratch directory (WALs), removed when
// the run ends; buildDir keeps the sensorcerd binary and the span file
// between runs. Variables so that tests can point them at a temp dir.
var (
	runRoot  = ".bench_run"
	buildDir = ".bench_build"
)

// servingMarker precedes the listen address in the line every child —
// sensorcerd and the bench's own node role — prints once it serves.
const servingMarker = " serving on "

// sandbox owns everything a run leaves behind: child processes and a
// scratch directory. close stops and reaps the former and removes the
// latter, whichever way the run ends.
type sandbox struct {
	dir   string
	place placement

	mu       sync.Mutex
	children []*child
	closed   bool
}

// newSandbox creates this run's scratch directory, first removing the
// ones left behind by runs whose process no longer exists (a SIGKILLed
// driver cannot clean up after itself).
func newSandbox() (*sandbox, error) {
	if entries, err := os.ReadDir(runRoot); err == nil {
		for _, e := range entries {
			if pid, err := strconv.Atoi(e.Name()); err == nil && syscall.Kill(pid, 0) != nil {
				_ = os.RemoveAll(filepath.Join(runRoot, e.Name()))
			}
		}
	}
	dir := filepath.Join(runRoot, strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	sb := &sandbox{dir: dir, place: choosePlacement()}
	if err := sb.place.pinDriver(); err != nil {
		return nil, fmt.Errorf("bench: pinning the driver: %w", err)
	}
	for _, cpu := range sb.place.cpus {
		if err := sb.keepAwake(cpu); err != nil {
			sb.close()
			return nil, err
		}
	}
	return sb, nil
}

// keepAwake starts a spin loop on cpu in the scheduler's idle class, so
// it runs only when nothing else wants the CPU and yields the moment
// something does. An idle CPU of this kind of (nested) virtual machine
// halts, and waking it is a trip through the host that costs 40 µs in a
// good minute and 400 µs in a bad one — twice per request, since the
// driver and the system under test have a CPU each. With the loop the
// CPUs never halt, as with idle=poll on real hardware, and a loopback
// round trip costs the same whatever the host is doing. The loop is this
// binary's spin role: PAUSE instructions, which leave the core to the
// other virtual CPU whenever the host runs the two on sibling hardware
// threads (a shell's `while :` loop there slowed its sibling by half).
func (sb *sandbox) keepAwake(cpu int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(self, "spin", strconv.Itoa(cpu))
	cmd.Stderr = os.Stderr
	c := &child{sb: sb, name: fmt.Sprintf("keep-awake-%d", cpu), cmd: cmd, exited: make(chan struct{})}
	if err := sb.start(c, false); err != nil { // the spinner pins itself
		return err
	}
	go func() {
		c.waitErr = cmd.Wait()
		close(c.exited)
	}()
	return nil
}

// runSpin is the spin role: it pins its one working thread to the CPU
// named by its argument, drops it into the idle scheduling class and
// spins until it is killed.
func runSpin(args []string) error {
	if len(args) != 1 {
		return errors.New("usage: bench spin <cpu>")
	}
	cpu, err := strconv.Atoi(args[0])
	if err != nil {
		return err
	}
	runtime.LockOSThread()
	if err := setAffinity(0, maskOf(cpu)); err != nil {
		return fmt.Errorf("pinning to cpu %d: %w", cpu, err)
	}
	const schedIdle = 5
	var param struct{ priority int32 } // must be 0 for SCHED_IDLE
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		return fmt.Errorf("entering the idle class: %w", errno)
	}
	for {
		pauseLoop(1 << 20)
	}
}

// subdir creates and returns a fresh directory under the scratch root.
func (sb *sandbox) subdir(pattern string) (string, error) {
	return os.MkdirTemp(sb.dir, pattern)
}

func (sb *sandbox) close() {
	sb.mu.Lock()
	if sb.closed {
		sb.mu.Unlock()
		return
	}
	sb.closed = true
	children := sb.children
	sb.children = nil
	sb.mu.Unlock()
	for _, c := range children {
		c.stop()
	}
	_ = os.RemoveAll(sb.dir)
	// Leave no empty root behind; fails harmlessly while another run
	// still has its directory there.
	_ = os.Remove(runRoot)
}

// child is one supervised process of the system under test.
type child struct {
	sb    *sandbox
	name  string
	cmd   *exec.Cmd
	stdin io.WriteCloser // nil unless the child watches stdin for EOF

	ready chan struct{}
	// addr is the child's serving address and addrs every address it
	// announced (a stub node serves several); valid once ready is closed,
	// empty if the child exited first.
	addr     string
	addrs    []string
	exited   chan struct{}
	waitErr  error
	stopOnce sync.Once
}

// spawn starts bin in its own process group with a death signal tied to
// this process, and waits for it to announce its serving address. input,
// when non-nil, is written to the child's stdin, which then stays open:
// its EOF is how the bench's node role learns that the driver is gone.
func (sb *sandbox) spawn(name, bin string, args []string, input []byte) (*child, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	c := &child{sb: sb, name: name, cmd: cmd, ready: make(chan struct{}), exited: make(chan struct{})}
	if input != nil {
		if c.stdin, err = cmd.StdinPipe(); err != nil {
			return nil, err
		}
	}
	if err := sb.start(c, true); err != nil {
		return nil, err
	}

	go func() {
		c.scan(stdout)
		c.waitErr = cmd.Wait()
		close(c.exited)
	}()
	if input != nil {
		if _, err := c.stdin.Write(append(input, '\n')); err != nil {
			return nil, fmt.Errorf("bench: configuring %s: %w", name, err)
		}
	}
	select {
	case <-c.ready:
	case <-time.After(30 * time.Second):
		return nil, fmt.Errorf("bench: %s did not announce a serving address", name)
	}
	if c.addr == "" {
		<-c.exited
		return nil, fmt.Errorf("bench: %s exited before serving: %v", name, c.waitErr)
	}
	return c, nil
}

// start starts c's command in its own process group, with a death signal
// tied to this process, and puts it under the sandbox's supervision. onSUT
// places it on the CPUs of the system under test.
func (sb *sandbox) start(c *child, onSUT bool) error {
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	sb.mu.Lock()
	defer sb.mu.Unlock()
	if sb.closed {
		return errors.New("bench: sandbox closed")
	}
	// A child inherits the CPU mask of the thread that forks it.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	move := onSUT && sb.place.split
	if move {
		_ = setAffinity(0, sb.place.sut)
	}
	err := c.cmd.Start()
	if move {
		_ = setAffinity(0, sb.place.driver)
	}
	if err != nil {
		return fmt.Errorf("bench: starting %s: %w", c.name, err)
	}
	sb.children = append(sb.children, c)
	return nil
}

// scan resolves the serving address from the child's stdout and drains
// the rest, so the child never blocks on a full pipe.
func (c *child) scan(r io.Reader) {
	sc := bufio.NewScanner(r)
	announced := false
	for sc.Scan() {
		if announced {
			continue
		}
		line := sc.Text()
		if i := strings.Index(line, servingMarker); i >= 0 {
			if f := strings.Fields(line[i+len(servingMarker):]); len(f) > 0 {
				c.addr, c.addrs = f[0], f
				announced = true
				close(c.ready)
			}
		}
	}
	if !announced {
		close(c.ready)
	}
}

// stop ends the child's whole process group — SIGTERM, then SIGKILL
// after a grace period — and returns once it has been reaped.
func (c *child) stop() {
	// Once only: after the child is reaped its pid may belong to someone
	// else, and a second round of signals would land there.
	c.stopOnce.Do(func() {
		if c.stdin != nil {
			_ = c.stdin.Close()
		}
		select {
		case <-c.exited:
			return // already gone and reaped
		default:
		}
		_ = syscall.Kill(-c.cmd.Process.Pid, syscall.SIGTERM)
		select {
		case <-c.exited:
		case <-time.After(5 * time.Second):
			_ = syscall.Kill(-c.cmd.Process.Pid, syscall.SIGKILL)
			<-c.exited
		}
	})
}

// releaseAll stops the given children (nil entries are set-ups that
// never got that far) and drops them from their sandbox. A child that a
// failed set-up never handed to its workload stays with the sandbox,
// whose close reaps it.
func releaseAll(children ...*child) {
	for _, c := range children {
		if c != nil {
			c.release()
		}
	}
}

func (c *child) release() {
	sb := c.sb
	sb.mu.Lock()
	for i, x := range sb.children {
		if x == c {
			sb.children = append(sb.children[:i], sb.children[i+1:]...)
			break
		}
	}
	sb.mu.Unlock()
	c.stop()
}

// cpuTime returns the CPU time the child has consumed, user and system,
// summed over its threads. The scheduler's per-thread run time is exact
// to the nanosecond; /proc/<pid>/stat counts in 10 ms ticks, too coarse
// for a two-second segment of a mostly idle process.
func (c *child) cpuTime() (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", c.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("bench: malformed schedstat for %s", c.name)
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("bench: malformed schedstat for %s: %w", c.name, err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// peakRSSMB returns the child's resident-set high-water mark in MiB.
func (c *child) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				break
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("bench: no VmHWM for %s", c.name)
}

// selfCPU returns this process's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sumCPU totals the CPU time of the given children.
func sumCPU(children []*child) (time.Duration, error) {
	var total time.Duration
	for _, c := range children {
		d, err := c.cpuTime()
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total, nil
}

// cpuMask is a sched_setaffinity bit set (room for 1024 CPUs).
type cpuMask [16]uint64

func maskOf(cpus ...int) cpuMask {
	var m cpuMask
	for _, c := range cpus {
		m[c/64] |= 1 << (c % 64)
	}
	return m
}

// setAffinity pins thread tid (0 = the calling thread).
func setAffinity(tid int, m cpuMask) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		return errno
	}
	return nil
}

// placement separates the load generator from what it loads: the driver
// keeps the first CPU it is allowed, the system under test gets all the
// others. Left to the kernel, the two ping-pong between sharing a core
// and not, and CPU per operation swings by half from run to run. With a
// single CPU there is nothing to separate and split is false.
type placement struct {
	driver, sut cpuMask
	split       bool
	cpus        []int // every CPU this process is allowed
}

func choosePlacement() placement {
	var allowed cpuMask
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(allowed), uintptr(unsafe.Pointer(&allowed)))
	if errno != 0 {
		return placement{}
	}
	var p placement
	n := 0
	for cpu := 0; cpu < len(allowed)*64; cpu++ {
		if allowed[cpu/64]&(1<<(cpu%64)) == 0 {
			continue
		}
		p.cpus = append(p.cpus, cpu)
		if n++; n == 1 {
			p.driver = maskOf(cpu)
		} else {
			p.sut[cpu/64] |= 1 << (cpu % 64)
		}
	}
	p.split = n > 1
	return p
}

// pinDriver moves every thread of this process onto the driver's CPU;
// threads the runtime starts later inherit the mask.
func (p placement) pinDriver() error {
	if !p.split {
		return nil
	}
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		// A thread may exit between the listing and the call.
		if err := setAffinity(tid, p.driver); err != nil && err != syscall.ESRCH {
			return err
		}
	}
	return nil
}
