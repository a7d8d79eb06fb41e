// Command bench is the federation benchmark: it spawns the system under
// test as separate processes — the real `sensorcerd lus` daemon and this
// binary re-executed as a `node` hosting what sensorcerd has no
// subcommand for — and loads it from one driver process over loopback
// srpc connections.
//
//	go run ./bench -workload <name|all> -seed N [-seconds S] [-trace] [-out file]
//	go run ./bench -compare a.json b.json
//
// An untraced run reports the end-to-end metrics of BENCHMARK.json; a
// traced run (-trace) reports the per-layer metrics. The last line of
// standard output is one JSON object per the benchmark contract. See
// README.md in this directory for every definition.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"slices"
	"strings"
	"syscall"

	"sensorcer/internal/testbed"
)

func main() {
	if len(os.Args) > 1 && runRole(os.Args[1], os.Args[2:]) {
		return
	}
	os.Exit(drive(os.Args[1:]))
}

// runRole runs one of the roles the driver re-executes this binary in —
// a node of the system under test, a keep-awake spinner — and reports
// whether name was one. The test binary stands in for the bench binary
// through the same function.
func runRole(name string, args []string) bool {
	var err error
	switch name {
	case "node":
		err = runNode()
	case "spin":
		err = runSpin(args)
	default:
		return false
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench %s: %v\n", name, err)
		os.Exit(1)
	}
	return true
}

// normalizeTrace lets the boolean -trace flag also be written as the
// separate-argument form `--trace 0|1` the benchmark contract uses.
func normalizeTrace(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		if (args[i] == "-trace" || args[i] == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, args[i])
	}
	return out
}

func drive(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+" or all")
	seed := fs.Int64("seed", 1, "seed for every generated input")
	seconds := fs.Int("seconds", 16, "length of the measured phase")
	trace := fs.Bool("trace", false, "traced run: report the per-layer metrics")
	out := fs.String("out", "", "append each result as a JSON record to this file (input of -compare)")
	compare := fs.Bool("compare", false, "compare two record files: bench -compare a.json b.json")
	if err := fs.Parse(normalizeTrace(args)); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1))
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	for _, n := range names {
		if !slices.Contains(workloadNames, n) {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", n)
			return 2
		}
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1")
		return 2
	}
	sb, err := newSandbox()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	// The runtime sized itself before the driver was pinned to one CPU;
	// more processors than CPUs would only add thread switches.
	if sb.place.split {
		runtime.GOMAXPROCS(1)
	}
	defer sb.close()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		sb.close()
		os.Exit(130)
	}()

	env := describeEnv(sb)
	fmt.Println(env)
	// Built outside any timed phase; `go build` leaves an up-to-date
	// binary alone, so only the first run in a checkout pays for it.
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	sensorcerd, err := testbed.BuildSensorcerd(buildDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	code := 0
	var finals []string
	if *trace {
		results, err := runTraced(sb, sensorcerd, *seed, *seconds, names)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		for _, res := range results {
			if c := report(res, env, *out); c != 0 {
				code = c
			}
			finals = append(finals, finalLine(res))
		}
	} else {
		for _, name := range names {
			res, err := runUntraced(sb, name, sensorcerd, *seed, *seconds)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
				return 1
			}
			if c := report(res, env, *out); c != 0 {
				code = c
			}
			finals = append(finals, finalLine(res))
		}
	}
	for _, l := range finals {
		fmt.Println(l)
	}
	return code
}

// shapes are the request workloads and how each is offered.
func shapeOf(name string) requestShape {
	switch name {
	case wlReadPoll:
		return requestShape{name: name, rate: readRate,
			make: func(string) requestWorkload { return &readPoll{} }}
	case wlSpaceJobs:
		return requestShape{name: name, rate: jobsRate,
			make: func(string) requestWorkload { return &spaceJobs{} }}
	default:
		return requestShape{name: name, rate: registryRate,
			make: func(bin string) requestWorkload { return &registryChurn{sensorcerd: bin} }}
	}
}

// report prints one result for people and appends it to the record
// file; it returns the exit code the result earns.
func report(res *result, env string, out string) int {
	mode := "end-to-end"
	if res.Trace {
		mode = "per-layer (traced)"
	}
	fmt.Printf("\n== %s  seed %d  %s ==\n", res.Workload, res.Seed, mode)
	printMetrics(res.Metrics)
	if len(res.Info) > 0 {
		fmt.Println("  -- also observed --")
		printMetrics(res.Info)
	}
	if len(res.Rounds) > 0 {
		fmt.Println("  -- per round --")
		for _, name := range sortedKeys(res.Rounds) {
			fmt.Printf("  %-38s", name)
			for _, v := range res.Rounds[name] {
				fmt.Printf(" %.4g", v)
			}
			fmt.Println()
		}
	}
	fmt.Printf("  attempted %d  failed %d\n", res.Attempted, res.Failed)
	if res.Invalid {
		fmt.Printf("  INVALID TAIL: the load generator ran more than %d us late (p99); the tail latencies measure the driver, the median does not\n", lateLimitUS)
	}
	for _, p := range res.Problems {
		fmt.Println("  CHECK FAILED:", p)
	}
	if out != "" {
		if err := appendRecord(out, record{Env: env, result: *res}); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

func printMetrics(m metrics) {
	for _, name := range sortedKeys(m) {
		v := m[name]
		if v.N > 0 {
			fmt.Printf("  %-38s %14.4f %-6s (n=%d)\n", name, v.Value, v.Unit, v.N)
		} else {
			fmt.Printf("  %-38s %14.4f %s\n", name, v.Value, v.Unit)
		}
	}
}

// finalLine renders the contract's result object: exactly the keys
// correct, attempted, failed and metrics, each metric a value and unit.
func finalLine(res *result) string {
	type wireMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]wireMetric, len(res.Metrics))
	for name, m := range res.Metrics {
		ms[name] = wireMetric{Value: m.Value, Unit: m.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]wireMetric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, ms})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(b)
}

// record is one line of a -out file.
type record struct {
	Env string `json:"env"`
	result
}

func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(append(b, '\n'))
	return errors.Join(werr, f.Close())
}

// describeEnv records what the numbers depend on besides the code.
func describeEnv(sb *sandbox) string {
	kernel := "unknown"
	var uts syscall.Utsname
	if syscall.Uname(&uts) == nil {
		kernel = cstr(uts.Sysname[:]) + " " + cstr(uts.Release[:])
	}
	commit := "unknown"
	if b, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(b))
	}
	return fmt.Sprintf("bench: nproc=%d GOMAXPROCS=%d %s kernel=%q commit=%s wal_dir=%s wal_fs=%s transport=loopback",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), kernel, commit, sb.dir, fsType(sb.dir))
}

func cstr(b []int8) string {
	var sb strings.Builder
	for _, c := range b {
		if c == 0 {
			break
		}
		sb.WriteByte(byte(c))
	}
	return sb.String()
}

// fsType names the filesystem holding dir, from its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	default:
		return fmt.Sprintf("0x%x", uint32(st.Type))
	}
}
