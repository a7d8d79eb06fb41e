package expr

import (
	"testing"
)

// Acceptance benchmarks for the two evaluators: the float64 fast path
// against the tree walker over a map env, on the representative sensor
// shapes from the paper's §V-B usage.

var vmShapes = []struct {
	name  string
	src   string
	names []string
	slots []float64
	hist  [][]float64
}{
	{
		name:  "paper-avg",
		src:   "(a + b + c) / 3",
		names: []string{"a", "b", "c"},
		slots: []float64{21.4, 22.9, 20.1},
	},
	{
		name:  "hist-baseline",
		src:   "a - avg(a_hist)",
		names: []string{"a"},
		slots: []float64{24.0},
		hist:  [][]float64{{21, 22, 23, 24, 22, 21, 25, 24, 23, 22, 21, 24, 25, 23, 22, 24}},
	},
	{
		name:  "conditional",
		src:   "a >= 10 && b < 100 ? (a + b + c)/3 : clamp(c, 0, 50)",
		names: []string{"a", "b", "c"},
		slots: []float64{21.4, 22.9, 20.1},
	},
	{
		name:  "quorum",
		src:   "max(values) - min(values) < 5 ? avg(values) : nan",
		names: []string{"a", "b", "c", "d"},
		slots: []float64{21.4, 22.9, 20.1, 21.8},
	},
}

func benchEnv(shape int) Env {
	s := vmShapes[shape]
	env := Env{"values": s.slots}
	for i, n := range s.names {
		env[n] = s.slots[i]
		if i < len(s.hist) && s.hist[i] != nil {
			env[n+"_hist"] = s.hist[i]
		}
	}
	return env
}

// BenchmarkEvalVMTree is Program.Eval: the tree walker over a map env.
func BenchmarkEvalVMTree(b *testing.B) {
	for si, s := range vmShapes {
		p := MustCompile(s.src)
		env := benchEnv(si)
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.Eval(env); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEvalVMBound is the float64 fast path: no env, no boxing, zero
// allocation per evaluation.
func BenchmarkEvalVMBound(b *testing.B) {
	for _, s := range vmShapes {
		bp, err := MustCompile(s.src).Bind(s.names)
		if err != nil {
			b.Fatal(err)
		}
		slots, hist := s.slots, s.hist
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bp.EvalFloats(slots, hist); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
