//go:build race

package sorcer

// raceEnabled reports that the race detector is instrumenting this build;
// allocation-count assertions are skipped (instrumentation allocates).
const raceEnabled = true
