//go:build !race

package sorcer

const raceEnabled = false
