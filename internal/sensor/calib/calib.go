// Package calib provides data calibration for sensor probes. The paper
// lists calibration among the device-specific concerns a probe hides from
// the framework (§V-B: "communication with any sensor has many aspects
// like synchronization, timing constraints, communication protocol, data
// calibration"). Calibrations compose into chains applied to each raw
// sample before it leaves the probe.
package calib

import "math"

// Calibration transforms one raw sample.
type Calibration interface {
	Apply(raw float64) float64
}

// Chain applies calibrations in order. A nil or empty chain is identity.
type Chain []Calibration

// Apply implements Calibration over the whole chain.
func (c Chain) Apply(raw float64) float64 {
	v := raw
	for _, step := range c {
		v = step.Apply(v)
	}
	return v
}

// Linear applies gain and offset: v' = Gain*v + Offset. Gain 0 is treated
// as the common default 1.
type Linear struct {
	Gain   float64
	Offset float64
}

// Apply implements Calibration.
func (l Linear) Apply(raw float64) float64 {
	gain := l.Gain
	if gain == 0 {
		gain = 1
	}
	return gain*raw + l.Offset
}

// Polynomial evaluates sum(Coeffs[i] * v^i) — arbitrary-order correction
// curves from lab characterization.
type Polynomial struct {
	// Coeffs are ordered from the constant term upward.
	Coeffs []float64
}

// Apply implements Calibration (Horner's method).
func (p Polynomial) Apply(raw float64) float64 {
	if len(p.Coeffs) == 0 {
		return raw
	}
	v := 0.0
	for i := len(p.Coeffs) - 1; i >= 0; i-- {
		v = v*raw + p.Coeffs[i]
	}
	return v
}

// Clamp bounds values to [Lo, Hi] — physical plausibility limits.
type Clamp struct {
	Lo, Hi float64
}

// Apply implements Calibration.
func (c Clamp) Apply(raw float64) float64 {
	return math.Max(c.Lo, math.Min(c.Hi, raw))
}
