package calib

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLinear(t *testing.T) {
	l := Linear{Gain: 2, Offset: 1}
	if got := l.Apply(10); got != 21 {
		t.Fatalf("Apply = %v", got)
	}
	// Zero gain defaults to 1 (pure offset correction).
	if got := (Linear{Offset: -0.5}).Apply(10); got != 9.5 {
		t.Fatalf("offset-only = %v", got)
	}
}

func TestPolynomial(t *testing.T) {
	// 1 + 2x + 3x^2 at x=2 -> 17
	p := Polynomial{Coeffs: []float64{1, 2, 3}}
	if got := p.Apply(2); got != 17 {
		t.Fatalf("Apply = %v", got)
	}
	if got := (Polynomial{}).Apply(5); got != 5 {
		t.Fatalf("empty polynomial = %v, want identity", got)
	}
}

func TestClamp(t *testing.T) {
	c := Clamp{Lo: -40, Hi: 85}
	cases := map[float64]float64{-100: -40, 0: 0, 200: 85}
	for in, want := range cases {
		if got := c.Apply(in); got != want {
			t.Fatalf("Clamp(%v) = %v", in, got)
		}
	}
}

func TestChain(t *testing.T) {
	c := Chain{Linear{Gain: 2}, Linear{Offset: 1}, Clamp{Lo: 0, Hi: 10}}
	if got := c.Apply(3); got != 7 {
		t.Fatalf("chain = %v", got)
	}
	if got := c.Apply(100); got != 10 {
		t.Fatalf("chain clamp = %v", got)
	}
	if got := (Chain{}).Apply(4.2); got != 4.2 {
		t.Fatalf("empty chain = %v", got)
	}
	if got := Chain(nil).Apply(4.2); got != 4.2 {
		t.Fatalf("nil chain = %v", got)
	}
}

// Property: Linear is invertible (gain != 0).
func TestPropertyLinearInvertible(t *testing.T) {
	f := func(gain, offset, x int16) bool {
		g := float64(gain)
		if g == 0 {
			return true
		}
		l := Linear{Gain: g, Offset: float64(offset)}
		y := l.Apply(float64(x))
		back := (y - float64(offset)) / g
		return math.Abs(back-float64(x)) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
