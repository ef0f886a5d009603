// Package fit provides the curve-fitting and statistics routines used to
// analyze experiment results: exponential decays (T1, randomized
// benchmarking), exponentially damped cosines (Ramsey fringes), and basic
// descriptive statistics. Everything is stdlib-only: fits use coarse grid
// search refined by Gauss–Newton least squares.
package fit

import (
	"errors"
	"math"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// RMSDeviation returns sqrt(mean((a-b)²)) — the deviation metric quoted
// in the paper's Figure 9 ("Deviation: 0.012" against the ideal
// staircase).
func RMSDeviation(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n == 0 {
		return 0
	}
	var ss float64
	for i := 0; i < n; i++ {
		d := a[i] - b[i]
		ss += d * d
	}
	return math.Sqrt(ss / float64(n))
}

// MaxAbsDeviation returns max |a_i - b_i|.
func MaxAbsDeviation(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	var m float64
	for i := 0; i < n; i++ {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// Linear fits y = a + b·x by ordinary least squares.
func Linear(x, y []float64) (a, b float64, err error) {
	if len(x) != len(y) || len(x) < 2 {
		return 0, 0, errors.New("fit: need at least two matched points")
	}
	mx, my := Mean(x), Mean(y)
	var sxx, sxy float64
	for i := range x {
		dx := x[i] - mx
		sxx += dx * dx
		sxy += dx * (y[i] - my)
	}
	if sxx == 0 {
		return 0, 0, errors.New("fit: degenerate x values")
	}
	b = sxy / sxx
	a = my - b*mx
	return a, b, nil
}

// ExpDecay holds the parameters of y = A·exp(-x/Tau) + C.
type ExpDecay struct {
	A, Tau, C float64
}

// Eval evaluates the model at x.
func (e ExpDecay) Eval(x float64) float64 { return e.A*math.Exp(-x/e.Tau) + e.C }

// FitExpDecay fits y = A·e^{-x/τ} + C. The initial guess comes from the
// data range and a log-linear fit; Gauss–Newton refines it.
func FitExpDecay(x, y []float64) (ExpDecay, error) {
	if len(x) != len(y) || len(x) < 3 {
		return ExpDecay{}, errors.New("fit: need at least three matched points")
	}
	c0 := y[len(y)-1]
	a0 := y[0] - c0
	if a0 == 0 {
		a0 = 1e-9
	}
	// Log-linear initial tau: use points with same sign as a0.
	var lx, ly []float64
	for i := range x {
		v := (y[i] - c0) / a0
		if v > 1e-6 {
			lx = append(lx, x[i])
			ly = append(ly, math.Log(v))
		}
	}
	tau0 := (x[len(x)-1] - x[0]) / 2
	if len(lx) >= 2 {
		if _, slope, err := Linear(lx, ly); err == nil && slope < 0 {
			tau0 = -1 / slope
		}
	}
	if tau0 <= 0 {
		tau0 = (x[len(x)-1] - x[0]) / 2
	}
	p := []float64{a0, tau0, c0}
	model := func(p []float64, xi float64) float64 {
		return p[0]*math.Exp(-xi/p[1]) + p[2]
	}
	grad := func(p []float64, xi float64) []float64 {
		e := math.Exp(-xi / p[1])
		return []float64{e, p[0] * e * xi / (p[1] * p[1]), 1}
	}
	p, err := gaussNewton(x, y, p, model, grad, func(p []float64) bool { return p[1] > 0 })
	if err != nil {
		return ExpDecay{}, err
	}
	return ExpDecay{A: p[0], Tau: p[1], C: p[2]}, nil
}

// DampedCosine holds y = A·e^{-x/τ}·cos(2πf·x + φ) + C.
type DampedCosine struct {
	A, Tau, Freq, Phase, C float64
}

// Eval evaluates the model at x.
func (d DampedCosine) Eval(x float64) float64 {
	return d.A*math.Exp(-x/d.Tau)*math.Cos(2*math.Pi*d.Freq*x+d.Phase) + d.C
}

// FitDampedCosine fits a Ramsey fringe. The frequency seed is scanned on
// a grid (no FFT in stdlib... actually the grid is robust enough for the
// clean simulated data) and all five parameters are refined together.
func FitDampedCosine(x, y []float64) (DampedCosine, error) {
	if len(x) != len(y) || len(x) < 8 {
		return DampedCosine{}, errors.New("fit: need at least eight matched points")
	}
	c0 := Mean(y)
	a0 := 0.0
	for i := range y {
		if d := math.Abs(y[i] - c0); d > a0 {
			a0 = d
		}
	}
	if a0 == 0 {
		a0 = 1e-9
	}
	span := x[len(x)-1] - x[0]
	if span <= 0 {
		return DampedCosine{}, errors.New("fit: x span must be positive")
	}
	// Grid-search frequency, coarse phase, and coarse damping: the data
	// may start anywhere on the fringe, and for strongly damped fringes
	// an undamped trial cosine would lose to a constant.
	bestF, bestPh, bestTau, bestR := 0.0, 0.0, span, math.Inf(1)
	maxF := float64(len(x)-1) / (2 * span) // Nyquist for roughly uniform sampling
	taus := []float64{span / 4, span, 100 * span}
	for k := 0; k < 400; k++ {
		f := maxF * float64(k) / 400
		for _, ph := range []float64{0, math.Pi / 2, math.Pi, 3 * math.Pi / 2} {
			for _, tau := range taus {
				var r float64
				for i := range x {
					env := a0 * math.Exp(-(x[i]-x[0])/tau)
					d := y[i] - (c0 + env*math.Cos(2*math.Pi*f*(x[i]-x[0])+ph))
					r += d * d
				}
				if r < bestR {
					bestR, bestF, bestPh, bestTau = r, f, ph, tau
				}
			}
		}
	}
	// Refine the seed amplitude/offset at the chosen (f, phase) before
	// the joint fit: with a decaying envelope the max-deviation estimate
	// of a0 can be far off.
	p := []float64{a0, bestTau, bestF, bestPh - 2*math.Pi*bestF*x[0], c0}
	model := func(p []float64, xi float64) float64 {
		return p[0]*math.Exp(-xi/p[1])*math.Cos(2*math.Pi*p[2]*xi+p[3]) + p[4]
	}
	grad := func(p []float64, xi float64) []float64 {
		e := math.Exp(-xi / p[1])
		arg := 2*math.Pi*p[2]*xi + p[3]
		cos, sin := math.Cos(arg), math.Sin(arg)
		return []float64{
			e * cos,
			p[0] * e * cos * xi / (p[1] * p[1]),
			-p[0] * e * sin * 2 * math.Pi * xi,
			-p[0] * e * sin,
			1,
		}
	}
	seed := append([]float64{}, p...)
	p, err := gaussNewton(x, y, p, model, grad, func(p []float64) bool { return p[1] > 0 && p[2] >= 0 })
	if err != nil {
		return DampedCosine{}, err
	}
	// Guard against a refinement that collapsed the frequency while the
	// grid had found a real fringe: keep whichever parameter set has the
	// smaller residual.
	resid := func(q []float64) float64 {
		var s float64
		for i := range x {
			d := model(q, x[i]) - y[i]
			s += d * d
		}
		return s
	}
	if resid(seed) < resid(p) {
		p = seed
	}
	d := DampedCosine{A: p[0], Tau: p[1], Freq: p[2], Phase: p[3], C: p[4]}
	// Normalize sign/phase: amplitude positive, frequency positive.
	if d.Freq < 0 {
		d.Freq, d.Phase = -d.Freq, -d.Phase
	}
	if d.A < 0 {
		d.A, d.Phase = -d.A, d.Phase+math.Pi
	}
	d.Phase = math.Mod(d.Phase, 2*math.Pi)
	return d, nil
}

// RabiFringe holds the undamped, phase-pinned Rabi model
// y = C − A·cos(2πf·x).
type RabiFringe struct {
	A, Freq, C float64
}

// Eval evaluates the model at x.
func (r RabiFringe) Eval(x float64) float64 {
	return r.C - r.A*math.Cos(2*math.Pi*r.Freq*x)
}

// FitRabi fits the fixed-phase Rabi model y = C − A·cos(2πf·x) with
// A ≥ 0: an amplitude sweep starting at zero drive must start at the
// bottom of its fringe, so the phase is pinned rather than fitted. That
// makes the fit variance-robust — for any candidate frequency the model
// is *linear* in (A, C) and solved in closed form, and only f is
// searched, so shot noise on individual points cannot steer the
// optimizer into the phase/amplitude degeneracies the free five-
// parameter damped-cosine fit is prone to.
func FitRabi(x, y []float64) (RabiFringe, error) {
	if len(x) != len(y) || len(x) < 8 {
		return RabiFringe{}, errors.New("fit: need at least eight matched points")
	}
	span := x[len(x)-1] - x[0]
	if span <= 0 {
		return RabiFringe{}, errors.New("fit: x span must be positive")
	}
	maxF := float64(len(x)-1) / (2 * span) // Nyquist for roughly uniform sampling
	// For fixed f solve min Σ (C − A·cos(2πf·x_i) − y_i)² by the 2×2
	// normal equations over basis {1, −cos}.
	solveAt := func(f float64) (amp, off, resid float64) {
		var sb, sbb, sy, sby float64
		n := float64(len(x))
		for i := range x {
			b := -math.Cos(2 * math.Pi * f * x[i])
			sb += b
			sbb += b * b
			sy += y[i]
			sby += b * y[i]
		}
		det := n*sbb - sb*sb
		if math.Abs(det) < 1e-12 {
			return 0, sy / n, math.Inf(1)
		}
		amp = (n*sby - sb*sy) / det
		if amp < 0 {
			// An inverted fringe violates the pinned phase (zero drive
			// sits at the bottom); the best admissible fit at this f is
			// the flat model, which the scan will discard.
			amp = 0
		}
		off = (sy - amp*sb) / n
		for i := range x {
			d := off - amp*math.Cos(2*math.Pi*f*x[i]) - y[i]
			resid += d * d
		}
		return amp, off, resid
	}
	const coarse = 800
	bestF, bestR := 0.0, math.Inf(1)
	for k := 1; k <= coarse; k++ {
		f := maxF * float64(k) / coarse
		if _, _, r := solveAt(f); r < bestR {
			bestR, bestF = r, f
		}
	}
	// Fine scan one coarse step around the winner.
	step := maxF / coarse
	for k := -50; k <= 50; k++ {
		f := bestF + step*float64(k)/50
		if f <= 0 {
			continue
		}
		if _, _, r := solveAt(f); r < bestR {
			bestR, bestF = r, f
		}
	}
	amp, off, _ := solveAt(bestF)
	if amp == 0 {
		return RabiFringe{}, errors.New("fit: no oscillation consistent with a pinned-phase Rabi fringe")
	}
	return RabiFringe{A: amp, Freq: bestF, C: off}, nil
}

// RBDecay holds the randomized-benchmarking model F(m) = A·p^m + B.
type RBDecay struct {
	A, P, B float64
}

// Eval evaluates the model at sequence length m.
func (r RBDecay) Eval(m float64) float64 { return r.A*math.Pow(r.P, m) + r.B }

// ErrorPerClifford returns the average Clifford error r = (1-p)/2 for a
// single qubit.
func (r RBDecay) ErrorPerClifford() float64 { return (1 - r.P) / 2 }

// FitRBDecay fits F(m) = A·p^m + B, with 0 < p < 1.
func FitRBDecay(m, f []float64) (RBDecay, error) {
	if len(m) != len(f) || len(m) < 3 {
		return RBDecay{}, errors.New("fit: need at least three matched points")
	}
	// Reuse the exponential fit: p^m = e^{-m/τ} with τ = -1/ln p.
	e, err := FitExpDecay(m, f)
	if err != nil {
		return RBDecay{}, err
	}
	p := math.Exp(-1 / e.Tau)
	if p <= 0 || p >= 1 {
		return RBDecay{}, errors.New("fit: decay constant outside (0,1)")
	}
	return RBDecay{A: e.A, P: p, B: e.C}, nil
}

// gaussNewton refines params to minimize Σ (model(p, x_i) - y_i)² with a
// simple damped Gauss–Newton iteration.
func gaussNewton(
	x, y, p0 []float64,
	model func(p []float64, x float64) float64,
	grad func(p []float64, x float64) []float64,
	valid func(p []float64) bool,
) ([]float64, error) {
	p := append([]float64{}, p0...)
	n := len(p)
	residual := func(p []float64) float64 {
		var s float64
		for i := range x {
			d := model(p, x[i]) - y[i]
			s += d * d
		}
		return s
	}
	cur := residual(p)
	lambda := 1e-3
	for iter := 0; iter < 200; iter++ {
		// Build normal equations J^T J Δ = -J^T r.
		jtj := make([][]float64, n)
		for i := range jtj {
			jtj[i] = make([]float64, n)
		}
		jtr := make([]float64, n)
		for i := range x {
			g := grad(p, x[i])
			r := model(p, x[i]) - y[i]
			for a := 0; a < n; a++ {
				jtr[a] += g[a] * r
				for b := 0; b < n; b++ {
					jtj[a][b] += g[a] * g[b]
				}
			}
		}
		for a := 0; a < n; a++ {
			jtj[a][a] *= 1 + lambda
		}
		delta, ok := solve(jtj, jtr)
		if !ok {
			lambda *= 10
			if lambda > 1e12 {
				break
			}
			continue
		}
		trial := make([]float64, n)
		for a := 0; a < n; a++ {
			trial[a] = p[a] - delta[a]
		}
		if valid != nil && !valid(trial) {
			lambda *= 10
			continue
		}
		tr := residual(trial)
		if tr < cur {
			improvement := cur - tr
			p, cur = trial, tr
			lambda = math.Max(lambda/3, 1e-12)
			if improvement < 1e-15*(1+cur) {
				break
			}
		} else {
			lambda *= 10
			if lambda > 1e12 {
				break
			}
		}
	}
	for _, v := range p {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, errors.New("fit: diverged")
		}
	}
	return p, nil
}

// solve solves the small dense system A·x = b by Gaussian elimination
// with partial pivoting.
func solve(a [][]float64, b []float64) ([]float64, bool) {
	n := len(b)
	m := make([][]float64, n)
	for i := range m {
		m[i] = append(append([]float64{}, a[i]...), b[i])
	}
	for col := 0; col < n; col++ {
		piv, best := col, math.Abs(m[col][col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(m[r][col]); v > best {
				piv, best = r, v
			}
		}
		if best < 1e-300 {
			return nil, false
		}
		m[col], m[piv] = m[piv], m[col]
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := m[r][col] / m[col][col]
			for c := col; c <= n; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = m[i][n] / m[i][i]
	}
	return x, true
}
