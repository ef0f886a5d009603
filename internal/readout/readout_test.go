package readout

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCalibrateSeparatesMeans(t *testing.T) {
	p := DefaultParams()
	m := Calibrate(p)
	s0 := real(p.Mean0 * m.Weight)
	s1 := real(p.Mean1 * m.Weight)
	if s1 <= s0 {
		t.Fatalf("calibration must map |1⟩ above |0⟩: s0=%v s1=%v", s0, s1)
	}
	if m.Threshold <= s0 || m.Threshold >= s1 {
		t.Errorf("threshold %v not between %v and %v", m.Threshold, s0, s1)
	}
}

func TestNoiselessDiscriminationPerfect(t *testing.T) {
	p := DefaultParams()
	p.NoiseSigma = 0
	m := Calibrate(p)
	rng := rand.New(rand.NewSource(1))
	for state := 0; state <= 1; state++ {
		res, _ := m.Measure(SynthesizeTrace(p, state, rng))
		if res != state {
			t.Errorf("noiseless readout misassigned state %d", state)
		}
	}
}

func TestAssignmentFidelityMatchesAnalytic(t *testing.T) {
	p := DefaultParams()
	p.NoiseSigma = 12 // degrade so errors are observable
	p.IntegrationSamples = 100
	m := Calibrate(p)
	rng := rand.New(rand.NewSource(2))
	const shots = 40000
	errs := 0
	for i := 0; i < shots; i++ {
		state := i % 2
		res, _ := m.Measure(SynthesizeTrace(p, state, rng))
		if res != state {
			errs++
		}
	}
	got := float64(errs) / shots
	want := AssignmentErrorProbability(p)
	if want < 1e-4 {
		t.Fatalf("test setup: analytic error %v too small to sample", want)
	}
	if math.Abs(got-want) > 3*math.Sqrt(want/shots)+0.002 {
		t.Errorf("empirical error %v, analytic %v", got, want)
	}
}

func TestDefaultParamsHighFidelity(t *testing.T) {
	if p := AssignmentErrorProbability(DefaultParams()); p > 0.01 {
		t.Errorf("default assignment error %v, want < 1%%", p)
	}
}

func TestTotalLatencyUnderCoherence(t *testing.T) {
	// The paper's requirement: measurement-to-result latency well below
	// the ~100 µs coherence time; the FPGA achieves < 1 µs.
	m := Calibrate(DefaultParams())
	if lat := m.TotalLatency().Seconds(); lat >= 2e-6 {
		t.Errorf("MDU latency %v s, want < 2 µs", lat)
	}
}

func TestIntegrateEmptyTrace(t *testing.T) {
	m := Calibrate(DefaultParams())
	if s := m.Integrate(nil); s != 0 {
		t.Errorf("empty trace integrates to %v", s)
	}
}

func TestCalibrateDegenerateMeans(t *testing.T) {
	p := DefaultParams()
	p.Mean1 = p.Mean0
	m := Calibrate(p) // must not divide by zero
	if math.IsNaN(m.Threshold) {
		t.Error("degenerate calibration produced NaN threshold")
	}
}

func TestDataCollectorAveraging(t *testing.T) {
	d := NewDataCollector(3)
	// Two rounds of K=3: indices get (1,2,3) then (3,4,5).
	for _, s := range []float64{1, 2, 3, 3, 4, 5} {
		d.Record(s)
	}
	if d.Rounds() != 2 {
		t.Fatalf("rounds = %d, want 2", d.Rounds())
	}
	avgs := d.Averages()
	want := []float64{2, 3, 4}
	for i := range want {
		if math.Abs(avgs[i]-want[i]) > 1e-12 {
			t.Errorf("avg[%d] = %v, want %v", i, avgs[i], want[i])
		}
	}
}

func TestDataCollectorPartialRound(t *testing.T) {
	d := NewDataCollector(4)
	d.Record(8)
	avgs := d.Averages()
	if avgs[0] != 8 || avgs[1] != 0 {
		t.Errorf("partial round averages wrong: %v", avgs)
	}
	if d.Rounds() != 0 {
		t.Error("partial round must not count")
	}
}

func TestDataCollectorReset(t *testing.T) {
	d := NewDataCollector(2)
	d.Record(1)
	d.Record(2)
	d.Reset()
	if d.Rounds() != 0 || d.Averages()[0] != 0 {
		t.Error("reset incomplete")
	}
}

// TestMergeCollectors pins the shard merge: sums and counts add in
// shard order from zero and divide once, a clone outlives its source's
// reset, and a single shard reproduces its own averages.
func TestMergeCollectors(t *testing.T) {
	a, b := NewDataCollector(2), NewDataCollector(2)
	for _, s := range []float64{0.1, 0.2, 0.3, 0.4, 0.5} {
		a.Record(s)
	}
	for _, s := range []float64{1.5, 2.5} {
		b.Record(s)
	}
	ac := a.Clone()
	a.Reset()
	m := MergeCollectors([]*DataCollector{ac, b})
	if m.Rounds() != 3 {
		t.Errorf("merged rounds = %d, want 3", m.Rounds())
	}
	want := []float64{(0 + 0.1 + 0.3 + 0.5 + 1.5) / 4, (0 + 0.2 + 0.4 + 2.5) / 3}
	if got := m.Averages(); got[0] != want[0] || got[1] != want[1] {
		t.Errorf("merged averages %v, want %v", got, want)
	}
	one := MergeCollectors([]*DataCollector{b})
	if got, want := one.Averages(), b.Averages(); got[0] != want[0] || got[1] != want[1] || one.Rounds() != b.Rounds() {
		t.Errorf("one-shard merge %v (%d rounds), want %v (%d rounds)", got, one.Rounds(), want, b.Rounds())
	}
}

func TestNewDataCollectorPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for K=0")
		}
	}()
	NewDataCollector(0)
}

func TestRescaleToFidelity(t *testing.T) {
	avgs := []float64{1.0, 2.5, 4.0}
	f := RescaleToFidelity(avgs, 1.0, 4.0)
	want := []float64{0, 0.5, 1}
	for i := range want {
		if math.Abs(f[i]-want[i]) > 1e-12 {
			t.Errorf("f[%d] = %v, want %v", i, f[i], want[i])
		}
	}
}

func TestRescaleDegenerate(t *testing.T) {
	f := RescaleToFidelity([]float64{1, 2}, 3, 3)
	if f[0] != 0 || f[1] != 0 {
		t.Error("degenerate rescale must return zeros, not NaN")
	}
}

// Property: averaging N identical values returns that value for any K.
func TestPropertyCollectorConstantInput(t *testing.T) {
	f := func(kRaw uint8, v float64, roundsRaw uint8) bool {
		k := int(kRaw%8) + 1
		rounds := int(roundsRaw%5) + 1
		if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e300 {
			return true // summing K·rounds copies would overflow
		}
		d := NewDataCollector(k)
		for i := 0; i < k*rounds; i++ {
			d.Record(v)
		}
		for _, a := range d.Averages() {
			if math.Abs(a-v) > 1e-9*math.Max(1, math.Abs(v)) {
				return false
			}
		}
		return d.Rounds() == rounds
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: increasing integration length never increases the analytic
// assignment error.
func TestPropertyLongerIntegrationHelps(t *testing.T) {
	p := DefaultParams()
	p.NoiseSigma = 10
	prev := 1.0
	for _, n := range []int{10, 50, 100, 300, 1000} {
		p.IntegrationSamples = n
		e := AssignmentErrorProbability(p)
		if e > prev+1e-15 {
			t.Fatalf("error increased with integration length at n=%d", n)
		}
		prev = e
	}
}
