// Package readout models QuMA's measurement chain: the qubit-state-
// dependent analog signal transmitted through the readout resonator and
// feedline, the measurement discrimination unit (MDU) that integrates the
// digitized trace against a calibrated weight function and thresholds it
// into a binary result, and the data collection unit that averages
// integration results over experiment rounds.
//
// On the real device, measuring a transmon pulses the feedline near the
// resonator frequency for 300 ns – 2 µs; the transmitted signal's IQ point
// depends on the qubit state. Here the same information flow is preserved:
// the chip's projective outcome selects the IQ mean, Gaussian noise is
// added per sample, and the *binary result the controller sees* comes out
// of the MDU's integrate-and-threshold — so readout infidelity arises
// physically from trace noise rather than from a coin flip bolted on top.
package readout

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"

	"quma/internal/clock"
)

// Params describes the readout chain for one qubit.
type Params struct {
	// Mean0 and Mean1 are the demodulated IQ-plane means of the
	// transmitted signal for qubit states |0⟩ and |1⟩.
	Mean0, Mean1 complex128
	// NoiseSigma is the per-sample Gaussian noise on each quadrature.
	NoiseSigma float64
	// IntegrationSamples is the number of 5 ns demodulated samples
	// integrated per measurement (the paper's 300-cycle measurement pulse
	// yields 300 samples at one sample per control cycle).
	IntegrationSamples int
	// DiscriminationLatency is the fixed processing latency between the
	// end of integration and the binary result becoming available to the
	// controller; the paper's FPGA implementation achieves < 1 µs total.
	DiscriminationLatency clock.Cycle
}

// DefaultParams returns a readout configuration with ~99.5 % assignment
// fidelity at a 300-cycle (1.5 µs) integration window.
func DefaultParams() Params {
	return Params{
		Mean0:                 complex(1, 0),
		Mean1:                 complex(-0.4, 0.9),
		NoiseSigma:            6.0,
		IntegrationSamples:    300,
		DiscriminationLatency: 40, // 200 ns
	}
}

// SynthesizeTrace produces the demodulated IQ samples transmitted while
// the qubit is in the given state.
func SynthesizeTrace(p Params, state int, rng *rand.Rand) []complex128 {
	mean := p.Mean0
	if state == 1 {
		mean = p.Mean1
	}
	trace := make([]complex128, p.IntegrationSamples)
	for k := range trace {
		trace[k] = mean + complex(rng.NormFloat64()*p.NoiseSigma, rng.NormFloat64()*p.NoiseSigma)
	}
	return trace
}

// MDU is the measurement discrimination unit for a single qubit: a
// calibrated weight function and threshold, implementing
//
//	S = Σ_t Re[ V(t) · W(t) ],   M = 1 if S > T else 0.
type MDU struct {
	Weight    complex128 // constant optimal weight (conj of the mean separation)
	Threshold float64
	Latency   clock.Cycle
	n         int
	// s0/s1 are the noiseless integration results for |0⟩/|1⟩ and sigmaS
	// the exact standard deviation of the integrated noise — the matched
	// filter's sufficient statistic (see SampleMeasure).
	s0, s1 float64
	sigmaS float64
}

// Calibrate returns an MDU whose weight function and threshold are matched
// filters for the given readout parameters, the software analogue of the
// calibration step performed before the paper's experiments.
func Calibrate(p Params) *MDU {
	sep := p.Mean1 - p.Mean0
	w := cmplx.Conj(sep)
	if cmplx.Abs(sep) > 0 {
		w /= complex(cmplx.Abs(sep), 0)
	}
	s0 := real(p.Mean0 * w)
	s1 := real(p.Mean1 * w)
	sigmaS := 0.0
	if p.IntegrationSamples > 0 {
		sigmaS = p.NoiseSigma * cmplx.Abs(w) / math.Sqrt(float64(p.IntegrationSamples))
	}
	return &MDU{
		Weight:    w,
		Threshold: (s0 + s1) / 2,
		Latency:   p.DiscriminationLatency,
		n:         p.IntegrationSamples,
		s0:        s0,
		s1:        s1,
		sigmaS:    sigmaS,
	}
}

// Integrate applies the weight function and returns the scalar integration
// result S (normalized per sample so thresholds are trace-length
// independent).
func (m *MDU) Integrate(trace []complex128) float64 {
	var s float64
	for _, v := range trace {
		s += real(v * m.Weight)
	}
	if len(trace) > 0 {
		s /= float64(len(trace))
	}
	return s
}

// Discriminate thresholds an integration result into the binary
// measurement result Mq.
func (m *MDU) Discriminate(s float64) int {
	if s > m.Threshold {
		return 1
	}
	return 0
}

// Measure runs the full chain for one shot: integrate the trace, threshold
// it, and return both the binary result and the raw integration value.
func (m *MDU) Measure(trace []complex128) (result int, s float64) {
	s = m.Integrate(trace)
	return m.Discriminate(s), s
}

// SampleMeasure draws the integration result S directly from its exact
// sampling distribution instead of synthesizing and integrating a trace.
// With per-sample noise v_k = mean + σ(x_k + i·y_k) and x, y standard
// normal, S = (1/n)·Σ Re[v_k·W] is exactly Gaussian with mean Re[mean·W]
// and standard deviation σ·|W|/√n — so sampling S consumes one variate
// where the trace path consumed 2n, with bit-for-bit the same *statistics*
// (assignment fidelity, collector averages, thresholding behaviour).
//
// This is the multi-shot hot path used by core.Machine; SynthesizeTrace +
// Measure remain as the sample-level reference (tests pin the two paths to
// the same distribution) and as the multiplexed-readout route, which needs
// per-sample demultiplexing.
func (m *MDU) SampleMeasure(state int, rng *rand.Rand) (result int, s float64) {
	s = m.s0
	if state == 1 {
		s = m.s1
	}
	if m.sigmaS > 0 {
		s += rng.NormFloat64() * m.sigmaS
	}
	return m.Discriminate(s), s
}

// AssignmentErrorProbability returns the analytic per-shot misassignment
// probability for the matched filter under params p: Q(d·√n / 2σ) where d
// is the IQ separation.
func AssignmentErrorProbability(p Params) float64 {
	if p.NoiseSigma <= 0 {
		return 0
	}
	d := cmplx.Abs(p.Mean1 - p.Mean0)
	z := d * math.Sqrt(float64(p.IntegrationSamples)) / (2 * p.NoiseSigma)
	return 0.5 * math.Erfc(z/math.Sqrt2)
}

// TotalLatency returns the measurement-to-result latency in cycles:
// integration window plus discrimination processing. The paper requires
// this to be well below qubit coherence (< 1 µs achieved) for feedback.
func (m *MDU) TotalLatency() clock.Cycle {
	return clock.Cycle(m.n) + m.Latency
}

// DataCollector is the control box's data collection unit: it accumulates
// K consecutive integration results per round over N rounds and exposes
// the per-index averages S̄_i = (Σ_j S_{i,j}) / N — the quantity the PC
// retrieves after an experiment (paper Section 7.1).
type DataCollector struct {
	K      int
	sums   []float64
	counts []int
	idx    int
	rounds int
}

// NewDataCollector returns a collector for K integration results per round.
func NewDataCollector(k int) *DataCollector {
	if k <= 0 {
		panic(fmt.Sprintf("readout: invalid K=%d", k))
	}
	return &DataCollector{K: k, sums: make([]float64, k), counts: make([]int, k)}
}

// Record appends one integration result; results cycle through indices
// 0..K-1 in arrival order, exactly like the hardware unit.
func (d *DataCollector) Record(s float64) {
	d.sums[d.idx] += s
	d.counts[d.idx]++
	d.idx++
	if d.idx == d.K {
		d.idx = 0
		d.rounds++
	}
}

// Rounds returns the number of complete rounds recorded.
func (d *DataCollector) Rounds() int { return d.rounds }

// Clone returns an independent copy of the collector, so a shard's
// sums outlive the machine that recorded them.
func (d *DataCollector) Clone() *DataCollector {
	c := *d
	c.sums = append([]float64(nil), d.sums...)
	c.counts = append([]int(nil), d.counts...)
	return &c
}

// MergeCollectors returns one collector holding several shards' records
// taken as a single run: per-index sums and counts are added in shard
// order starting from zero, and complete rounds add up. Its Averages
// divide once, so one shard reproduces that shard's averages bit for
// bit, and a sharded run gets the same bytes whatever order its shards
// finished in. All shards must have the same K.
func MergeCollectors(shards []*DataCollector) *DataCollector {
	m := NewDataCollector(shards[0].K)
	for _, d := range shards {
		for i := range m.sums {
			m.sums[i] += d.sums[i]
			m.counts[i] += d.counts[i]
		}
		m.rounds += d.rounds
	}
	return m
}

// Averages returns S̄_i for i in 0..K-1. Indices never recorded return 0.
func (d *DataCollector) Averages() []float64 {
	out := make([]float64, d.K)
	for i := range out {
		if d.counts[i] > 0 {
			out[i] = d.sums[i] / float64(d.counts[i])
		}
	}
	return out
}

// Reset clears all accumulated state.
func (d *DataCollector) Reset() {
	for i := range d.sums {
		d.sums[i] = 0
		d.counts[i] = 0
	}
	d.idx = 0
	d.rounds = 0
}

// RescaleToFidelity converts raw averaged integration results into
// readout-corrected |1⟩-state fidelities using calibration points, the
// paper's Section 8 formula:
//
//	F_i = (S̄_i - S̄_|0⟩) / (S̄_|1⟩ - S̄_|0⟩)
func RescaleToFidelity(avgs []float64, cal0, cal1 float64) []float64 {
	out := make([]float64, len(avgs))
	den := cal1 - cal0
	if den == 0 {
		return out
	}
	for i, s := range avgs {
		out[i] = (s - cal0) / den
	}
	return out
}
