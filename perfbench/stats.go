package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// peakRSSMB is the process's high-water resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// gcSample is the Go runtime's allocation and CPU accounting at one
// instant, or the difference of two instants.
type gcSample struct {
	allocBytes     uint64
	gcCPU, usedCPU float64
}

var gcMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readGC() gcSample {
	s := make([]metrics.Sample, len(gcMetricNames))
	for i, n := range gcMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return gcSample{
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		usedCPU:    s[2].Value.Float64() - s[3].Value.Float64(),
	}
}

func (s gcSample) since(t gcSample) gcSample {
	return gcSample{allocBytes: s.allocBytes - t.allocBytes, gcCPU: s.gcCPU - t.gcCPU, usedCPU: s.usedCPU - t.usedCPU}
}

func (s gcSample) add(t gcSample) gcSample {
	return gcSample{allocBytes: s.allocBytes + t.allocBytes, gcCPU: s.gcCPU + t.gcCPU, usedCPU: s.usedCPU + t.usedCPU}
}

// gcMetrics reports the process-wide (clients included) allocation per
// job and the GC's share of used CPU over a traced window.
func gcMetrics(s gcSample, jobs int, out *outcome) {
	out.set("gc.alloc_bytes_per_job", "bytes", float64(s.allocBytes)/float64(jobs))
	share := 0.0
	if s.usedCPU > 0 {
		share = s.gcCPU / s.usedCPU
	}
	out.set("gc.cpu_share", "ratio", share)
}

// allocBytes is the process's cumulative heap allocation.
func allocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// span is one timed call at a layer boundary. Spans of one request
// share Trace; Parent is the ID of the span that caused it (0: none).
type span struct {
	Trace   string  `json:"trace"`
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// tracer keeps a run's spans in memory; they are written out when the
// run ends. It is safe for concurrent use.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span and returns its ID.
func (t *tracer) add(trace, name string, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		Trace: trace, ID: id, Parent: parent, Name: name,
		StartUS: float64(start.Sub(t.t0)) / float64(time.Microsecond),
		EndUS:   float64(end.Sub(t.t0)) / float64(time.Microsecond),
	})
	return id
}

// time runs f as a span and returns its duration.
func (t *tracer) time(trace, name string, parent int, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	t.add(trace, name, parent, start, end)
	return end.Sub(start)
}

// durations returns the durations of every span with the name, in the
// given unit.
func (t *tracer) durations(name string, unit time.Duration) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ds []float64
	for _, s := range t.spans {
		if s.Name == name {
			ds = append(ds, (s.EndUS-s.StartUS)*float64(time.Microsecond)/float64(unit))
		}
	}
	return ds
}

func (t *tracer) millis(name string) []float64 { return t.durations(name, time.Millisecond) }

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
