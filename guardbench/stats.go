package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// quantile returns the q-quantile of sorted by linear interpolation
// between closest ranks (the default of numpy and of R's type 7).
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	h := q * float64(n-1)
	lo := int(math.Floor(h))
	if lo >= n-1 {
		return sorted[n-1]
	}
	return sorted[lo] + (h-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// beyond counts the samples strictly above v.
func beyond(sorted []float64, v float64) int {
	return len(sorted) - sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })
}

// minBeyond is how many samples must lie beyond a reported percentile
// for it to be trusted.
const minBeyond = 10

// latencySummary is a latency distribution in milliseconds.
type latencySummary struct {
	N        int
	P50, P90 float64
	Beyond90 int // samples above P90
}

// trusted reports whether P90 has at least minBeyond samples above it.
func (s latencySummary) trusted() bool { return s.Beyond90 >= minBeyond }

func summarizeLatency(ms []float64) latencySummary {
	sorted := append([]float64(nil), ms...)
	sort.Float64s(sorted)
	s := latencySummary{N: len(sorted), P50: quantile(sorted, 0.5), P90: quantile(sorted, 0.9)}
	s.Beyond90 = beyond(sorted, s.P90)
	return s
}

// median returns the median of xs.
func median(xs []float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantile(sorted, 0.5)
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// residentBytes reads the process's current resident set size from
// /proc/self/statm (its second field, in pages).
func residentBytes() (int64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	fields := strings.Fields(string(b))
	if len(fields) < 2 {
		return 0, fmt.Errorf("short /proc/self/statm: %q", b)
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("parsing /proc/self/statm: %w", err)
	}
	return pages * int64(os.Getpagesize()), nil
}

// rssInterval is how often rssPeak samples the resident set.
const rssInterval = 5 * time.Millisecond

// rssPeak is the resident-set peak of one phase: a goroutine samples
// residentBytes every rssInterval until finish. Garbage is collected and
// returned to the OS first, so the peak is what set-up leaves resident
// plus what serving adds, not set-up's transient training garbage.
type rssPeak struct {
	stop chan struct{}
	done chan struct{}
	once sync.Once
	peak int64 // bytes; owned by the sampler until done closes
	err  error
}

func startRSSPeak() *rssPeak {
	runtime.GC()
	debug.FreeOSMemory()
	r := &rssPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		t := time.NewTicker(rssInterval)
		defer t.Stop()
		for {
			n, err := residentBytes()
			if err != nil {
				r.err = err
				return
			}
			r.peak = max(r.peak, n)
			select {
			case <-r.stop:
				return
			case <-t.C:
			}
		}
	}()
	return r
}

// finish stops the sampler and returns the peak in MiB. Where /proc is
// unreadable it reports getrusage's high-water mark of the whole
// process instead.
func (r *rssPeak) finish() (float64, error) {
	r.once.Do(func() { close(r.stop) })
	<-r.done
	if r.err == nil {
		return float64(r.peak) / (1 << 20), nil
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("%v; getrusage: %w", r.err, err)
	}
	return float64(ru.Maxrss) / 1024, nil // Maxrss is in KiB on Linux
}
