// Command guardbench is the guard fleet's benchmark: one command that
// builds the serving stack in-process, drives it over loopback TCP with
// a closed loop of clients, checks every verdict against the payload's
// ground truth, and prints end-to-end metrics (or, with -trace 1,
// per-layer metrics from a traced run) by name with their units. The
// last line of standard output is a JSON object with the keys correct,
// attempted, failed and metrics.
//
// Workloads (audio from the simulation chain at 48 kHz, attack and
// voice deliveries 50/50):
//
//   - duty: one node, cascade on, GRD1, 10 s sessions of captured room
//     ambience with three commands at seeded offsets. Tier-0 triage
//     decides how much analyzer work runs; on this audio it escalates
//     for most frames, so the analyzer's push path does most of the work.
//   - routed: a router in front of two journaled backends, GRD1 and WAV
//     mixed by seed, short wake-word sessions. Per-session layers
//     (admission, relay, decode, finalize, journal) dominate.
//
// Run from the repository root:
//
//	bash guardbench/run.sh --workload duty --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"inaudible/internal/defense"
	"inaudible/internal/journal"
)

// setupReps is how many times a run sets up the stack; setup_s is the
// median.
const setupReps = 2

// warmup runs the loop untimed first, so pools, caches and the Go
// runtime reach steady state before measurement.
const warmup = time.Second

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spans    string // span dump path
	tmp      string // root for journal directories
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", fmt.Sprintf("workload: one of %v", workloads))
	flag.Int64Var(&o.seed, "seed", 1, "payload seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run printing per-layer metrics")
	flag.StringVar(&o.spans, "spans", "", "span dump path (default .bench_build/guardbench/spans-<workload>-<seed>-trace<0|1>.jsonl)")
	flag.StringVar(&o.tmp, "tmp", filepath.Join(".bench_build", "guardbench", "tmp"), "directory for journal files")
	flag.Parse()
	o.trace = traceFlag == 1
	if o.spans == "" {
		o.spans = filepath.Join(".bench_build", "guardbench", fmt.Sprintf("spans-%s-%d-trace%d.jsonl", o.workload, o.seed, traceFlag))
	}
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "guardbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "guardbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run sets up the workload's stack, measures it and reports to w.
func run(o options, w io.Writer) (*result, error) {
	if !isWorkload(o.workload) {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloads)
	}
	if o.seconds <= 0 {
		return nil, errors.New("-seconds must be positive")
	}
	reps := setupReps
	if o.trace {
		reps = 1 // the traced run reports no setup time
	}
	var setups []float64
	var env *environment
	for i := 0; i < reps; i++ {
		e, d, err := setup(o)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if i < reps-1 {
			if err := e.st.close(); err != nil {
				return nil, err
			}
			continue
		}
		env = e
	}
	defer env.st.close()
	fmt.Fprintf(w, "guardbench workload=%s seed=%d seconds=%g trace=%v clients=%d pool=%d payloads, %.2f s audio each on average\n",
		o.workload, o.seed, o.seconds, o.trace, clients, len(env.pool), meanSeconds(env.pool))

	rss := startRSSPeak()
	defer rss.finish()
	// Warm-up verdicts are checked too; they count as attempted.
	lp := loop{addr: env.st.addr, pool: env.pool}
	warm, err := lp.run(warmup, 0)
	if err != nil {
		return nil, err
	}
	if o.trace {
		return runTraced(o, env, lp, warm, w)
	}
	lp.spans = newSpanLog()
	ph, err := lp.run(time.Duration(o.seconds*float64(time.Second)), 0)
	if err != nil {
		return nil, err
	}
	peakMB, err := rss.finish()
	if err != nil {
		return nil, err
	}
	if err := lp.spans.write(o.spans); err != nil {
		return nil, err
	}
	res := &result{
		Attempted: len(warm.outcomes) + len(ph.outcomes),
		Failed:    warm.failures() + ph.failures(),
		Metrics:   map[string]metric{},
	}
	res.Correct = res.Failed == 0
	lat := summarizeLatency(ph.latencies(false))
	if lat.N == 0 {
		return nil, errNoSessions
	}
	audioS := ph.audioSeconds()
	put := func(name, unit string, v float64) {
		res.Metrics[name] = metric{Value: v, Unit: unit}
		fmt.Fprintf(w, "%-22s = %12.4f %s\n", name, v, unit)
	}
	fmt.Fprintf(w, "setup runs: %v s\n", setups)
	put("audio_x_rt", "x", audioS/ph.wall.Seconds())
	put("sessions_per_s", "1/s", float64(lat.N)/ph.wall.Seconds())
	put("verdict_ms_p50", "ms", lat.P50)
	put("verdict_ms_p90", "ms", lat.P90)
	put("cpu_ms_per_audio_s", "ms/s", float64(ph.cpu)/float64(time.Millisecond)/audioS)
	put("peak_rss_mb", "MB", peakMB)
	put("setup_s", "s", median(setups))
	reportSamples(w, lat)
	reportFailures(w, res.Failed, res.Attempted, firstError(warm, ph))
	reportClientSpans(w, summarize(lp.spans.snapshot()))
	return res, nil
}

// environment is one set-up: payloads, detector and running stack.
type environment struct {
	pool []payload
	det  defense.Detector
	st   *stack
}

// setup synthesizes the payloads while it trains the detector, then
// starts the stack, timing all three.
func setup(o options) (*environment, time.Duration, error) {
	t0 := time.Now()
	var pool []payload
	var poolErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		pool, poolErr = buildPool(o.workload, o.seed)
	}()
	det, ref, err := trainDetector()
	<-done
	if err == nil {
		err = poolErr
	}
	if err != nil {
		return nil, 0, err
	}
	st, err := startStack(o.workload, det, ref, o.tmp)
	if err != nil {
		return nil, 0, err
	}
	return &environment{pool: pool, det: det, st: st}, time.Since(t0), nil
}

// runTraced is the per-layer run: an untraced and a traced closed-loop
// phase (whose verdict p50s give the tracing overhead), then a
// single-goroutine replay of the same payloads through each layer's
// public entry points.
func runTraced(o options, env *environment, lp loop, warm phase, w io.Writer) (*result, error) {
	total := time.Duration(o.seconds * float64(time.Second))
	plain, err := lp.run(total*3/10, 0)
	if err != nil {
		return nil, err
	}
	log := newSpanLog()
	rp := newReplayer(log, env.det, env.st.servers[0])
	j0 := env.st.journalStats()
	traced := lp
	traced.spans = log
	traced.direct = env.st.direct
	tph, err := traced.run(total*3/10, 0)
	if err != nil {
		return nil, err
	}
	jd, err := journalDelta(env.st, j0, len(tph.outcomes)-tph.failures())
	if err != nil {
		return nil, err
	}
	if err := rp.run(env.pool, total*4/10, len(tph.outcomes)+1); err != nil {
		return nil, err
	}
	if err := log.write(o.spans); err != nil {
		return nil, err
	}
	stats := summarize(log.snapshot())
	m := rp.metrics(stats)
	for k, v := range jd {
		m[k] = v
	}
	lat := summarizeLatency(tph.latencies(false))
	if lat.N == 0 {
		return nil, errNoSessions
	}
	if len(env.st.direct) > 0 {
		m["cluster.relay_added_ms"] = lat.P50 - summarizeLatency(tph.latencies(true)).P50
	}
	m["client.dial_us"] = float64(stats["client.dial"].mean()) / float64(time.Microsecond)
	m["client.send_us"] = float64(stats["client.send"].mean()) / float64(time.Microsecond)
	m["client.wait_ms"] = float64(stats["client.wait"].mean()) / float64(time.Millisecond)
	m["trace.overhead_frac"] = lat.P50/summarizeLatency(plain.latencies(false)).P50 - 1

	failed := warm.failures() + plain.failures() + tph.failures() + rp.failed
	res := &result{
		Attempted: len(warm.outcomes) + len(plain.outcomes) + len(tph.outcomes) + rp.checked,
		Failed:    failed,
		Correct:   failed == 0,
		Metrics:   map[string]metric{},
	}
	fmt.Fprintf(w, "%-30s %12s %-6s  %s\n", "per-layer metric", "value", "unit", "predicted to move")
	for _, lm := range layerMetrics {
		v := m[lm.name]
		res.Metrics[lm.name] = metric{Value: v, Unit: lm.unit}
		fmt.Fprintf(w, "%-30s %12.4f %-6s  %s\n", lm.name, v, lm.unit, lm.moves)
	}
	reportSpans(w, stats)
	err = firstError(warm, plain, tph)
	if err == nil {
		err = rp.firstErr
	}
	reportFailures(w, failed, res.Attempted, err)
	return res, nil
}

// journalDelta waits for the backends' journal writers to account for
// every session of the phase, then reports the phase's journal metrics.
// Without journals the metrics are 0.
func journalDelta(st *stack, before journal.Stats, sessions int) (map[string]float64, error) {
	m := map[string]float64{"journal.records": 0, "journal.bytes_per_session": 0, "journal.dropped_frac": 0}
	if len(st.journals) == 0 {
		return m, nil
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		now := st.journalStats()
		records, dropped := now.Records-before.Records, now.Dropped-before.Dropped
		if int(records+dropped) >= sessions {
			m["journal.records"] = float64(records)
			if records > 0 {
				m["journal.bytes_per_session"] = float64(now.Bytes-before.Bytes) / float64(records)
			}
			m["journal.dropped_frac"] = float64(dropped) / float64(records+dropped)
			return m, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("journal accounted for %d of %d sessions", records+dropped, sessions)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func isWorkload(name string) bool {
	for _, w := range workloads {
		if w == name {
			return true
		}
	}
	return false
}

func meanSeconds(pool []payload) float64 {
	s := 0.0
	for _, p := range pool {
		s += p.seconds()
	}
	return s / float64(len(pool))
}

// reportSamples states the latency sample count and flags a p90 with
// too few samples beyond it.
func reportSamples(w io.Writer, lat latencySummary) {
	flagged := ""
	if !lat.trusted() {
		flagged = fmt.Sprintf(" (FLAG: fewer than %d samples beyond p90)", minBeyond)
	}
	fmt.Fprintf(w, "verdict latency: %d samples, %d beyond p90%s\n", lat.N, lat.Beyond90, flagged)
}

func reportFailures(w io.Writer, failed, attempted int, first error) {
	fmt.Fprintf(w, "fail_frac = %.4f (%d of %d)\n", float64(failed)/float64(max(attempted, 1)), failed, attempted)
	if first != nil {
		fmt.Fprintf(w, "first failure: %v\n", first)
	}
}

// reportClientSpans prints the client-side split of a session.
func reportClientSpans(w io.Writer, stats map[string]*spanStat) {
	for _, name := range []string{"client.dial", "client.send", "client.wait"} {
		if st := stats[name]; st != nil {
			fmt.Fprintf(w, "%-14s mean %10.1f us over %d sessions\n", name, float64(st.mean())/float64(time.Microsecond), st.Count)
		}
	}
}

// reportSpans prints every span name with its count, total, p50 and
// self time.
func reportSpans(w io.Writer, stats map[string]*spanStat) {
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-22s %8s %12s %12s %12s\n", "span", "count", "total_ms", "p50_us", "self_ms")
	for _, n := range names {
		st := stats[n]
		fmt.Fprintf(w, "%-22s %8d %12.2f %12.2f %12.2f\n", n, st.Count,
			float64(st.Total)/float64(time.Millisecond), float64(st.P50)/float64(time.Microsecond), float64(st.Self)/float64(time.Millisecond))
	}
}
