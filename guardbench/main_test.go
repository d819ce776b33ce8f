package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 5.5}, {0.9, 9.1}, {1, 10},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile([]float64{7}, 0.9); got != 7 {
		t.Errorf("single-sample quantile = %v, want 7", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("empty quantile should be NaN")
	}
}

func TestP90SampleCount(t *testing.T) {
	mk := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		n, beyond int
		trusted   bool
	}{
		{50, 5, false}, {99, 10, true}, {100, 10, true}, {1000, 100, true},
	} {
		s := summarizeLatency(mk(c.n))
		if s.N != c.n || s.Beyond90 != c.beyond || s.trusted() != c.trusted {
			t.Errorf("n=%d: got N=%d beyond=%d trusted=%v, want beyond=%d trusted=%v",
				c.n, s.N, s.Beyond90, s.trusted(), c.beyond, c.trusted)
		}
	}
	if s := summarizeLatency([]float64{3, 1, 2}); s.P50 != 2 {
		t.Errorf("p50 of {3,1,2} = %v, want 2", s.P50)
	}
}

func TestSelfTime(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{Name: "root", Start: 0, End: 10 * ms, Parent: -1},
		{Name: "kid", Start: 1 * ms, End: 4 * ms, Parent: 0},
		{Name: "kid", Start: 3 * ms, End: 5 * ms, Parent: 0},   // overlaps the first
		{Name: "kid", Start: 9 * ms, End: 12 * ms, Parent: 0},  // runs past the parent
		{Name: "other", Start: 2 * ms, End: 3 * ms, Parent: 1}, // grandchild
	}
	st := summarize(spans)
	if got := st["root"].Self; got != 5*time.Millisecond {
		t.Errorf("root self = %v, want 5ms", got)
	}
	if got := st["kid"]; got.Count != 3 || got.Total != 8*time.Millisecond || got.P50 != 3*time.Millisecond {
		t.Errorf("kid = %+v, want count 3, total 8ms, p50 3ms", *got)
	}
	if got := st["kid"].Self; got != 7*time.Millisecond {
		t.Errorf("kid self = %v, want 7ms", got)
	}
}

func TestAnswerCheck(t *testing.T) {
	for _, c := range []struct {
		answer string
		attack bool
		ok     bool
	}{
		{`{"attack":true,"final":true}` + "\n", true, true},
		{`{"attack":false,"final":false}` + "\n" + `{"attack":true,"final":true}` + "\n", true, true},
		{`{"attack":true,"final":true}` + "\n", false, false}, // a flipped label must count
		{`{"error":"fleet: overloaded"}` + "\n", true, false},
		{`{"attack":true,"final":false}` + "\n", true, false}, // no final verdict
		{``, true, false},
	} {
		err := checkAnswer(bufio.NewReader(strings.NewReader(c.answer)), c.attack)
		if (err == nil) != c.ok {
			t.Errorf("checkAnswer(%q, attack=%v) = %v, want ok=%v", c.answer, c.attack, err, c.ok)
		}
	}
	ph := phase{outcomes: []outcome{{}, {err: errors.New("flipped")}, {}, {}}}
	if ph.failures() != 1 {
		t.Errorf("failures = %d, want 1", ph.failures())
	}
}

func TestPayloadsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes payloads")
	}
	a, err := buildPool(wlRouted, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildPool(wlRouted, 5)
	if err != nil {
		t.Fatal(err)
	}
	c, err := buildPool(wlRouted, 6)
	if err != nil {
		t.Fatal(err)
	}
	same, wavs, attacks := true, 0, 0
	for i := range a {
		if !bytes.Equal(a[i].wire, b[i].wire) || a[i].attack != b[i].attack {
			t.Fatalf("payload %d differs between two builds of seed 5", i)
		}
		same = same && bytes.Equal(a[i].wire, c[i].wire)
		if a[i].wav {
			wavs++
		}
		if a[i].attack {
			attacks++
		}
		checkDecodes(t, a[i])
	}
	if same {
		t.Error("seeds 5 and 6 gave identical payloads")
	}
	if wavs != poolSize/2 || attacks != poolSize/2 {
		t.Errorf("pool has %d WAV and %d attack payloads of %d, want half each", wavs, attacks, poolSize)
	}
}

// checkDecodes asserts the payload decodes to its sample count, and
// that the other protocol carries exactly the same PCM.
func checkDecodes(t *testing.T, p payload) {
	t.Helper()
	pcm, err := p.pcm()
	if err != nil {
		t.Fatal(err)
	}
	if len(pcm) != p.samples {
		t.Fatalf("decoded %d samples, want %d", len(pcm), p.samples)
	}
	other, err := encode(pcm, p.attack, !p.wav).pcm()
	if err != nil {
		t.Fatal(err)
	}
	for i := range pcm {
		if other[i] != pcm[i] {
			t.Fatalf("sample %d: %v as wav=%v, %v re-encoded", i, pcm[i], p.wav, other[i])
		}
	}
}

func TestMetricNamesMatchSpec(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloads)
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, program %d", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range spec.PerLayer {
		if m.Name != layerMetrics[i].name || m.Unit != layerMetrics[i].unit {
			t.Errorf("per-layer %d: spec %s %s, program %s %s", i, m.Name, m.Unit, layerMetrics[i].name, layerMetrics[i].unit)
		}
		if layerMetrics[i].moves == "" {
			t.Errorf("%s has no prediction", m.Name)
		}
	}
}

// TestSmoke runs every workload briefly, traced and untraced, and checks
// the result line carries exactly the metrics BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a detector and serves real sessions")
	}
	spec := loadSpec(t)
	want := func(ms []struct{ Name, Unit string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name+" "+m.Unit)
		}
		sort.Strings(out)
		return out
	}
	got := func(res *result) []string {
		var out []string
		for name, m := range res.Metrics {
			out = append(out, name+" "+m.Unit)
		}
		sort.Strings(out)
		return out
	}
	dir := t.TempDir()
	cases := []struct {
		workload string
		trace    bool
	}{{wlDuty, true}, {wlDuty, false}, {wlRouted, true}, {wlRouted, false}}
	for _, c := range cases {
		var out bytes.Buffer
		res, err := run(options{
			workload: c.workload, seed: 3, seconds: 1, trace: c.trace,
			spans: filepath.Join(dir, "spans.jsonl"), tmp: dir,
		}, &out)
		if err != nil {
			t.Fatalf("%s trace=%v: %v\n%s", c.workload, c.trace, err, out.String())
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", c.workload, c.trace, res.Correct, res.Attempted, res.Failed, out.String())
		}
		names := want(spec.EndToEnd)
		if c.trace {
			names = want(spec.PerLayer)
		}
		if g := got(res); strings.Join(g, ",") != strings.Join(names, ",") {
			t.Errorf("%s trace=%v: metrics %v, want %v", c.workload, c.trace, g, names)
		}
		if _, err := os.Stat(filepath.Join(dir, "spans.jsonl")); err != nil {
			t.Errorf("%s trace=%v: spans not written: %v", c.workload, c.trace, err)
		}
	}
	if entries, err := os.ReadDir(dir); err == nil {
		for _, e := range entries {
			if e.IsDir() {
				t.Errorf("journal directory %s left behind", e.Name())
			}
		}
	}
}
