package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary, recorded from the
// benchmark's side of the call.
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"` // since the log's epoch
	End     int64  `json:"end_ns"`
	Parent  int    `json:"parent"`  // index of the enclosing span, -1 for a root
	Session int    `json:"session"` // spans of one session share it
}

// spanLog keeps spans in memory until the run ends. It is safe for
// concurrent use.
type spanLog struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// add records a finished span and returns its index.
func (l *spanLog) add(name string, start, end time.Time, parent, session int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{
		Name:    name,
		Start:   start.Sub(l.epoch).Nanoseconds(),
		End:     end.Sub(l.epoch).Nanoseconds(),
		Parent:  parent,
		Session: session,
	})
	return len(l.spans) - 1
}

// open starts a span whose children are recorded before it ends; finish
// closes it.
func (l *spanLog) open(name string, parent, session int) int {
	now := time.Now()
	return l.add(name, now, now, parent, session)
}

func (l *spanLog) finish(id int) {
	end := time.Since(l.epoch).Nanoseconds()
	l.mu.Lock()
	l.spans[id].End = end
	l.mu.Unlock()
}

// snapshot copies the spans recorded so far.
func (l *spanLog) snapshot() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// write dumps the spans as JSON lines to path.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanStat aggregates every span of one name.
type spanStat struct {
	Name  string
	Count int
	Total time.Duration // summed duration
	Self  time.Duration // Total minus the time child spans cover
	P50   time.Duration // median duration
}

// mean returns the average duration per span.
func (s spanStat) mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Total / time.Duration(s.Count)
}

// summarize aggregates spans by name, with self time.
func summarize(spans []span) map[string]*spanStat {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	durs := make(map[string][]float64)
	stats := make(map[string]*spanStat)
	for i, s := range spans {
		st := stats[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			stats[s.Name] = st
		}
		d := time.Duration(s.End - s.Start)
		st.Count++
		st.Total += d
		st.Self += d - covered(s, children[i])
		durs[s.Name] = append(durs[s.Name], float64(d))
	}
	for name, ds := range durs {
		sort.Float64s(ds)
		stats[name].P50 = time.Duration(quantile(ds, 0.5))
	}
	return stats
}

// covered returns how much of parent's interval the union of its
// children's intervals covers.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, end int64
	end = parent.Start
	for _, v := range ivs {
		if v.a < end {
			v.a = end
		}
		if v.b > v.a {
			sum += v.b - v.a
			end = v.b
		}
	}
	return time.Duration(sum)
}
