package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// clients is the closed loop's size: one client per core of the 2-core
// host the benchmark was sized on, each uploading a whole session
// unpaced and starting the next only after the final verdict arrives.
const clients = 2

// sessionTimeout bounds one session end to end, so a hung server turns
// into a counted failure instead of a hung benchmark.
const sessionTimeout = 60 * time.Second

// outcome is one client session.
type outcome struct {
	p       payload
	direct  bool          // sent to a backend's own listener, not the router
	start   time.Time     // before the first byte was written
	latency time.Duration // first byte sent to final verdict line received
	dial    time.Duration
	send    time.Duration // writing the session and half-closing
	wait    time.Duration // half-close to final verdict line
	err     error         // nil: a final verdict matching the label
}

// verdictLine is the part of a guard answer line the check reads.
type verdictLine struct {
	Attack bool    `json:"attack"`
	Final  bool    `json:"final"`
	Error  *string `json:"error"`
}

// checkAnswer reads verdict lines until the final one and checks it
// against the payload's label.
func checkAnswer(br *bufio.Reader, attack bool) error {
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			return fmt.Errorf("no final verdict: %w", err)
		}
		var v verdictLine
		if err := json.Unmarshal(line, &v); err != nil {
			return fmt.Errorf("bad verdict line %q: %w", line, err)
		}
		if v.Error != nil {
			return fmt.Errorf("server error: %s", *v.Error)
		}
		if !v.Final {
			continue
		}
		if v.Attack != attack {
			return fmt.Errorf("verdict attack=%v, label attack=%v", v.Attack, attack)
		}
		return nil
	}
}

// runSession plays one session against addr and times it.
func runSession(addr string, p payload) outcome {
	o := outcome{p: p}
	t0 := time.Now()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	o.start = time.Now()
	o.dial = o.start.Sub(t0)
	if err != nil {
		o.err = fmt.Errorf("dial: %w", err)
		return o
	}
	defer conn.Close()
	conn.SetDeadline(t0.Add(sessionTimeout))
	// A refused session's error line can arrive while the upload is still
	// being written; on a write error, read what the server answered.
	_, werr := conn.Write(p.wire)
	if werr == nil {
		werr = conn.(*net.TCPConn).CloseWrite()
	}
	sent := time.Now()
	o.send = sent.Sub(o.start)
	o.err = checkAnswer(bufio.NewReader(conn), p.attack)
	done := time.Now()
	o.wait = done.Sub(sent)
	o.latency = done.Sub(o.start)
	if o.err == nil && werr != nil {
		o.err = fmt.Errorf("write: %w", werr)
	}
	return o
}

// loop is one closed-loop phase.
type loop struct {
	addr   string
	direct []string // routed: interleave sessions to these, for the relay comparison
	pool   []payload
	spans  *spanLog // nil: no client spans
}

// phase is the result of one loop.
type phase struct {
	outcomes []outcome
	wall     time.Duration // first session start to last verdict
	cpu      time.Duration // process CPU time over wall
}

// run drives the loop for d: every client starts sessions until d has
// passed, and the phase ends when the last one finishes. first numbers
// the sessions for the span log.
func (lp loop) run(d time.Duration, first int) (phase, error) {
	cpu0, err := cpuTime()
	if err != nil {
		return phase{}, err
	}
	t0 := time.Now()
	deadline := t0.Add(d)
	var mu sync.Mutex
	var out []outcome
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Each client walks the pool from its own starting point, so a
			// run covers the seeded pool evenly.
			for i := 0; time.Now().Before(deadline); i++ {
				p := lp.pool[(c*len(lp.pool)/clients+i)%len(lp.pool)]
				addr, direct := lp.addr, false
				if len(lp.direct) > 0 && i%2 == 1 {
					addr, direct = lp.direct[(i/2)%len(lp.direct)], true
				}
				o := runSession(addr, p)
				o.direct = direct
				mu.Lock()
				out = append(out, o)
				n := first + len(out)
				mu.Unlock()
				if lp.spans != nil {
					lp.record(o, n)
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(t0)
	cpu1, err := cpuTime()
	if err != nil {
		return phase{}, err
	}
	return phase{outcomes: out, wall: wall, cpu: cpu1 - cpu0}, nil
}

// record adds a session's client spans to the log.
func (lp loop) record(o outcome, session int) {
	l := lp.spans
	dialStart := o.start.Add(-o.dial)
	root := l.add("client.session", dialStart, o.start.Add(o.latency), -1, session)
	l.add("client.dial", dialStart, o.start, root, session)
	l.add("client.send", o.start, o.start.Add(o.send), root, session)
	l.add("client.wait", o.start.Add(o.send), o.start.Add(o.latency), root, session)
}

// failures counts the outcomes that failed.
func (ph phase) failures() int {
	n := 0
	for _, o := range ph.outcomes {
		if o.err != nil {
			n++
		}
	}
	return n
}

// firstError returns the first failure of the phases, for the report.
func firstError(phases ...phase) error {
	for _, ph := range phases {
		for _, o := range ph.outcomes {
			if o.err != nil {
				return o.err
			}
		}
	}
	return nil
}

// latencies returns the successful sessions' latencies in ms, direct or
// routed ones only.
func (ph phase) latencies(direct bool) []float64 {
	var ms []float64
	for _, o := range ph.outcomes {
		if o.err == nil && o.direct == direct {
			ms = append(ms, float64(o.latency)/float64(time.Millisecond))
		}
	}
	return ms
}

// audioSeconds sums the audio of the successful sessions.
func (ph phase) audioSeconds() float64 {
	s := 0.0
	for _, o := range ph.outcomes {
		if o.err == nil {
			s += o.p.seconds()
		}
	}
	return s
}

var errNoSessions = errors.New("no session completed")
