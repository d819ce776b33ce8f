package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"time"

	"inaudible/internal/audio"
	"inaudible/internal/defense"
	"inaudible/internal/dsp"
	"inaudible/internal/fleet"
	"inaudible/internal/stream"
	"inaudible/internal/voice"
)

// layerMetric is one per-layer metric of the traced run, with the
// end-to-end metric and workload it is predicted to move.
type layerMetric struct {
	name, unit, moves string
}

// layerMetrics is every per-layer metric, in report order. The "moves"
// column is the prediction a change to that layer is checked against.
var layerMetrics = []layerMetric{
	{"analyzer.push_us_per_frame", "us", "audio_x_rt and verdict_ms_p50 on duty, in proportion to cascade.tier1_share; routed about the same"},
	{"analyzer.finalize_us", "us", "sessions_per_s and verdict_ms_p50 on routed; duty by less than a tenth"},
	{"dsp.fir_trace_us_per_frame", "us", "as analyzer.push_us_per_frame (4095-tap trace band, run twice per frame by the analyzer)"},
	{"dsp.fir_voice_us_per_frame", "us", "as analyzer.push_us_per_frame (1023-tap voice band)"},
	{"dsp.fir_hilbert_us_per_frame", "us", "as analyzer.push_us_per_frame (1023-tap Hilbert transformer)"},
	{"dsp.welch_us_per_frame", "us", "as analyzer.push_us_per_frame"},
	{"dsp.stft_us_per_frame", "us", "as analyzer.push_us_per_frame"},
	{"cascade.stage_us_per_frame", "us", "audio_x_rt and cpu_ms_per_audio_s on duty; no change on routed (cascade off)"},
	{"cascade.advance_us_per_frame", "us", "audio_x_rt and cpu_ms_per_audio_s on duty; no change on routed (cascade off)"},
	{"cascade.tier1_share", "frac", "audio_x_rt and cpu_ms_per_audio_s on duty; no change on routed (cascade off)"},
	{"voice.vad_us_per_frame", "us", "audio_x_rt and cpu_ms_per_audio_s on duty (tier 0); no change on routed (cascade off)"},
	{"dsp.tracker_us_per_frame", "us", "audio_x_rt and cpu_ms_per_audio_s on duty (tier 0); no change on routed (cascade off)"},
	{"guard.stage_us_per_frame", "us", "the session-processor total on routed; a guard merge must not raise it"},
	{"guard.advance_us_per_frame", "us", "the session-processor total on routed; a guard merge must not raise it"},
	{"guard.finalize_us", "us", "the session-processor total on routed; a guard merge must not raise it"},
	{"defense.score_us", "us", "no workload"},
	{"fleet.open_us", "us", "verdict_ms_p90 on every workload"},
	{"fleet.publish_wait_us", "us", "verdict_ms_p90 on every workload"},
	{"fleet.final_us", "us", "verdict_ms_p90 on every workload"},
	{"fleet.interim_drops", "count", "verdict_ms_p90 on every workload"},
	{"fleet.ring_high_water", "frames", "verdict_ms_p90 on every workload"},
	{"stream.serve_us_per_session", "us", "verdict_ms_p50; its gap to verdict_ms_p50 is TCP, plus the relay on routed"},
	{"audio.wav_decode_us_per_frame", "us", "sessions_per_s on routed"},
	{"cluster.relay_added_ms", "ms", "verdict_ms_p50 on routed (0 where there is no router)"},
	{"journal.records", "count", "cpu_ms_per_audio_s and sessions_per_s on routed (0 where the journal is off)"},
	{"journal.bytes_per_session", "B", "cpu_ms_per_audio_s and sessions_per_s on routed (0 where the journal is off)"},
	{"journal.dropped_frac", "frac", "cpu_ms_per_audio_s and sessions_per_s on routed (0 where the journal is off)"},
	{"client.dial_us", "us", "verdict_ms_p50 on every workload"},
	{"client.send_us", "us", "verdict_ms_p50 on every workload"},
	{"client.wait_ms", "ms", "verdict_ms_p50 on every workload"},
	{"trace.overhead_frac", "frac", "nothing: the cost of the traced run's client spans, traced over untraced verdict p50, minus 1"},
}

// replayer drives payloads through each layer's public entry points in
// one goroutine, with a span around every call. Its DSP state is reset,
// not rebuilt, between sessions, as the fleet recycles processors.
type replayer struct {
	log  *spanLog
	det  defense.Detector
	srv  *stream.Server
	wavs map[int][]byte // WAV encodings of GRD1 payloads, by pool index

	an                 *stream.Analyzer
	firTrace, firVoice *dsp.StreamFIR
	firHilbert         *dsp.StreamFIR
	welch              *dsp.WelchAccumulator
	stft               *dsp.STFTAccumulator
	vad                *voice.StreamVAD
	tracker            *dsp.BandTracker
	guard              *stream.Guard
	cascade            *stream.CascadeGuard
	tier0, tier1       int
	ringHighWater      int
	interimDrops0      uint64
	checked, failed    int
	firstErr           error
}

// newReplayer builds the layer instances with the analyzer's own filter
// designs and the guards' own configuration.
func newReplayer(log *spanLog, det defense.Detector, srv *stream.Server) *replayer {
	b := defense.Bands()
	gc := stream.GuardConfig{Rate: rate, Detector: det}
	return &replayer{
		log:        log,
		det:        det,
		srv:        srv,
		wavs:       make(map[int][]byte),
		an:         stream.NewAnalyzer(stream.AnalyzerConfig{Rate: rate}),
		firTrace:   dsp.NewStreamFIR(dsp.BandPassFIR(4095, b.TraceLo/rate, b.TraceHi/rate), 8192),
		firVoice:   dsp.NewStreamFIR(dsp.BandPassFIR(1023, b.VoiceLo/rate, b.VoiceHi/rate), 0),
		firHilbert: dsp.NewStreamFIR(dsp.HilbertFIR(1023), 0),
		welch:      dsp.NewWelchAccumulator(defense.ExtractFFTSize),
		stft:       dsp.NewSTFTAccumulator(defense.FrameFFTSize, defense.FrameHop, func([]float64) {}),
		vad:        voice.NewStreamVAD(rate, 30),
		tracker: dsp.NewBandTracker(rate, []float64{
			b.TraceLo + (b.TraceHi-b.TraceLo)*0.1,
			(b.TraceLo + b.TraceHi) / 2,
			b.TraceHi - (b.TraceHi-b.TraceLo)*0.1,
		}, frameLen, 0.2),
		guard:         stream.NewGuard(gc),
		cascade:       stream.NewCascadeGuard(stream.CascadeConfig{Guard: gc}),
		interimDrops0: srv.Fleet().Metrics().InterimDrops.Value(),
	}
}

// span times fn as a child of parent.
func (r *replayer) span(name string, parent, session int, fn func()) {
	t0 := time.Now()
	fn()
	r.log.add(name, t0, time.Now(), parent, session)
}

// check counts one verdict-parity check: every path must give the
// payload's label.
func (r *replayer) check(path string, err error) {
	r.checked++
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = fmt.Errorf("%s: %w", path, err)
		}
	}
}

func labelErr(got, want bool) error {
	if got != want {
		return fmt.Errorf("verdict attack=%v, label attack=%v", got, want)
	}
	return nil
}

// frames calls fn on each 20 ms frame of pcm.
func frames(pcm []float64, fn func(x []float64)) {
	for off := 0; off < len(pcm); off += frameLen {
		fn(pcm[off:min(off+frameLen, len(pcm))])
	}
}

// run replays pool payloads in order until budget has passed, and at
// least one attack and one voice payload (the pool alternates them).
// Sessions are numbered from first in the span log.
func (r *replayer) run(pool []payload, budget time.Duration, first int) error {
	deadline := time.Now().Add(budget)
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		if err := r.replay(i%len(pool), pool[i%len(pool)], first+i); err != nil {
			return err
		}
	}
	return nil
}

// replay runs one payload through every layer.
func (r *replayer) replay(idx int, p payload, session int) error {
	pcm, err := p.pcm()
	if err != nil {
		return err
	}
	root := r.log.open("replay.session", -1, session)
	defer r.log.finish(root)
	span := func(name string, fn func()) { r.span(name, root, session, fn) }

	r.an.Reset()
	frames(pcm, func(x []float64) { span("analyzer.push", func() { r.an.Push(x) }) })
	span("analyzer.finalize", func() { r.an.Finalize() })

	r.firTrace.Reset()
	r.firVoice.Reset()
	r.firHilbert.Reset()
	frames(pcm, func(x []float64) {
		span("dsp.fir_trace", func() { r.firTrace.Push(x) })
		var vb []float64
		span("dsp.fir_voice", func() { vb = r.firVoice.Push(x) })
		span("dsp.fir_hilbert", func() { r.firHilbert.Push(vb) })
	})

	r.welch.Reset()
	r.stft.Reset()
	r.vad.Reset()
	r.tracker.Reset()
	frames(pcm, func(x []float64) {
		span("dsp.welch", func() { r.welch.Push(x) })
		span("dsp.stft", func() { r.stft.Push(x) })
		span("voice.vad", func() { r.vad.Push(x) })
		span("dsp.tracker", func() { r.tracker.Push(x) })
	})

	r.guard.Reset()
	frames(pcm, func(x []float64) {
		span("guard.stage", func() { r.guard.Stage(x) })
		span("guard.advance", func() { r.guard.Advance() })
	})
	var gv stream.Verdict
	span("guard.finalize", func() { gv = r.guard.Finalize() })
	r.check("guard", labelErr(gv.Attack, p.attack))

	vec := gv.Features.Vector()
	var attack bool
	span("defense.score", func() { r.det.Score(vec); attack = r.det.Predict(vec) })
	r.check("detector", labelErr(attack, p.attack))

	r.cascade.Reset()
	frames(pcm, func(x []float64) {
		span("cascade.stage", func() { r.cascade.Stage(x) })
		span("cascade.advance", func() { r.cascade.Advance() })
	})
	var cv stream.Verdict
	span("cascade.finalize", func() { cv = r.cascade.Finalize() })
	info := r.cascade.Info()
	r.tier0 += info.Tier0Frames
	r.tier1 += info.Tier1Frames
	r.check("cascade", labelErr(cv.Attack, p.attack))

	if err := r.decodeWAV(idx, p, pcm, span); err != nil {
		return err
	}
	r.check("fleet", r.fleetSession(p.attack, pcm, span))

	var out bytes.Buffer
	var serr error
	span("stream.serve", func() { serr = r.srv.ServeSession(bytes.NewReader(p.wire), &out) })
	if serr == nil {
		serr = checkAnswer(bufio.NewReader(&out), p.attack)
	}
	r.check("server", serr)
	return nil
}

// decodeWAV times audio.WAVReader over the payload's WAV form.
func (r *replayer) decodeWAV(idx int, p payload, pcm []float64, span func(string, func())) error {
	wav := p.wire
	if !p.wav {
		if r.wavs[idx] == nil {
			r.wavs[idx] = encode(pcm, p.attack, true).wire
		}
		wav = r.wavs[idx]
	}
	wr, err := audio.NewWAVReader(bytes.NewReader(wav))
	if err != nil {
		return err
	}
	buf := make([]float64, frameLen)
	for {
		var n int
		span("audio.wav_decode", func() { n, err = wr.Read(buf) })
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if n == 0 {
			return fmt.Errorf("WAV reader made no progress")
		}
	}
}

// fleetSession drives the payload straight through the node's fleet:
// admission, the frame ring, and the close-to-final handoff.
func (r *replayer) fleetSession(attack bool, pcm []float64, span func(string, func())) error {
	var sess *fleet.Session
	var err error
	span("fleet.open", func() { sess, err = r.srv.Fleet().Open(rate) })
	if err != nil {
		return err
	}
	frames(pcm, func(x []float64) {
		if err != nil {
			return
		}
		var buf []float64
		span("fleet.publish_wait", func() { buf, err = sess.NextFrame() })
		if err != nil {
			return
		}
		sess.Publish(copy(buf, x))
		r.ringHighWater = max(r.ringHighWater, sess.RingOccupancy())
	})
	if err != nil {
		sess.Abort()
		for range sess.Events() {
		}
		return err
	}
	var final *stream.Verdict
	span("fleet.final", func() {
		if err = sess.CloseSend(); err != nil {
			return
		}
		for ev := range sess.Events() {
			if v := ev.(*stream.Verdict); v.Final {
				final = v
				break
			}
		}
	})
	for range sess.Events() {
	}
	if err != nil {
		return err
	}
	if final == nil {
		return fmt.Errorf("no final verdict")
	}
	return labelErr(final.Attack, attack)
}

// metrics turns the replay spans into the replay's per-layer metrics.
func (r *replayer) metrics(stats map[string]*spanStat) map[string]float64 {
	us := func(name string) float64 {
		if st := stats[name]; st != nil {
			return float64(st.mean()) / float64(time.Microsecond)
		}
		return 0
	}
	m := map[string]float64{
		"analyzer.push_us_per_frame":    us("analyzer.push"),
		"analyzer.finalize_us":          us("analyzer.finalize"),
		"dsp.fir_trace_us_per_frame":    us("dsp.fir_trace"),
		"dsp.fir_voice_us_per_frame":    us("dsp.fir_voice"),
		"dsp.fir_hilbert_us_per_frame":  us("dsp.fir_hilbert"),
		"dsp.welch_us_per_frame":        us("dsp.welch"),
		"dsp.stft_us_per_frame":         us("dsp.stft"),
		"cascade.stage_us_per_frame":    us("cascade.stage"),
		"cascade.advance_us_per_frame":  us("cascade.advance"),
		"voice.vad_us_per_frame":        us("voice.vad"),
		"dsp.tracker_us_per_frame":      us("dsp.tracker"),
		"guard.stage_us_per_frame":      us("guard.stage"),
		"guard.advance_us_per_frame":    us("guard.advance"),
		"guard.finalize_us":             us("guard.finalize"),
		"defense.score_us":              us("defense.score"),
		"fleet.open_us":                 us("fleet.open"),
		"fleet.publish_wait_us":         us("fleet.publish_wait"),
		"fleet.final_us":                us("fleet.final"),
		"fleet.interim_drops":           float64(r.srv.Fleet().Metrics().InterimDrops.Value() - r.interimDrops0),
		"fleet.ring_high_water":         float64(r.ringHighWater),
		"stream.serve_us_per_session":   us("stream.serve"),
		"audio.wav_decode_us_per_frame": us("audio.wav_decode"),
	}
	if n := r.tier0 + r.tier1; n > 0 {
		m["cascade.tier1_share"] = float64(r.tier1) / float64(n)
	}
	return m
}
