package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"inaudible/internal/audio"
	"inaudible/internal/core"
	"inaudible/internal/stream"
	"inaudible/internal/voice"
)

// Workload names.
const (
	wlDuty   = "duty"
	wlRouted = "routed"
)

// workloads lists every workload in the order they are documented.
var workloads = []string{wlDuty, wlRouted}

const (
	rate        = 48000.0
	frameLen    = 960 // 20 ms at 48 kHz, the server's frame and GRD1 chunk
	poolSize    = 32  // payloads per workload, half attack, half voice
	attackPower = 20  // W, the baseline rig's drive power
	distance    = 2   // m, talker or rig to device
	voiceSPL    = 65  // dB SPL at 1 m, a normal speaking voice

	dutySeconds    = 10.0
	dutyCommands   = 3   // commands per duty session
	ambientSeconds = 2.0 // length of one captured stretch of room ambience
)

// payload is one replayable session: the bytes a client sends and the
// ground-truth label.
type payload struct {
	attack  bool
	wav     bool   // RIFF/WAV on the wire; GRD1 otherwise
	wire    []byte // the session exactly as sent
	samples int
}

// seconds returns the audio length of the payload.
func (p payload) seconds() float64 { return float64(p.samples) / rate }

// pcm decodes the samples the server reads from the wire bytes.
func (p payload) pcm() ([]float64, error) {
	if p.wav {
		sig, err := audio.ReadWAV(bytes.NewReader(p.wire))
		if err != nil {
			return nil, err
		}
		return sig.Samples, nil
	}
	out := make([]float64, 0, p.samples)
	b := p.wire[8:] // magic and rate
	for len(b) >= 4 {
		n := int(binary.LittleEndian.Uint32(b))
		b = b[4:]
		if n == 0 || n > len(b) {
			break
		}
		for i := 0; i < n; i += 2 {
			out = append(out, float64(int16(binary.LittleEndian.Uint16(b[i:])))/32767)
		}
		b = b[n:]
	}
	if len(out) != p.samples {
		return nil, fmt.Errorf("GRD1 payload decodes to %d samples, want %d", len(out), p.samples)
	}
	return out, nil
}

// recordings are the captured sessions a pool is cut from: deliveries
// of one spoken command through the simulation chain (speaker or
// talker, air, room ambience, microphone, ADC), by class.
type recordings struct {
	attack, voice []*audio.Signal
}

// synthesize renders two attack and two voice deliveries of each text
// with the scenario seeded by seed. Attacks are the baseline
// ultrasound rig; voice is a talker at conversational level.
func synthesize(seed int64, texts ...string) (recordings, error) {
	sc := core.DefaultScenario()
	sc.Seed = seed
	var r recordings
	for _, text := range texts {
		cmd, err := voice.Synthesize(text, voice.DefaultVoice(), rate)
		if err != nil {
			return r, err
		}
		for trial := int64(0); trial < 2; trial++ {
			_, run, err := sc.Simulate(cmd, core.KindBaseline, attackPower, distance, trial)
			if err != nil {
				return r, fmt.Errorf("attack delivery: %w", err)
			}
			r.attack = append(r.attack, run.Recording)
			r.voice = append(r.voice, sc.Deliver(sc.EmitVoice(cmd, voiceSPL), distance, 100+trial).Recording)
		}
	}
	if got := r.attack[0].Rate; got != rate {
		return r, fmt.Errorf("the device records at %g Hz, want %g", got, rate)
	}
	return r, nil
}

// ambience captures an empty room through the same chain: the device's
// own noise floor (room ambience plus microphone self-noise), never
// exact zeros.
func ambience(seed int64) *audio.Signal {
	sc := core.DefaultScenario()
	sc.Seed = seed
	return sc.Deliver(&core.Emission{Field: audio.Silence(rate, ambientSeconds)}, distance, 500).Recording
}

// buildPool makes a workload's payloads. Everything random — which
// recording, where a command sits in a session, which stretch of
// ambience pads it, which wire protocol carries it — is drawn from
// seed, so one seed always gives bit-identical payloads.
func buildPool(workload string, seed int64) ([]payload, error) {
	rng := rand.New(rand.NewSource(seed))
	var sigs []*audio.Signal
	var labels []bool
	var wav []bool
	switch workload {
	case wlDuty:
		recs, err := synthesize(seed, "ok google, take a picture")
		if err != nil {
			return nil, err
		}
		amb := ambience(seed)
		for i := 0; i < poolSize; i++ {
			attack := i%2 == 0
			sigs = append(sigs, dutySession(recs, amb, attack, rng))
			labels = append(labels, attack)
		}
	case wlRouted:
		recs, err := synthesize(seed, "alexa", "hey siri")
		if err != nil {
			return nil, err
		}
		for i := 0; i < poolSize; i++ {
			attack := i%2 == 0
			sigs = append(sigs, pickRec(recs, attack, rng))
			labels = append(labels, attack)
		}
		// Half the sessions arrive as WAV, half as GRD1, in seeded order.
		wav = make([]bool, poolSize)
		for i := range wav {
			wav[i] = i < poolSize/2
		}
		rng.Shuffle(len(wav), func(i, j int) { wav[i], wav[j] = wav[j], wav[i] })
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloads)
	}
	pool := make([]payload, len(sigs))
	for i, s := range sigs {
		pool[i] = encode(s.Samples, labels[i], wav != nil && wav[i])
	}
	return pool, nil
}

// pickRec draws one recording of the given class.
func pickRec(r recordings, attack bool, rng *rand.Rand) *audio.Signal {
	if attack {
		return r.attack[rng.Intn(len(r.attack))]
	}
	return r.voice[rng.Intn(len(r.voice))]
}

// dutySession lays dutyCommands commands of one class at seeded gaps
// into a session of room ambience: stretches of the captured ambience
// from seeded offsets, with each command's own capture spliced over
// them.
func dutySession(r recordings, amb *audio.Signal, attack bool, rng *rand.Rand) *audio.Signal {
	n := int(dutySeconds * rate)
	out := make([]float64, 0, n+amb.Len())
	for len(out) < n {
		out = append(out, amb.Samples[rng.Intn(amb.Len()/2):]...)
	}
	out = out[:n]
	cmds := make([]*audio.Signal, dutyCommands)
	slack := n
	for i := range cmds {
		cmds[i] = pickRec(r, attack, rng)
		slack -= cmds[i].Len()
	}
	pos := 0
	for i, c := range cmds {
		gap := rng.Intn(slack/(len(cmds)-i) + 1)
		slack -= gap
		pos += gap
		copy(out[pos:], c.Samples)
		pos += c.Len()
	}
	return audio.FromSamples(rate, out)
}

// quantize maps a sample to 16-bit PCM the way audio.WriteWAV does.
func quantize(v float64) int16 {
	if v > 1 {
		v = 1
	} else if v < -1 {
		v = -1
	}
	return int16(math.Round(v * 32767))
}

// encode frames samples as one session on the wire: a WAV stream, or
// GRD1 with one frame of PCM per chunk. Both carry the same 16-bit PCM.
func encode(samples []float64, attack, wav bool) payload {
	p := payload{attack: attack, wav: wav, samples: len(samples)}
	if wav {
		var b bytes.Buffer
		_ = audio.WriteWAV(&b, audio.FromSamples(rate, samples)) // a bytes.Buffer write cannot fail
		p.wire = b.Bytes()
		return p
	}
	le := binary.LittleEndian
	b := make([]byte, 0, 12+2*len(samples)+4*(len(samples)/frameLen+1))
	b = le.AppendUint32(append(b, stream.Magic...), uint32(rate))
	for off := 0; off < len(samples); off += frameLen {
		end := min(off+frameLen, len(samples))
		b = le.AppendUint32(b, uint32(2*(end-off)))
		for _, v := range samples[off:end] {
			b = le.AppendUint16(b, uint16(quantize(v)))
		}
	}
	p.wire = le.AppendUint32(b, 0)
	return p
}
