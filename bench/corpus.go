package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"blinkradar"
	"blinkradar/internal/physio"
	"blinkradar/internal/scenario"
	"blinkradar/internal/transport"
	"blinkradar/internal/vehicle"
)

// Stream geometry: the simulator's default radio, which is also what
// every production stream announces.
const (
	numBins    = 150
	frameRate  = 25.0
	windowSec  = 60.0 // session.Manager's default assessment window
	frameBytes = 24 + numBins*8 + 4
)

var framePeriod = time.Duration(float64(time.Second) / frameRate)

// captureKind is one cell of the corpus mix: awake and drowsy drivers,
// in the lab and on the road.
type captureKind struct {
	label string
	state physio.State
	env   scenario.Environment
	road  vehicle.RoadType
}

var captureKinds = []captureKind{
	{"awake-lab", physio.Awake, scenario.Lab, vehicle.SmoothHighway},
	{"drowsy-lab", physio.Drowsy, scenario.Lab, vehicle.SmoothHighway},
	{"awake-highway", physio.Awake, scenario.Driving, vehicle.SmoothHighway},
	{"drowsy-urban", physio.Drowsy, scenario.Driving, vehicle.UrbanRoad},
	{"awake-urban", physio.Awake, scenario.Driving, vehicle.UrbanRoad},
	{"drowsy-highway", physio.Drowsy, scenario.Driving, vehicle.SmoothHighway},
}

// capture is one simulated recording, wire-encoded: frame k occupies
// wire[k*frameBytes:(k+1)*frameBytes] with sequence number k.
type capture struct {
	wire []byte
	n    int
}

type corpus struct {
	caps      []capture
	helloWire []byte // the StreamHello every connection sends first
}

// buildCorpus simulates n captures of sec seconds each from seed and
// encodes them with the production wire codec.
func buildCorpus(seed int64, n int, sec float64) (*corpus, error) {
	rng := rand.New(rand.NewSource(seed))
	specs := make([]scenario.Spec, n)
	labels := make([]string, n)
	for i := range specs {
		k := captureKinds[i%len(captureKinds)]
		specs[i] = scenario.Spec{
			Subject:     physio.NewSubject(1 + rng.Intn(12)),
			State:       k.state,
			Environment: k.env,
			Road:        k.road,
			Duration:    sec,
			EyeDistance: 0.4,
			Seed:        rng.Int63(),
		}
		labels[i] = k.label
	}
	c := &corpus{caps: make([]capture, n)}
	spacing := make([]float64, n)
	err := parallel(n, func(i int) error {
		sim, err := scenario.Generate(specs[i])
		if err != nil {
			return fmt.Errorf("generate %s: %w", labels[i], err)
		}
		m := sim.Frames
		if m.NumBins() != numBins || m.FrameRate != frameRate {
			return fmt.Errorf("generate %s: got %d bins at %g fps, want %d at %g", labels[i], m.NumBins(), m.FrameRate, numBins, frameRate)
		}
		wire, err := encodeFrames(m.Data, func(k int) uint64 { return uint64(k) })
		if err != nil {
			return err
		}
		c.caps[i] = capture{wire: wire, n: len(m.Data)}
		spacing[i] = m.BinSpacing
		return nil
	})
	if err != nil {
		return nil, err
	}
	var hb bytes.Buffer
	hello := transport.StreamHello{FrameRate: frameRate, BinSpacing: spacing[0], NumBins: numBins}
	if err := transport.EncodeHello(&hb, hello); err != nil {
		return nil, err
	}
	c.helloWire = hb.Bytes()
	return c, nil
}

// encodeFrames wire-encodes frames, numbering frame k seq(k).
func encodeFrames(frames [][]complex128, seq func(k int) uint64) ([]byte, error) {
	var buf bytes.Buffer
	buf.Grow(len(frames) * frameBytes)
	enc := transport.NewEncoder(&buf)
	for k, f := range frames {
		ts := uint64(math.Round(float64(seq(k)) * 1e6 / frameRate))
		if err := enc.Encode(transport.Frame{Seq: seq(k), TimestampMicros: ts, Bins: f}); err != nil {
			return nil, err
		}
	}
	if err := enc.Flush(); err != nil {
		return nil, err
	}
	if buf.Len() != len(frames)*frameBytes {
		return nil, fmt.Errorf("encoded %d bytes for %d frames, want %d each", buf.Len(), len(frames), frameBytes)
	}
	return buf.Bytes(), nil
}

func newDecoder(wire []byte) *transport.Decoder {
	d := transport.NewDecoder(bytes.NewReader(wire))
	d.SetExpectedBins(numBins)
	return d
}

// script is what one session, stream or connection sends: n frames of
// a capture from frame `from`, optionally with a sequence gap of gapLen
// frames just before script frame gapAt.
type script struct {
	capIdx, from, n int
	gapAt, gapLen   int // gapAt < 0: no gap
	wire            []byte
	ref             reference
}

// reference is what a fresh blinkradar.Monitor emits for the script.
type reference struct {
	events []blinkradar.BlinkEvent
	at     []int           // script frame whose FeedPlanes returned events[i]
	feed   []time.Duration // per-frame FeedPlanes time (traced runs only)
	index  map[blinkradar.BlinkEvent]int
	onset  map[float64]int // event index by onset time
}

// match finds ev among the reference events not yet matched and marks
// it. Matching by value rather than by position counts one extra or
// missing event as one divergence, not as every event after it.
func (r *reference) match(ev blinkradar.BlinkEvent, matched []bool) (idx int, ok bool) {
	idx, ok = r.index[ev]
	if !ok || matched[idx] {
		return 0, false
	}
	matched[idx] = true
	return idx, true
}

// trigger returns the script frame that confirmed the reference's blink
// with ev's onset time. A pipeline that diverges from the reference
// mostly still finds the same blinks, with other amplitudes, on the same
// frame, so this times its events too; a blink the reference lacks is
// not timed.
func (r *reference) trigger(ev blinkradar.BlinkEvent) (frame int, ok bool) {
	i, ok := r.onset[ev.Time]
	if !ok {
		return 0, false
	}
	return r.at[i], true
}

func (r *reference) buildIndex() {
	r.index = make(map[blinkradar.BlinkEvent]int, len(r.events))
	r.onset = make(map[float64]int, len(r.events))
	for i, ev := range r.events {
		r.index[ev] = i
		r.onset[ev.Time] = i
	}
}

// sliceScript sends frames [from, from+n) of capture capIdx verbatim.
func (c *corpus) sliceScript(capIdx, from, n int) *script {
	w := c.caps[capIdx].wire
	return &script{capIdx: capIdx, from: from, n: n, gapAt: -1,
		wire: w[from*frameBytes : (from+n)*frameBytes]}
}

// gapScript re-encodes frames [from, from+n) of capture capIdx with
// sequence numbers that skip gapLen values before script frame gapAt.
// The payloads are the capture's float32 samples, bit for bit.
func (c *corpus) gapScript(capIdx, from, n, gapAt, gapLen int) (*script, error) {
	dec := newDecoder(c.caps[capIdx].wire[from*frameBytes : (from+n)*frameBytes])
	frames := make([][]complex128, n)
	for k := range frames {
		f, err := dec.DecodePlanes()
		if err != nil {
			return nil, err
		}
		frames[k] = make([]complex128, numBins)
		for b := range frames[k] {
			frames[k][b] = complex(float64(f.I[b]), float64(f.Q[b]))
		}
	}
	wire, err := encodeFrames(frames, func(k int) uint64 {
		if k >= gapAt {
			return uint64(k + gapLen)
		}
		return uint64(k)
	})
	if err != nil {
		return nil, err
	}
	return &script{capIdx: capIdx, from: from, n: n, gapAt: gapAt, gapLen: gapLen, wire: wire}, nil
}

// computeReference feeds the script to a fresh Monitor exactly as a
// session would see it: decoded planes, NoteGap before the frame after
// a gap.
func (s *script) computeReference(timeFeed bool) error {
	mon, err := blinkradar.NewMonitor(blinkradar.DefaultConfig(), numBins, frameRate, windowSec)
	if err != nil {
		return err
	}
	s.ref = reference{}
	if timeFeed {
		s.ref.feed = make([]time.Duration, s.n)
	}
	dec := newDecoder(s.wire)
	for k := 0; k < s.n; k++ {
		f, err := dec.DecodePlanes()
		if err != nil {
			return fmt.Errorf("reference decode frame %d: %w", k, err)
		}
		if k == s.gapAt {
			mon.NoteGap(uint64(s.gapLen))
		}
		t0 := time.Now()
		ev, ok, _, err := mon.FeedPlanes(f.I, f.Q)
		if timeFeed {
			s.ref.feed[k] = time.Since(t0)
		}
		if err != nil {
			return fmt.Errorf("reference feed frame %d: %w", k, err)
		}
		if ok {
			s.ref.events = append(s.ref.events, ev)
			s.ref.at = append(s.ref.at, k)
		}
	}
	s.ref.buildIndex()
	return nil
}

// expected returns how many reference events fire within the first
// `frames` frames.
func (r *reference) expected(frames int) int {
	n := 0
	for n < len(r.at) && r.at[n] < frames {
		n++
	}
	return n
}

// computeReferences runs every script's reference on a bounded worker
// set.
func computeReferences(scripts []*script, timeFeed bool) error {
	return parallel(len(scripts), func(i int) error { return scripts[i].computeReference(timeFeed) })
}

// perturb makes the first script's reference expect one extra event at
// its first frame, which no correct pipeline emits. The self-test uses
// it to prove the correctness gate fires.
func perturb(scripts []*script) {
	r := &scripts[0].ref
	r.events = append([]blinkradar.BlinkEvent{{Time: -1}}, r.events...)
	r.at = append([]int{0}, r.at...)
	r.buildIndex()
}

// fingerprint hashes the generated wire bytes and the script table, so
// two runs can show they measured the same inputs.
func fingerprint(c *corpus, scripts ...[]*script) string {
	h := sha256.New()
	h.Write(c.helloWire)
	for _, cp := range c.caps {
		h.Write(cp.wire)
	}
	var b [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(b[:], uint64(int64(v)))
		h.Write(b[:])
	}
	for _, set := range scripts {
		for _, s := range set {
			put(s.capIdx)
			put(s.from)
			put(s.n)
			put(s.gapAt)
			put(s.gapLen)
			if s.gapAt >= 0 {
				h.Write(s.wire)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// parallel runs fn(0..n-1) on at most two goroutines (the machine the
// benchmark targets has two cores) and returns the first error.
func parallel(n int, fn func(i int) error) error {
	const workers = 2
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
		next  int
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := first != nil
				mu.Unlock()
				if i >= n || stop {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}
