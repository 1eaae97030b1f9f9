package session

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"blinkradar/internal/iq"
)

// BenchmarkFleet measures the multi-session service layer end to end:
// 512 concurrent sessions sharded across GOMAXPROCS workers, each frame
// submitted as I/Q planes through SubmitPlanes (the path ingest uses),
// admission, queueing, and the full detection pipeline. One op is one
// frame through one session. The derived streams/core metric is how
// many real-time radar streams (at the configured frame rate) one core
// sustains; the allocation budget in CI is zero — the pool and the flat
// queues make the steady state alloc-free however many sessions churn
// through.
func BenchmarkFleet(b *testing.B) {
	const (
		sessions = 512
		bins     = 40
		prime    = 160 // frames fed per session before timing starts
	)
	m, ids, bank := benchFleet(b, sessions, bins, nil)
	// Prime every session past cold start so the timed region measures
	// steady state, not amortised warm-up growth.
	for f := 0; f < prime; f++ {
		p := bank[f%len(bank)]
		for _, id := range ids {
			if err := m.SubmitPlanes(id, p.I, p.Q); err != nil {
				b.Fatal(err)
			}
		}
		pace(m, sessions*16)
	}
	waitIdle(b, m)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := bank[i%len(bank)]
		if err := m.SubmitPlanes(ids[i%sessions], f.I, f.Q); err != nil {
			b.Fatal(err)
		}
		pace(m, sessions*16)
	}
	waitIdle(b, m)
	b.StopTimer()

	if secs := b.Elapsed().Seconds(); secs > 0 {
		framesPerSec := float64(b.N) / secs
		streams := framesPerSec / m.cfg.FrameRate
		b.ReportMetric(streams/float64(runtime.GOMAXPROCS(0)), "streams/core")
	}
	st := m.Stats()
	if st.Dropped > 0 {
		b.Fatalf("paced benchmark dropped %d frames; queues overflowed", st.Dropped)
	}
}

// BenchmarkFleetPaced is BenchmarkFleet at the frame rate: a fake
// clock advances one 40-ms frame period per round of the 512 sessions,
// so every frame after a session's first arrives on time and is fed on
// the submitting goroutine, with no queue copy and no worker wake. One
// op is one frame through one session, fed serially on the benchmark
// goroutine, so ns/op is not comparable with BenchmarkFleet's. The CI
// allocation budget is zero.
func BenchmarkFleetPaced(b *testing.B) {
	const (
		sessions = 512
		bins     = 40
		prime    = 160
	)
	clk := newFakeClock()
	m, ids, bank := benchFleet(b, sessions, bins, clk.now)
	for f := 0; f < prime; f++ {
		clk.advance(framePeriod)
		p := bank[f%len(bank)]
		for _, id := range ids {
			if err := m.SubmitPlanes(id, p.I, p.Q); err != nil {
				b.Fatal(err)
			}
		}
		pace(m, sessions*16)
	}
	waitIdle(b, m)
	inline := m.Stats().Inline

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%sessions == 0 {
			clk.advance(framePeriod)
		}
		f := bank[i%len(bank)]
		if err := m.SubmitPlanes(ids[i%sessions], f.I, f.Q); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	waitIdle(b, m)

	// A worker still finishing its last drain when the timed loop
	// starts holds one session's feed lock: at most one queued frame
	// per shard.
	if got := m.Stats().Inline - inline; got+uint64(len(m.shards)) < uint64(b.N) {
		b.Fatalf("%d of %d paced frames fed inline", got, b.N)
	}
}

// BenchmarkFleetIdle measures what attached but silent sessions cost
// the streaming ones: 4,096 sessions are attached and frames flow to 8
// of them at a time, at most 8 frames ahead of the workers, so a worker
// wake finds about one frame per streaming session. A scheduler that
// visits every session on each wake pays for all 4,096 here; one that
// visits only sessions with queued frames pays for the 8. One op is one
// frame. The streaming group moves on every budget frames per session,
// keeping each session short of the Monitor's 30-s vitals window, so
// every op does the same work. The CI allocation budget is zero.
func BenchmarkFleetIdle(b *testing.B) {
	const (
		sessions = 4096
		active   = 8
		budget   = 400 // timed frames per session; prime+budget < 750
		bins     = 40
		prime    = 160
	)
	m, ids, bank := benchFleet(b, sessions, bins, nil)
	// Prime, past cold start, the groups that will stream.
	groups := (b.N + active*budget - 1) / (active * budget)
	if groups > sessions/active {
		groups = sessions / active
	}
	for f := 0; f < prime; f++ {
		p := bank[f%len(bank)]
		for _, id := range ids[:groups*active] {
			if err := m.SubmitPlanes(id, p.I, p.Q); err != nil {
				b.Fatal(err)
			}
		}
		pace(m, active*16)
	}
	waitIdle(b, m)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := i / (active * budget) % groups
		f := bank[i%len(bank)]
		if err := m.SubmitPlanes(ids[g*active+i%active], f.I, f.Q); err != nil {
			b.Fatal(err)
		}
		pace(m, active)
	}
	waitIdle(b, m)
	b.StopTimer()

	if st := m.Stats(); st.Dropped > 0 {
		b.Fatalf("paced benchmark dropped %d frames; queues overflowed", st.Dropped)
	}
}

// benchFleet starts a manager at 25 fps on clock now (nil: the wall
// clock) with n attached sessions (closed when the benchmark ends) and
// returns their IDs with a small bank of deterministic frames, pre-split
// into I/Q planes as the wire decoder delivers them: enough variation
// that the pipeline does real work, no allocation during the timed loop.
func benchFleet(b *testing.B, n, bins int, now func() time.Time) (*Manager, []string, []iq.Planes32) {
	b.Helper()
	m, err := NewManager(Config{
		NumBins:   bins,
		FrameRate: 25,
		WindowSec: 60,
		Now:       now,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { m.Close() })
	bank := make([]iq.Planes32, 64)
	for i := range bank {
		bank[i] = iq.MakePlanes32(bins)
		for j := 0; j < bins; j++ {
			ph := float64(i)*0.31 + float64(j)*0.7
			bank[i].I[j] = float32(math.Cos(ph) * 1e-3)
			bank[i].Q[j] = float32(math.Sin(ph) * 1e-3)
		}
	}
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("veh-%04d", i)
		if err := m.Attach(ids[i]); err != nil {
			b.Fatal(err)
		}
	}
	return m, ids, bank
}

// pace bounds the submit-side lead over the workers so queues never
// overflow (drops would understate the per-frame cost).
func pace(m *Manager, maxInFlight uint64) {
	for m.framesIn.Load()-m.frDone.Load() > maxInFlight {
		runtime.Gosched()
	}
}

// waitIdle blocks until the workers have drained every queue.
func waitIdle(b *testing.B, m *Manager) {
	b.Helper()
	for m.frDone.Load() < m.framesIn.Load() {
		runtime.Gosched()
	}
}
