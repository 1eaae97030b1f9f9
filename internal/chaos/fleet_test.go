package chaos

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"blinkradar"
	"blinkradar/internal/iq"
	"blinkradar/internal/session"
)

// The fleet chaos scenario drives the multi-session service layer the
// way a deployment churns it: hundreds of concurrent streams sharing
// one Manager, half of them killed and immediately re-attached
// mid-stream (an ignition cycle across half the fleet), with exact
// frame accounting demanded for every session segment and full health
// recovery demanded for every survivor and every rejoiner.

const (
	fleetSessions = 400
	fleetFlapped  = 200
	fleetFrames   = 450
	fleetFlapAt   = 150 // flap after this round of submissions
)

// fleetDrain polls until every queue is empty.
func fleetDrain(t *testing.T, m *session.Manager) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for m.Stats().Queued > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("fleet queues never drained: %+v", m.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestChaosFleetFlapRecovery(t *testing.T) {
	fleetFlapRecovery(t, nil)
}

// TestChaosFleetFlapRecoveryOnTime runs the same flap scenario on a
// manager clock that advances one frame period per round, as a fleet of
// live radars sends: every session whose queue is empty when its frame
// arrives has it fed on the submitting goroutine, so frames go both
// ways across the flaps, and the accounting, pool and health checks
// must hold unchanged.
func TestChaosFleetFlapRecoveryOnTime(t *testing.T) {
	var clock atomic.Int64
	st := fleetFlapRecovery(t, &clock)
	t.Logf("%d of %d frames fed inline", st.Inline, st.Processed)
}

// fleetFlapRecovery runs the flap scenario and returns the manager's
// final accounting. A non-nil clock becomes the manager clock, in
// nanoseconds, advanced one frame period per round.
func fleetFlapRecovery(t *testing.T, clock *atomic.Int64) session.ManagerStats {
	if testing.Short() {
		t.Skip("fleet scenario feeds ~180k frames")
	}
	leakCheck(t)
	capture, _ := chaosCapture(t, fleetFrames, 0xF1EE7)

	cfg := session.Config{
		NumBins:   40,
		FrameRate: 25,
		WindowSec: 60,
		Shards:    4,
		// Submissions are uniform (one frame per session per round), so
		// the starved-shard worst case under the global pace bound below
		// — one shard's worker descheduled while the rest drain — lands
		// ~fleetSessions*16 frames evenly on that shard's ~100 sessions:
		// 64 each, exactly the default queue depth. Keep per-session
		// capacity well above that so scheduler skew (single-core CI)
		// cannot turn the paced load into backpressure drops.
		QueueFrames: 256,
	}
	if clock != nil {
		cfg.Now = func() time.Time { return time.Unix(0, clock.Load()) }
	}
	m, err := session.NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	ids := make([]string, fleetSessions)
	for i := range ids {
		ids[i] = fmt.Sprintf("fleet-%03d", i)
		if err := m.Attach(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Deterministic victim set: a failing run replays exactly.
	rng := rand.New(rand.NewSource(0xF1A9))
	victims := map[string]bool{}
	for _, i := range rng.Perm(fleetSessions)[:fleetFlapped] {
		victims[ids[i]] = true
	}

	// pace keeps the producers from overflowing any queue: drops here
	// would be legitimate backpressure, but this scenario asserts
	// loss-free accounting, so the load is kept inside capacity.
	pace := func() {
		for m.Stats().Queued > fleetSessions*16 {
			time.Sleep(100 * time.Microsecond)
		}
	}

	frame := iq.MakePlanes32(capture.NumBins())
	var inlineAtFlap uint64
	for k := 0; k < fleetFrames; k++ {
		if clock != nil {
			clock.Add(int64(time.Second / 25))
		}
		frame.FromComplex(capture.Data[k])
		for _, id := range ids {
			if err := m.SubmitPlanes(id, frame.I, frame.Q); err != nil {
				t.Fatalf("submit frame %d to %s: %v", k, id, err)
			}
		}
		pace()
		if k == fleetFlapAt {
			inlineAtFlap = m.Stats().Inline
			// Kill and immediately re-attach half the fleet. The detach
			// stats are each first segment's final accounting and must
			// balance exactly even with frames still queued (they fold
			// into Dropped).
			for _, id := range ids {
				if !victims[id] {
					continue
				}
				st, err := m.Detach(id)
				if err != nil {
					t.Fatal(err)
				}
				if st.Submitted != uint64(fleetFlapAt+1) {
					t.Fatalf("%s first segment submitted %d frames, want %d", id, st.Submitted, fleetFlapAt+1)
				}
				if st.Submitted != st.Processed+st.Dropped {
					t.Fatalf("%s first segment accounting broken: %+v", id, st)
				}
				if err := m.Attach(id); err != nil {
					t.Fatalf("re-attach %s: %v", id, err)
				}
			}
		}
	}
	fleetDrain(t, m)

	// Pool accounting: every flap re-attach must have recycled state.
	ms := m.Stats()
	if ms.PoolMisses != fleetSessions {
		t.Fatalf("pool misses %d, want %d (one per cold attach)", ms.PoolMisses, fleetSessions)
	}
	if ms.PoolHits != fleetFlapped {
		t.Fatalf("pool hits %d, want %d (one per flap re-attach)", ms.PoolHits, fleetFlapped)
	}
	if ms.Frames != ms.Processed+ms.Dropped {
		t.Fatalf("fleet-level accounting broken: %+v", ms)
	}
	if clock != nil && (inlineAtFlap == 0 || ms.Inline == inlineAtFlap) {
		t.Fatalf("on-time frames fed inline: %d before the flap, %d in all; want some on both sides", inlineAtFlap, ms.Inline)
	}

	// Every session — survivor or rejoiner — must be healthy again and
	// balance exactly. Paced load means no backpressure drops at all.
	post := uint64(fleetFrames - fleetFlapAt - 1)
	for _, id := range ids {
		st, err := m.SessionStats(id)
		if err != nil {
			t.Fatal(err)
		}
		want := uint64(fleetFrames)
		if victims[id] {
			want = post
		}
		if st.Submitted != want {
			t.Fatalf("%s submitted %d frames, want %d", id, st.Submitted, want)
		}
		if st.Dropped != 0 {
			t.Fatalf("%s dropped %d frames under paced load", id, st.Dropped)
		}
		if st.Processed != want {
			t.Fatalf("%s processed %d of %d frames after drain", id, st.Processed, want)
		}
		if st.Pressure != session.PressureNormal {
			t.Fatalf("%s pressure %v after loss-free run", id, st.Pressure)
		}
		if st.Health != blinkradar.HealthTracking {
			t.Fatalf("%s health %v after %d clean frames (recovery bound %d)",
				id, st.Health, want, recoveryBound)
		}
		final, err := m.Detach(id)
		if err != nil {
			t.Fatal(err)
		}
		if final.Submitted != final.Processed+final.Dropped {
			t.Fatalf("%s final accounting broken: %+v", id, final)
		}
	}
	if n := m.Stats().Sessions; n != 0 {
		t.Fatalf("%d sessions still attached after full detach", n)
	}
	return ms
}
