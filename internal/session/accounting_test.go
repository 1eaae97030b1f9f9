package session

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// detachRace runs three goroutines submitting to one session (one
// shard, a four-frame queue, so frames are queued, fed and dropped)
// while the test goroutine detaches and re-attaches it, 100,000 times
// or for two seconds, whichever ends first (a -race build gets through
// about a thousand cycles). A NoteGap rides on every eighth submit.
// With paced set, a submitter first waits until nothing is queued, as
// a stream sending at the frame rate finds its session, and each
// re-attached session feeds a frame inline before the next Detach
// races the submitters. It returns the cycles run, the frames fed
// inline and the Detach results whose accounting does not balance.
func detachRace(t *testing.T, cfg Config, paced bool) (int, uint64, []SessionStats) {
	t.Helper()
	const cycles, budget = 100000, 2 * time.Second
	cfg.Shards = 1
	cfg.QueueFrames = 4
	m := newTestManager(t, cfg)
	const id = "racer"
	if err := m.Attach(id); err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			frame := testFrame(16, w)
			for i := 0; !stop.Load(); i++ {
				if i%8 == 0 {
					if err := m.NoteGap(id, 1); err != nil && !errors.Is(err, ErrSessionNotFound) {
						panic(err)
					}
				}
				for paced && !stop.Load() {
					if st, err := m.SessionStats(id); err != nil || st.Queued == 0 {
						break
					}
					runtime.Gosched()
				}
				if err := submit(m, id, frame); err != nil && !errors.Is(err, ErrSessionNotFound) {
					panic(err)
				}
			}
		}(w)
	}
	var bad []SessionStats
	c, start := 0, time.Now()
	for ; c < cycles && time.Since(start) < budget; c++ {
		st, err := m.Detach(id)
		if err != nil {
			stop.Store(true)
			wg.Wait()
			t.Fatal(err)
		}
		if st.Submitted != st.Processed+st.Dropped || st.Queued != 0 {
			bad = append(bad, st)
		}
		inline := m.Stats().Inline
		if err := m.Attach(id); err != nil {
			stop.Store(true)
			wg.Wait()
			t.Fatal(err)
		}
		for paced && m.Stats().Inline == inline && time.Since(start) < budget {
			runtime.Gosched()
		}
	}
	stop.Store(true)
	wg.Wait()
	return c, m.Stats().Inline, bad
}

// TestDetachAccountingUnderChurn pins Detach's contract under racing
// submits: Submitted == Processed + Dropped in every result, with
// nothing of one stream carried into the pooled session's next. Every
// count a submit makes must land in the same queue-lock critical
// section as the submit itself, or a Detach in between splits it.
func TestDetachAccountingUnderChurn(t *testing.T) {
	if n, _, bad := detachRace(t, testConfig(), false); len(bad) > 0 {
		t.Fatalf("%d of %d Detach results unbalanced, first %+v", len(bad), n, bad[0])
	}
}

// TestDetachAccountingOnTime is the same race with paced submitters
// and every submit on time: the manager clock advances a frame period
// per reading, so a submit finding the queue empty and the feed lock
// free feeds inline. A run that fed nothing inline would only repeat
// the test above.
func TestDetachAccountingOnTime(t *testing.T) {
	cfg := testConfig()
	clk := newFakeClock()
	cfg.Now = func() time.Time {
		clk.advance(framePeriod)
		return clk.now()
	}
	n, inline, bad := detachRace(t, cfg, true)
	if len(bad) > 0 {
		t.Fatalf("%d of %d Detach results unbalanced, first %+v", len(bad), n, bad[0])
	}
	if inline == 0 {
		t.Fatalf("no frame fed inline in %d cycles", n)
	}
	t.Logf("%d cycles, %d frames fed inline", n, inline)
}

// framePeriod is one frame period of testConfig's 25 fps.
const framePeriod = 40 * time.Millisecond

// fakeClock is a manager clock that moves only when a test advances it.
type fakeClock struct{ ns atomic.Int64 }

func newFakeClock() *fakeClock {
	c := &fakeClock{}
	c.ns.Store(time.Unix(1000, 0).UnixNano())
	return c
}

func (c *fakeClock) now() time.Time { return time.Unix(0, c.ns.Load()) }

func (c *fakeClock) advance(d time.Duration) { c.ns.Add(int64(d)) }
