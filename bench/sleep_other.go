//go:build !linux

package main

import "time"

// sleeper falls back to time.Sleep where timerfd does not exist; its
// wake-ups are coarser when the process is idle.
type sleeper struct{}

func newSleeper() (*sleeper, error) { return &sleeper{}, nil }

func (s *sleeper) until(deadline time.Time) error {
	time.Sleep(time.Until(deadline))
	return nil
}

func (s *sleeper) close() error { return nil }
