package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// sleeper blocks the calling goroutine until a deadline on a timerfd
// read through the runtime's network poller, so a wake-up is as prompt
// as a socket read in production. time.Sleep cannot stand in for it: an
// idle Go process waits for timers in epoll with millisecond
// resolution, so the generator would wake either on time or up to 1 ms
// late depending on whether the shard workers happen to be running.
type sleeper struct {
	fd int
	f  *os.File
}

func newSleeper() (*sleeper, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	return &sleeper{fd: int(fd), f: os.NewFile(fd, "timerfd")}, nil
}

func (s *sleeper) until(deadline time.Time) error {
	d := time.Until(deadline)
	if d <= 0 {
		return nil
	}
	// struct itimerspec: it_interval {sec, nsec}, it_value {sec, nsec}.
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(s.fd), 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return os.NewSyscallError("timerfd_settime", errno)
	}
	var expirations [8]byte
	_, err := s.f.Read(expirations[:])
	return err
}

func (s *sleeper) close() error { return s.f.Close() }
