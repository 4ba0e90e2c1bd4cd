//go:build unix

package main

import (
	"syscall"
	"time"
)

// sleepUntil blocks until t. It sleeps in the kernel directly: time.Sleep
// shares the runtime's network poller, whose timeouts round up to the next
// millisecond while sockets are busy, which would make an open-loop
// generator late by most of a millisecond on every request.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // an early wake-up (EINTR) just loops
	}
}
