//go:build !linux

package main

import "time"

// sleepFor falls back to the runtime's timers where prctl is not available.
func sleepFor(d time.Duration) { time.Sleep(d) }
