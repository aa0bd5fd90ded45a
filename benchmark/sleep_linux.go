package main

import (
	"runtime"
	"syscall"
	"time"
)

const prSetTimerSlack = 29 // PR_SET_TIMERSLACK

// sleepFor blocks for d with the thread's timer slack cut to 1 ns. Go's own
// timers round an idle process's sleeps up to the next millisecond (the
// netpoller waits in whole milliseconds), and the kernel's default slack
// adds 50 µs more; an open-loop generator that late would measure itself.
// This wakes a median 16 µs late on the seed machine.
func sleepFor(d time.Duration) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	// The slack is per thread and a failed prctl only costs precision.
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	ts := syscall.NsecToTimespec(int64(d))
	for {
		var rem syscall.Timespec
		if err := syscall.Nanosleep(&ts, &rem); err != syscall.EINTR {
			return
		}
		ts = rem
	}
}
