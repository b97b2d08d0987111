package main

import (
	"syscall"
	"time"
)

// prSetTimerslack is prctl(2)'s PR_SET_TIMERSLACK.
const prSetTimerslack = 29

// preciseTimers asks the kernel not to round this thread's sleeps: the
// default 50 us timer slack is a quarter of the tightest lag the generator
// is allowed. The caller has locked the goroutine to its thread.
func preciseTimers() {
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0)
}

// sleepUntil blocks the calling thread until t with nanosleep(2).
// time.Sleep will not do: the runtime's timers wake through epoll, whose
// timeout is whole milliseconds.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (ru_maxrss is KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
