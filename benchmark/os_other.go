//go:build !linux

package main

import "time"

// Off Linux the package builds so `go build ./...` stays whole, but the
// millisecond sleeps trip the generator-lag refusal and the resource
// metrics read zero: results are only published from Linux.

func preciseTimers() {}

func sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }

func cpuTime() time.Duration { return 0 }

func peakRSSMB() float64 { return 0 }
