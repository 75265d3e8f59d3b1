package main

import (
	"math/rand"
	"sort"
	"sync"
	"time"
)

// The host-speed probe. On a shared virtual machine the work a vCPU gets
// done per second of wall time swings by up to 2x for stretches of
// seconds, and a latency measured in a slow stretch reads longer for
// reasons outside the program. So the benchmark measures in short rounds,
// stops the load between them, waits for the servers to go idle, and times
// a fixed piece of CPU work on every vCPU. Each round's times are scaled
// by the probes on either side of it to the speed at which that work takes
// probeRef. The raw numbers are reported beside the scaled ones.

// probeRef is the probe's time on the host the benchmark was defined on,
// in its fast stretches. A scaled time is what the measured one would read
// at that speed.
const probeRef = 1600 * time.Microsecond

// probeInput is the probe's fixed work: a seeded slice the probe sorts a
// copy of, then walks by the resulting order, so it mixes branches,
// arithmetic and dependent loads as request handling does.
var probeInput = func() []float64 {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1<<14)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	return xs
}()

func probeWork(buf []float64) float64 {
	copy(buf, probeInput)
	sort.Float64s(buf)
	sum, j := 0.0, 0
	for range buf {
		j = int(buf[j]*float64(len(buf))) % len(buf)
		sum += probeInput[j]
	}
	return sum
}

// probeSink keeps the compiler from dropping the probe's work.
var probeSink [maxConns]float64

// probeSpeed waits until d's processes are idle (d may be nil), then times
// probeWork on maxConns goroutines at once, three times each, and returns
// the mean over goroutines of each one's fastest time (the fastest, so
// that one preemption cannot pass for a slow stretch).
func probeSpeed(d *deployment) time.Duration {
	if d != nil {
		d.quiesce()
	}
	var wg sync.WaitGroup
	best := make([]time.Duration, maxConns)
	for g := range best {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]float64, len(probeInput))
			for i := 0; i < 3; i++ {
				start := time.Now()
				probeSink[g] = probeWork(buf)
				if d := time.Since(start); i == 0 || d < best[g] {
					best[g] = d
				}
			}
		}()
	}
	wg.Wait()
	var sum time.Duration
	for _, d := range best {
		sum += d
	}
	return sum / time.Duration(len(best))
}

// scaleBetween is the factor that takes a time measured between two probes
// to probeRef speed.
func scaleBetween(before, after time.Duration) float64 {
	return float64(2*probeRef) / float64(before+after)
}

// quiesce waits until d's processes use less than 2% of a CPU over 5 ms,
// or 250 ms have passed, so that a probe does not compete with a server's
// own background work (a garbage collection, say), which would make a
// server that does more of it read as faster.
func (d *deployment) quiesce() {
	const interval = 5 * time.Millisecond
	deadline := time.Now().Add(250 * time.Millisecond)
	prev := d.cpuNanos()
	for time.Now().Before(deadline) {
		time.Sleep(interval)
		cur := d.cpuNanos()
		if cur-prev < int64(interval)/50 {
			return
		}
		prev = cur
	}
}
