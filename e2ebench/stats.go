package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// percentile returns the p-th quantile (0..1) of xs by linear
// interpolation between closest ranks; 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// geomean is the geometric mean of positive values. It sums their logs
// in sorted order, so the result does not depend on the order the values
// came in, bit for bit.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	sum := 0.0
	for _, x := range s {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(s)))
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), which is how the benchmark's bounds are judged.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := make([]float64, n-1)
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// rssMB reads a process's current resident set (VmRSS) in MB.
func rssMB(pid string) float64 {
	raw, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// rssSampler tracks the summed resident set of some processes, sampled
// every 10 ms, as one peak per segment of the run. A single high-water
// mark moves with where the collector happened to run at the worst
// moment; the median of several segment peaks does not. Segments end at
// cut, or every `every` when that is positive. Between pause and resume
// nothing is sampled.
type rssSampler struct {
	pids   []string
	mu     sync.Mutex // held through each sample
	paused bool
	peaks  []float64
	stop   chan struct{}
	done   chan struct{}
}

func startRSS(every time.Duration, pids ...string) *rssSampler {
	s := &rssSampler{pids: pids, peaks: []float64{0}, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		segmentEnd := time.Now().Add(every)
		for {
			s.sample()
			if every > 0 && time.Now().After(segmentEnd) {
				s.cut()
				segmentEnd = segmentEnd.Add(every)
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.paused {
		return
	}
	sum := 0.0
	for _, p := range s.pids {
		sum += rssMB(p)
	}
	if n := len(s.peaks) - 1; sum > s.peaks[n] {
		s.peaks[n] = sum
	}
}

// pause stops sampling; once it returns, no sample is in flight.
func (s *rssSampler) pause() {
	s.mu.Lock()
	s.paused = true
	s.mu.Unlock()
}

// resume starts sampling again, with one sample at once.
func (s *rssSampler) resume() {
	s.mu.Lock()
	s.paused = false
	s.mu.Unlock()
	s.sample()
}

// cut closes the current segment.
func (s *rssSampler) cut() {
	s.sample()
	s.mu.Lock()
	s.peaks = append(s.peaks, 0)
	s.mu.Unlock()
}

// finish stops sampling and returns the median segment peak.
func (s *rssSampler) finish() float64 {
	close(s.stop)
	<-s.done
	s.sample()
	peaks := s.peaks
	if len(peaks) > 1 && peaks[len(peaks)-1] == 0 {
		peaks = peaks[:len(peaks)-1]
	}
	return median(peaks)
}
