package main

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// median returns the median of xs (the mean of the two middle values for
// an even count), or 0 for an empty slice.  xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks, or 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	if frac == 0 || s[lo] == s[lo+1] {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// tailPercentile returns the highest percentile (in percent, capped at 99)
// that has at least ten samples beyond it for n samples, so a tail is never
// read off fewer than ten observations: 99 needs 1000 samples, 90 needs
// 100.  It returns 0 when n < 20.
func tailPercentile(n int) float64 {
	if n < 20 {
		return 0
	}
	p := 100 * (1 - 10/float64(n))
	if p > 99 {
		p = 99
	}
	return p
}

// durationsMs converts durations to float milliseconds.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// peakRSSMB reads the process's peak resident set size (VmHWM) from
// /proc/self/status, in MiB.  It returns 0 where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}
