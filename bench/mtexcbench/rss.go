package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// rssSampler records this process's resident set size every 10 ms,
// from start until finish. A high percentile of the samples measures
// the memory a round holds; the single highest sample, reached when a
// garbage collection happens to run late, varies too much from run to
// run to bound.
type rssSampler struct {
	stop chan struct{}
	done chan rssSamples
}

type rssSamples struct {
	mb  []float64
	err error
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan rssSamples, 1)}
	go func() {
		var out rssSamples
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			mb, err := residentMB()
			out.mb = append(out.mb, mb)
			if err != nil {
				out.err = err
				s.done <- out
				return
			}
			select {
			case <-s.stop:
				s.done <- out
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns its samples in MB.
func (s *rssSampler) finish() ([]float64, error) {
	close(s.stop)
	out := <-s.done
	return out.mb, out.err
}

// residentMB reads the resident set size from /proc/self/statm (Linux).
func residentMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("unreadable /proc/self/statm %q", b)
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20), err
}
