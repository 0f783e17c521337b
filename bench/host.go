package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// fallbackLLC is assumed when sysfs does not describe the caches.
const fallbackLLC = 32 << 20

// llcBytes returns the size of the highest-level cache cpu0 reports in
// sysfs (fallbackLLC when it reports none).
func llcBytes() int64 {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	var best int64
	bestLevel := -1
	for _, d := range dirs {
		lvl, err := readInt(filepath.Join(d, "level"))
		if err != nil {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(d, "size"))
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(raw))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			continue
		}
		if int(lvl) > bestLevel {
			bestLevel, best = int(lvl), n*mult
		}
	}
	if bestLevel < 0 {
		return fallbackLLC
	}
	return best
}

func readInt(path string) (int64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	return strconv.ParseInt(strings.TrimSpace(string(raw)), 10, 64)
}

// memAvailable returns MemAvailable from /proc/meminfo in bytes (0 when
// unreadable).
func memAvailable() int64 {
	raw, err := os.ReadFile("/proc/meminfo")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "MemAvailable:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseInt(f[1], 10, 64)
				return kb << 10
			}
		}
	}
	return 0
}

// rssBytes reads the resident set size from /proc/self/statm.
func rssBytes() (int64, error) {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(raw))
	if len(f) < 2 {
		return 0, fmt.Errorf("short /proc/self/statm: %q", raw)
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0, err
	}
	return pages * int64(os.Getpagesize()), nil
}

// rssSampler records the largest resident set seen between start and
// stop. VmHWM would also count the set-up repetitions and the reference
// solves that run before and after the measured window, so the window is
// sampled instead: one statm read every 10 ms.
type rssSampler struct {
	peak atomic.Int64
	stop chan struct{}
	done sync.WaitGroup
}

func startRSSSampler() (*rssSampler, error) {
	first, err := rssBytes()
	if err != nil {
		return nil, fmt.Errorf("peak_rss_mb needs /proc/self/statm: %w", err)
	}
	s := &rssSampler{stop: make(chan struct{})}
	s.peak.Store(first)
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.sample()
			}
		}
	}()
	return s, nil
}

func (s *rssSampler) sample() {
	if v, err := rssBytes(); err == nil && v > s.peak.Load() {
		s.peak.Store(v)
	}
}

// Stop ends sampling and returns the peak in MiB.
func (s *rssSampler) Stop() float64 {
	close(s.stop)
	s.done.Wait()
	s.sample()
	return float64(s.peak.Load()) / (1 << 20)
}

// releaseMemory returns freed heap to the OS so that the resident set of
// the next phase does not carry the previous phase's garbage.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// parallelFor runs fn(0..n-1) on up to workers goroutines and waits.
func parallelFor(n, workers int, fn func(i int)) {
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// triadGBps measures the STREAM triad a = b + s·c over three float64
// arrays of n elements each, split across workers goroutines, and
// returns the best of reps timings in GB/s. Each timing runs passes
// sweeps inside the worker goroutines, so that short cache-resident
// sweeps are not dominated by goroutine start-up. Bytes are computed
// (3·8·n per sweep; the write-allocate read of a is not counted).
func triadGBps(n, workers, passes, reps int) float64 {
	a := make([]float64, n)
	b := make([]float64, n)
	c := make([]float64, n)
	parallelFor(workers, workers, func(w int) {
		lo, hi := w*n/workers, (w+1)*n/workers
		for i := lo; i < hi; i++ {
			a[i], b[i], c[i] = 0, 1, 2
		}
	})
	best := 0.0
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		parallelFor(workers, workers, func(w int) {
			lo, hi := w*n/workers, (w+1)*n/workers
			aa, bb, cc := a[lo:hi], b[lo:hi:hi], c[lo:hi:hi]
			for p := 0; p < passes; p++ {
				for i := range aa {
					aa[i] = bb[i] + 3*cc[i]
				}
			}
		})
		if gbps := float64(3*8*n*passes) / time.Since(t0).Seconds() / 1e9; gbps > best {
			best = gbps
		}
	}
	return best
}

// hostProbe fills the host.* denominators: CPU count, cache size, and
// the triad bandwidth at a cache-resident and a DRAM-resident footprint.
func hostProbe(m metrics, smoke bool) {
	cpus := runtime.NumCPU()
	procs := runtime.GOMAXPROCS(0)
	llc := llcBytes()
	m["host.cpus"] = float64(cpus)
	m["host.gomaxprocs"] = float64(procs)
	m["host.llc_bytes"] = float64(llc)

	// Cache-resident: three arrays of 32 KiB per worker (96 KiB per
	// worker in all), many short passes.
	cacheN := procs * (32 << 10) / 8
	m["host.triad_gbps.cache"] = triadGBps(cacheN, procs, 2000, 3)

	// DRAM-resident: each array at least four times the LLC, shrunk only
	// when three of them would not fit in half the available memory.
	arrayBytes := 4 * llc
	if avail := memAvailable(); avail > 0 && 3*arrayBytes > avail/2 {
		arrayBytes = avail / 6
	}
	reps := 3
	if smoke {
		arrayBytes, reps = 8<<20, 1
	}
	m["host.triad_array_bytes"] = float64(arrayBytes)
	m["host.triad_gbps.dram"] = triadGBps(int(arrayBytes/8), procs, 1, reps)
	releaseMemory()
}
