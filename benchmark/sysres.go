package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/bufpool"
)

// resSnap is one reading of everything the harness charges to a timed
// region from outside the program: process CPU and context switches
// (getrusage), the Go allocator and GC (runtime.MemStats), and the wire
// buffer pool.
type resSnap struct {
	user, sys   time.Duration
	vcsw, ivcsw int64
	mallocs     uint64
	allocBytes  uint64
	gcPauseNS   uint64
	poolGets    int64
	poolMisses  int64
	maxRSSKB    int64
}

// snapRes reads the counters. ReadMemStats stops the world, so callers
// take it only at the edges of a timed region, never inside one.
func snapRes(memStats bool) resSnap {
	var ru syscall.Rusage
	// Getrusage on RUSAGE_SELF cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	s := resSnap{
		user:     time.Duration(ru.Utime.Nano()),
		sys:      time.Duration(ru.Stime.Nano()),
		vcsw:     int64(ru.Nvcsw),
		ivcsw:    int64(ru.Nivcsw),
		maxRSSKB: int64(ru.Maxrss),
	}
	if memStats {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		s.mallocs, s.allocBytes, s.gcPauseNS = m.Mallocs, m.TotalAlloc, m.PauseTotalNs
	}
	p := bufpool.Default.Stats()
	s.poolGets, s.poolMisses = p.Gets, p.Misses
	return s
}

// resDelta is what a timed region consumed.
type resDelta struct {
	user, sys            time.Duration
	vcsw, ivcsw          int64
	mallocs, allocBytes  int64
	gcPauseNS            int64
	poolGets, poolMisses int64
}

func (a resSnap) since(b resSnap) resDelta {
	return resDelta{
		user: a.user - b.user, sys: a.sys - b.sys,
		vcsw: a.vcsw - b.vcsw, ivcsw: a.ivcsw - b.ivcsw,
		mallocs: int64(a.mallocs - b.mallocs), allocBytes: int64(a.allocBytes - b.allocBytes),
		gcPauseNS: int64(a.gcPauseNS - b.gcPauseNS),
		poolGets:  a.poolGets - b.poolGets, poolMisses: a.poolMisses - b.poolMisses,
	}
}

func (d *resDelta) add(o resDelta) {
	d.user += o.user
	d.sys += o.sys
	d.vcsw += o.vcsw
	d.ivcsw += o.ivcsw
	d.mallocs += o.mallocs
	d.allocBytes += o.allocBytes
	d.gcPauseNS += o.gcPauseNS
	d.poolGets += o.poolGets
	d.poolMisses += o.poolMisses
}

// residentMB is the resident set right now in MiB (VmRSS from
// /proc/self/status), or ru_maxrss where /proc is not there.
//
// peak_rss_MB is the largest of these read at the end of every timed
// block, not the kernel's high-water mark, for two reasons found the hard
// way. ru_maxrss survives fork and exec: started from a launcher (python →
// bash → this program) it reads the launcher's footprint at fork time
// whenever that is larger, the same number on every run. And VmHWM, which
// does not, catches the msg arm's transient GC overshoot on real (a 12 MB
// process peaks anywhere between 16 and 31 MB for a few milliseconds,
// run-to-run spread 25 %), burying what the metric is for: rings, arenas
// and pools, which are still resident when a block ends.
func residentMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	return float64(snapRes(false).maxRSSKB) / 1024
}
