// Command benchmark is the repo's one repeatable benchmark of the live
// backends (real, net/shm, net/TCP) and ckserve, driven from outside
// through their public functions. See README.md in this directory for
// the workloads, the metrics and how they interact, and BENCHMARK.json at
// the repo root for the registered contract.
//
//	go run ./benchmark [-workload NAME|all] [-seed N] [-seconds S] [-trace 0|1] [-layers] [-json FILE]
//	go run ./benchmark -repeat N [-workload ...] [-json FILE]
//	go run ./benchmark -compare old.json new.json
//	go run ./benchmark -smoke
//
// Every workload is a closed loop with one operation in flight per
// client: the driver issues the next op only after the previous reply.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
)

// logw receives the human report (stdout; the contract's JSON object is
// always the last line after it). Tests silence it.
var logw io.Writer = os.Stdout

// verbose adds one line per timed block to the report.
var verbose bool

// stamp identifies what produced a set of numbers.
type stamp struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Kernel     string  `json:"kernel"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

func newStamp(seed uint64, seconds float64) stamp {
	s := stamp{Commit: "unknown", GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Kernel: "unknown", Seed: seed, Seconds: seconds}
	// Outside a git checkout (the driver's copy is none) the commit stays unknown.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		s.Commit = strings.TrimSpace(string(out))
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		var b []byte
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		s.Kernel = string(b)
	}
	return s
}

// report is what -json writes and -compare reads: one or more sets (one
// per -repeat round) of per-workload results from the same build.
type report struct {
	Stamp stamp                 `json:"stamp"`
	Sets  []map[string]wlResult `json:"sets"`
}

func main() {
	workload := flag.String("workload", "all", "workload name, or all")
	seedFlag := flag.Int64("seed", 1, "seed for block order, payload bytes and netrt.Config.Seed")
	seconds := flag.Float64("seconds", runSeconds, "timed region per workload, in seconds")
	traceFlag := flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced pass + layer microbenchmarks, per-layer metrics")
	layers := flag.Bool("layers", false, "run only the layer microbenchmarks and print them")
	jsonOut := flag.String("json", "", "also write the full report to this file (input of -compare)")
	compare := flag.Bool("compare", false, "compare two -json reports: -compare old.json new.json")
	repeat := flag.Int("repeat", 1, "run this many sets of the same build and print the largest pairwise difference per metric")
	smoke := flag.Bool("smoke", false, "every workload, one tiny block per arm, both passes: a wiring check, not a measurement")
	flag.BoolVar(&verbose, "v", false, "print every timed block's own percentiles")
	spec := flag.Bool("spec", false, "print BENCHMARK.json as generated from the benchmark's tables")
	flag.Parse()
	seed := uint64(*seedFlag) // any integer a driver passes is a seed

	switch {
	case *spec:
		os.Stdout.Write(benchmarkJSON())
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal("-compare needs two report files: -compare old.json new.json")
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 {
		fatal("unexpected arguments %q", flag.Args())
	}
	// Two PEs spin-poll; below two cores the numbers measure the Go
	// scheduler's time slicing, not the transport.
	if runtime.NumCPU() < 2 {
		fatal("the benchmark needs at least 2 cores, this host has %d", runtime.NumCPU())
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	var names []string
	if *workload == "all" || *smoke {
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	} else if findWorkload(*workload) {
		names = []string{*workload}
	} else {
		fatal("unknown workload %q", *workload)
	}

	st := newStamp(seed, *seconds)
	fmt.Fprintf(logw, "benchmark: commit %s, %s, nproc %d, GOMAXPROCS %d, kernel %s, seed %d, %.0f s timed per workload\n",
		st.Commit, st.GoVersion, st.NumCPU, st.GOMAXPROCS, st.Kernel, st.Seed, st.Seconds)
	fmt.Fprintln(logw, "closed loop, one op in flight per client; two arms (msg, ckd) in interleaved timed blocks")

	if *layers {
		vals := runLayerBenches(seed, *smoke)
		for _, l := range perLayer {
			if !l.traced {
				fmt.Fprintf(logw, "  %-34s %14.4f %s\n", l.Name, vals[l.Name], l.Unit)
			}
		}
		return
	}

	rep := report{Stamp: st}
	ok := true
	var last wlResult
	var micro map[string]float64
	for round := 0; round < *repeat; round++ {
		set := make(map[string]wlResult)
		for _, name := range names {
			passes := []bool{*traceFlag == 1}
			if *smoke {
				passes = []bool{false, true}
			}
			for _, traced := range passes {
				var res wlResult
				var err error
				if traced {
					if micro == nil {
						micro = runLayerBenches(seed, *smoke)
					}
					res, err = measureLayers(name, seed, *seconds, *smoke, micro)
				} else {
					res, err = measureE2E(name, seed, *seconds, *smoke)
				}
				if err != nil {
					fatal("%s: %v", name, err)
				}
				printResult(res, traced)
				ok = ok && res.Correct
				if prev, seen := set[name]; seen {
					// -smoke ran both passes: keep one entry with every metric.
					for k, v := range prev.Metrics {
						res.Metrics[k] = v
					}
				}
				set[name] = res
				last = res
			}
		}
		rep.Sets = append(rep.Sets, set)
	}
	if *repeat > 1 {
		ok = printRepeat(rep) && ok
	}
	if *jsonOut != "" {
		b, err := json.MarshalIndent(rep, "", " ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(b, '\n'), 0o644)
		}
		if err != nil {
			fatal("write %s: %v", *jsonOut, err)
		}
	}
	// The contract's result object, last line of standard output.
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]metricVal `json:"metrics"`
	}{last.Correct, last.Attempted, last.Failed, last.Metrics})
	if err != nil {
		fatal("encode result: %v", err)
	}
	fmt.Println(string(line))
	if !ok {
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}
