// Command ckbench regenerates the paper's evaluation artifacts: every
// table and figure of "CkDirect: Unsynchronized One-Sided Communication
// in a Message-Driven Paradigm" (ICPP 2009), plus the ablations described
// in DESIGN.md. Every experiment runs in virtual time, so its output is
// byte-identical run to run.
//
// Usage:
//
//	ckbench -list
//	ckbench -exp table1            # one experiment, quick scale
//	ckbench -exp all -scale paper  # full published configurations
//	ckbench -exp fig3 -format csv  # series for plotting tools
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
)

func main() {
	var (
		expID   = flag.String("exp", "all", "experiment id (see -list) or 'all'")
		scale   = flag.String("scale", "quick", "quick | paper")
		format  = flag.String("format", "text", "text | csv")
		list    = flag.Bool("list", false, "list experiments and exit")
		timings = flag.Bool("timings", false, "print wall-clock time per experiment")
	)
	flag.Parse()
	if *format != "text" && *format != "csv" {
		fmt.Fprintf(os.Stderr, "ckbench: unknown format %q\n", *format)
		os.Exit(2)
	}

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-18s %s\n", e.ID, e.Description)
		}
		return
	}
	sc, err := bench.ParseScale(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var todo []bench.Experiment
	if *expID == "all" {
		todo = bench.All()
	} else {
		e, ok := bench.Find(*expID)
		if !ok {
			fmt.Fprintf(os.Stderr, "ckbench: unknown experiment %q (try -list)\n", *expID)
			os.Exit(2)
		}
		todo = []bench.Experiment{e}
	}

	for _, e := range todo {
		start := time.Now()
		for _, t := range e.Run(sc) {
			if *format == "csv" {
				fmt.Printf("# %s: %s\n%s\n", t.ID, t.Title, t.CSV())
			} else {
				fmt.Println(t.Format())
			}
		}
		if *timings {
			fmt.Printf("  [%s took %v]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		}
	}
}
