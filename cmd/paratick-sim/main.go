// Command paratick-sim runs a single scenario — one VM, one workload, one
// tick mode — and prints its report, optionally comparing against the
// dynticks baseline.
//
// -trace N records the run's last N exit, injection and scheduler events
// and prints a perf-style summary of them after the report; -events N adds
// the raw tail, and -trace-out FILE.json exports them as Chrome trace JSON
// for Perfetto (ui.perfetto.dev), one track per pCPU/vCPU. The bytes
// depend only on the flags.
//
// Usage:
//
//	paratick-sim [-mode dynticks|periodic|paratick] [-vcpus N] [-sockets N]
//	             [-workload SPEC] [-duration 1s] [-seed 1] [-compare]
//	             [-guest-hz 250] [-host-hz 250] [-haltpoll 0] [-ple 0]
//	             [-spin 0] [-overcommit N] [-sched fifo|fair]
//	             [-timeslice 6ms] [-topup] [-disarm-on-idle-exit]
//	             [-trace N [-events N] [-trace-out FILE.json]]
//
// Workload specs:
//
//	parsec-seq:NAME          sequential PARSEC benchmark (e.g. dedup)
//	parsec-par:NAME:THREADS  multithreaded PARSEC benchmark
//	fio:PATTERN:BSKB:MB      fio job, e.g. fio:rndr:4:64
//	sync:THREADS:RATE        §3.3 blocking-sync microbenchmark
//	idle                     no tasks (requires -duration)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"paratick"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "paratick-sim:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("paratick-sim", flag.ContinueOnError)
	mode := fs.String("mode", "paratick", "tick mode: dynticks, periodic, paratick")
	vcpus := fs.Int("vcpus", 1, "vCPU count (0 = the default, 1)")
	sockets := fs.Int("sockets", 1, "NUMA sockets to spread vCPUs over (0 = the default, 1)")
	wl := fs.String("workload", "fio:rndr:4:16", "workload spec (see -help)")
	duration := fs.Duration("duration", 0, "fixed run duration (for idle workloads)")
	seed := fs.Uint64("seed", 1, "deterministic seed")
	guestHz := fs.Int("guest-hz", 250, "guest tick frequency in Hz, at most 1000 (0 = the default, 250)")
	hostHz := fs.Int("host-hz", 250, "host tick frequency in Hz, at most 1000 (0 = the default, 250)")
	haltPoll := fs.Duration("haltpoll", 0, "KVM halt-polling window (0 = disabled, as in the paper)")
	pleWindow := fs.Duration("ple", 0, "pause-loop-exiting window (0 = disabled, as in the paper)")
	spin := fs.Duration("spin", 0, "adaptive lock spin before blocking (0 = pure blocking sync)")
	overcommit := fs.Int("overcommit", 1, "vCPUs per physical CPU (0 = the default, 1)")
	schedPolicy := fs.String("sched", "fifo", "host vCPU scheduler: fifo, fair")
	timeslice := fs.Duration("timeslice", 0, "host pCPU timeslice (0 = 6ms default)")
	topUp := fs.Bool("topup", false, "enable the §4.1 frequency-mismatch top-up timer")
	disarm := fs.Bool("disarm-on-idle-exit", false, "invert the §5.2.5 heuristic (ablation)")
	compare := fs.Bool("compare", false, "also run the dynticks baseline and print the comparison")
	traceCap := fs.Int("trace", 0, "trace ring capacity: record the last N events and print their summary (0 = no tracing)")
	events := fs.Int("events", 0, "print the last N raw trace events (requires -trace)")
	traceOut := fs.String("trace-out", "", "file for Chrome trace-event JSON (requires -trace)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *traceCap < 0 || *events < 0:
		return fmt.Errorf("-trace and -events must be non-negative")
	case *traceCap == 0 && (*events > 0 || *traceOut != ""):
		return fmt.Errorf("-events and -trace-out require -trace")
	case *traceCap > 0 && *compare:
		return fmt.Errorf("-trace traces one run; -compare runs two")
	}

	m, err := paratick.ParseTickMode(*mode)
	if err != nil {
		return err
	}
	pol, err := paratick.ParseSchedPolicy(*schedPolicy)
	if err != nil {
		return err
	}
	workload, err := paratick.ParseWorkloadSpec(*wl, *duration)
	if err != nil {
		return err
	}
	s := paratick.Scenario{
		Mode:             m,
		VCPUs:            *vcpus,
		Sockets:          *sockets,
		Overcommit:       *overcommit,
		Sched:            pol,
		Timeslice:        *timeslice,
		GuestHz:          *guestHz,
		HostHz:           *hostHz,
		Seed:             *seed,
		Duration:         *duration,
		HaltPoll:         *haltPoll,
		PLEWindow:        *pleWindow,
		AdaptiveSpin:     *spin,
		TopUpTimer:       *topUp,
		DisarmOnIdleExit: *disarm,
		TraceCapacity:    *traceCap,
		Workload:         workload,
	}
	if *compare {
		cmp, err := paratick.CompareToBaseline(s)
		if err != nil {
			return err
		}
		fmt.Fprint(w, cmp.Summary())
		return nil
	}
	rep, err := paratick.Run(s)
	if err != nil {
		return err
	}
	fmt.Fprint(w, rep.Summary())
	if *traceCap == 0 {
		return nil
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, rep.Trace.Summary())
	if *events > 0 {
		evs := rep.Trace.Events()
		fmt.Fprintln(w)
		for _, e := range evs[max(0, len(evs)-*events):] {
			fmt.Fprintln(w, e.String())
		}
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		if err := rep.Trace.WriteChrome(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", *traceOut)
	}
	return nil
}
