// Command paratick-sim runs a single scenario — one VM, one workload, one
// tick mode — and prints its report, optionally comparing against the
// dynticks baseline.
//
// Usage:
//
//	paratick-sim [-mode dynticks|periodic|paratick] [-vcpus N] [-sockets N]
//	             [-workload SPEC] [-duration 1s] [-seed 1] [-compare]
//	             [-guest-hz 250] [-host-hz 250] [-haltpoll 0]
//	             [-overcommit N] [-sched fifo|fair] [-timeslice 6ms]
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
	if err := fs.Parse(args); err != nil {
		return err
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
	if *wl == "idle" && *duration <= 0 {
		return fmt.Errorf("idle workload requires -duration")
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
	return nil
}
