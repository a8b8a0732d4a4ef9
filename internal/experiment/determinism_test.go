package experiment

import (
	"fmt"
	"testing"

	"paratick/internal/metrics"
)

// renderAll runs every experiment at the given worker count and concatenates
// each rendered table/figure, so any ordering or numeric divergence between
// worker counts shows up as a byte difference.
func renderAll(t *testing.T, workers int) string {
	t.Helper()
	opts := DefaultOptions()
	opts.Scale = 0.05
	opts.Workers = workers
	opts.Meter = &metrics.Meter{}
	return renderAllOpts(t, opts)
}

// renderAllOpts is renderAll with the options fully caller-controlled; the
// snapshot golden test reuses it to compare probe-on against probe-off runs.
func renderAllOpts(t *testing.T, opts Options) string {
	t.Helper()
	var out string
	t1, err := RunTable1(opts)
	if err != nil {
		t.Fatalf("table1 (workers=%d): %v", opts.Workers, err)
	}
	out += t1.Render()

	fig4, err := RunFig4(opts)
	if err != nil {
		t.Fatalf("fig4 (workers=%d): %v", opts.Workers, err)
	}
	out += fig4.Render() + fig4.Table().CSV() + RenderTable2(fig4).CSV()

	fig5, err := RunFig5Size(opts, VMSizes()[0])
	if err != nil {
		t.Fatalf("fig5 (workers=%d): %v", opts.Workers, err)
	}
	out += fig5.Render() + fig5.Table().CSV()

	fig6, err := RunFig6(opts)
	if err != nil {
		t.Fatalf("fig6 (workers=%d): %v", opts.Workers, err)
	}
	out += fig6.Render() + fig6.Table().CSV() + RenderTable4(fig6).CSV()

	cross, err := RunCrossover(opts)
	if err != nil {
		t.Fatalf("crossover (workers=%d): %v", opts.Workers, err)
	}
	out += cross.Render() + cross.Table().CSV()

	cons, err := RunConsolidation(opts)
	if err != nil {
		t.Fatalf("consolidation (workers=%d): %v", opts.Workers, err)
	}
	out += cons.Render()

	oc, err := RunOvercommit(opts)
	if err != nil {
		t.Fatalf("overcommit (workers=%d): %v", opts.Workers, err)
	}
	out += oc.Render() + oc.Table().CSV()

	abl, err := RunAllAblations(opts)
	if err != nil {
		t.Fatalf("ablations (workers=%d): %v", opts.Workers, err)
	}
	out += abl

	if opts.Meter != nil && (opts.Meter.Runs() == 0 || opts.Meter.Events() == 0) {
		t.Fatalf("meter recorded nothing (workers=%d): runs=%d events=%d",
			opts.Workers, opts.Meter.Runs(), opts.Meter.Events())
	}
	return out
}

// TestParallelRunnerDeterminism is the tentpole regression guard: fanning
// runs across a worker pool must not change a single byte of any rendered
// table or CSV relative to the serial runner.
func TestParallelRunnerDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite determinism check is slow")
	}
	serial := renderAll(t, 1)
	parallel := renderAll(t, 4)
	if serial != parallel {
		t.Fatalf("workers=4 output diverges from workers=1:\n--- serial ---\n%s\n--- parallel ---\n%s",
			firstDiff(serial, parallel), firstDiff(parallel, serial))
	}
}

// TestParallelRepeatsDeterminism covers the repeats fan-out path: averaging
// over seeds must accumulate in repeat order regardless of worker count.
func TestParallelRepeatsDeterminism(t *testing.T) {
	render := func(workers int) string {
		opts := DefaultOptions()
		opts.Scale = 0.02
		opts.Repeats = 3
		opts.Workers = workers
		fig, err := RunFig4(opts)
		if err != nil {
			t.Fatalf("fig4 repeats (workers=%d): %v", opts.Workers, err)
		}
		return fig.Render() + fig.Table().CSV()
	}
	if serial, parallel := render(1), render(4); serial != parallel {
		t.Fatalf("repeats output diverges:\n%s", firstDiff(serial, parallel))
	}
}

// TestPooledRepeatsShareNoSlot runs Fig. 4's repeats on two workers of one
// WorkerPool, the race detector's case (it runs under -short). Repeats
// once fanned out as a second worker layer whose concurrent repeats each
// claimed the pool's slots, so two goroutines drove one arena. Every run
// now goes through one executor; the output must still equal one worker's.
func TestPooledRepeatsShareNoSlot(t *testing.T) {
	render := func(workers int) string {
		opts := DefaultOptions()
		opts.Scale = 0.02
		opts.Repeats = 2
		opts.Workers = workers
		opts.Pool = NewWorkerPool()
		fig, err := RunFig4(opts)
		if err != nil {
			t.Fatalf("fig4 repeats (workers=%d): %v", workers, err)
		}
		return fig.Render() + fig.Table().CSV()
	}
	if serial, pooled := render(1), render(2); serial != pooled {
		t.Fatalf("pooled repeats diverge:\n%s", firstDiff(serial, pooled))
	}
}

// firstDiff returns a window around the first differing byte for readable
// failure output.
func firstDiff(a, b string) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := i - 80
			if lo < 0 {
				lo = 0
			}
			hi := i + 80
			if hi > len(a) {
				hi = len(a)
			}
			return fmt.Sprintf("first difference at byte %d: %q", i, a[lo:hi])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d", len(a), len(b))
}
