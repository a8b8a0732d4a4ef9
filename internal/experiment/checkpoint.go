package experiment

import (
	"bytes"
	"fmt"

	"paratick/internal/core"
	"paratick/internal/kvm"
	"paratick/internal/metrics"
	"paratick/internal/sim"
	"paratick/internal/snap"
)

// Checkpoint is the deterministic state of a scenario frozen mid-run. It
// carries everything needed to continue the run in a rebuilt world: the
// scenario's structural fingerprint (restore refuses a mismatched shape),
// the seed, the freeze instant, and the serialized engine + host state.
// A checkpoint is immutable and safe to restore from concurrently; the
// experiment runners fork one warmed-up checkpoint into independent arms.
type Checkpoint struct {
	fp      []byte
	seed    uint64
	at      sim.Time
	events  uint64
	payload []byte
}

// checkpointKind tags the snapshot container header.
const checkpointKind = "scenario"

// Seed returns the seed the checkpointed run was built with.
func (c *Checkpoint) Seed() uint64 { return c.seed }

// At returns the simulated instant the state was frozen at.
func (c *Checkpoint) At() sim.Time { return c.at }

// Events returns how many engine events the warmup dispatched.
func (c *Checkpoint) Events() uint64 { return c.events }

// snap moves the container fields after the header. Encoding leaves the
// checkpoint untouched, so concurrent arms may serialize it.
func (c *Checkpoint) snap(s *snap.Stream) {
	s.Section("checkpoint")
	fp, payload := string(c.fp), string(c.payload)
	s.String(&fp)
	s.U64(&c.seed)
	snap.Int(s, &c.at)
	s.U64(&c.events)
	s.String(&payload)
	if s.Decoding() {
		c.fp, c.payload = []byte(fp), []byte(payload)
	}
}

// Bytes serializes the checkpoint into the versioned container format.
// The bytes are stable: the same logical state always encodes identically.
func (c *Checkpoint) Bytes() []byte {
	var enc snap.Encoder
	snap.WriteHeader(&enc, checkpointKind)
	c.snap(snap.NewWriter(&enc))
	return enc.Bytes()
}

// LoadCheckpoint parses a container produced by Checkpoint.Bytes. The state
// payload is validated only when the checkpoint is resumed into a rebuilt
// scenario — the container alone cannot know the object graph.
func LoadCheckpoint(data []byte) (*Checkpoint, error) {
	dec := snap.NewDecoder(data)
	if err := snap.ReadHeader(dec, checkpointKind); err != nil {
		return nil, err
	}
	c := &Checkpoint{}
	s := snap.NewReader(dec)
	if c.snap(s); s.Err() != nil {
		return nil, s.Err()
	}
	if n := dec.Remaining(); n != 0 {
		return nil, fmt.Errorf("experiment: %d trailing bytes after checkpoint", n)
	}
	return c, nil
}

// CheckpointScenario runs the scenario to the given instant and freezes the
// complete simulator state.
func CheckpointScenario(s Scenario, seed uint64, at sim.Time) (*Checkpoint, error) {
	return checkpointScenario(s, seed, at, nil, nil)
}

// checkpointScenario is CheckpointScenario with telemetry and an arena.
func checkpointScenario(s Scenario, seed uint64, at sim.Time, m *metrics.Meter, a *arena) (*Checkpoint, error) {
	if at <= 0 {
		return nil, fmt.Errorf("experiment %s: checkpoint instant must be positive, got %v", s.Name, at)
	}
	w, err := buildWorld(s, seed, a)
	if err != nil {
		return nil, err
	}
	// In lane mode the freeze instant rounds up to the quantum grid: state
	// is only saveable at a barrier (mailboxes provably empty), and pausing
	// on the grid adds no barrier an uninterrupted run would not have.
	at = w.alignUp(at)
	if at >= w.deadline() {
		return nil, fmt.Errorf("experiment %s: checkpoint instant %v is not before the deadline %v", s.Name, at, w.deadline())
	}
	w.se.RunUntil(at)
	m.AddRun(w.se.Fired())
	if w.se.Stopped() {
		return nil, fmt.Errorf("experiment %s: workload finished before checkpoint instant %v — every resumed arm would measure an already-ended run", s.Name, at)
	}
	return w.freeze()
}

// ResumeScenario rebuilds the scenario, restores the checkpoint into it,
// and runs it to completion. The scenario must be structurally identical to
// the one the checkpoint was taken from (Name, Duration, and SnapshotProbe
// may differ — they do not shape the object graph).
func ResumeScenario(s Scenario, ck *Checkpoint) (*ScenarioResult, error) {
	w, err := thaw(s, ck, nil, nil)
	if err != nil {
		return nil, err
	}
	out := &ScenarioResult{}
	if err := w.runInto(nil, out); err != nil {
		return nil, err
	}
	return out, nil
}

// freeze captures the world's complete mutable state together with its
// structural fingerprint, seed, clock and event count.
func (w *world) freeze() (*Checkpoint, error) {
	var enc snap.Encoder
	if err := snapWorld(snap.NewWriter(&enc), w.se, w.host); err != nil {
		return nil, err
	}
	return &Checkpoint{
		fp:      w.fingerprint(),
		seed:    w.seed,
		at:      w.se.Now(),
		events:  w.se.Fired(),
		payload: enc.Bytes(),
	}, nil
}

// thaw is the one path that rebuilds a world from a checkpoint — resumes,
// fork arms and the snapshot probe all come through here. It builds the
// scenario from its spec, refuses a different shape, resets the engine
// (dropping every event construction scheduled), decodes the state (each
// component re-arms its pending events at their saved coordinates), and
// applies arm: the fork point where an ablation arm retunes a runtime knob
// that construction never captures, so every arm rebuilds from the same
// group scenario. The world keeps the hook for the probe to re-apply;
// every arm setter assigns a config value, so applying it twice is exact.
func thaw(s Scenario, ck *Checkpoint, arm func(*world) error, a *arena) (*world, error) {
	if ck == nil {
		return nil, fmt.Errorf("experiment %s: nil checkpoint", s.Name)
	}
	w, err := buildWorld(s, ck.seed, a)
	if err != nil {
		return nil, err
	}
	if fp := w.fingerprint(); !bytes.Equal(fp, ck.fp) {
		return nil, fmt.Errorf("experiment %s: checkpoint was taken from a structurally different scenario (fingerprint %v, rebuilt %v)",
			s.Name, snap.HashBytes(ck.fp), snap.HashBytes(fp))
	}
	w.se.Reset(0)
	dec := snap.NewDecoder(ck.payload)
	if err := snapWorld(snap.NewReader(dec), w.se, w.host); err != nil {
		return nil, err
	}
	if n := dec.Remaining(); n != 0 {
		return nil, fmt.Errorf("experiment %s: %d bytes left over after snapshot load", s.Name, n)
	}
	w.arm = arm
	if arm != nil {
		if err := arm(w); err != nil {
			return nil, fmt.Errorf("experiment %s: arm setup: %w", s.Name, err)
		}
	}
	return w, nil
}

// snapWorld moves a world's complete mutable state: engine scalars first
// (thaw needs the clock before events re-arm), then the full host.
func snapWorld(s *snap.Stream, se *sim.ShardedEngine, host *kvm.Host) error {
	se.Snap(s)
	host.Snap(s)
	return s.Err()
}

// ReferenceScenario returns the canonical single-VM fio scenario the CLI's
// checkpoint flags operate on: random 4 KiB reads on the configured device
// under the dynticks baseline, sized by opts.Scale.
func ReferenceScenario(opts Options) Scenario {
	return opts.oneVM("reference", VMSpec{Mode: core.DynticksIdle, VCPUs: 1, Setup: fioSetup(opts)})
}

// WarmupStats accounts what warm-started forking saved: warmup events are
// simulated once per group instead of once per arm.
type WarmupStats struct {
	// Groups is how many warmup checkpoints were taken.
	Groups int
	// Arms is how many runs were forked from those checkpoints.
	Arms int
	// GroupEvents is the number of warmup events actually simulated.
	GroupEvents uint64
	// SavedEvents is the number of warmup-event re-simulations the forks
	// avoided: each group's warmup would otherwise have run once per arm.
	SavedEvents uint64
}

// record accounts one group's warmup of the given event count forked into
// the given arm count.
func (s *WarmupStats) record(events uint64, arms int) {
	s.Groups++
	s.Arms += arms
	s.GroupEvents += events
	if arms > 1 {
		s.SavedEvents += events * uint64(arms-1)
	}
}

// String renders the savings line experiment reports append.
func (s WarmupStats) String() string {
	if s.Groups == 0 || s.GroupEvents == 0 {
		return ""
	}
	factor := float64(s.GroupEvents+s.SavedEvents) / float64(s.GroupEvents)
	return fmt.Sprintf("warm-started forks: %d warmup groups forked into %d arms; %d warmup events simulated once, %d re-simulations avoided (%.1fx fewer warmup events)",
		s.Groups, s.Arms, s.GroupEvents, s.SavedEvents, factor)
}
