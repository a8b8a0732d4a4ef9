package experiment

// Checkpoint support for the experiment-layer programs, mirroring
// internal/workload/snapshot.go: each program moves exactly the fields its
// Next mutates; construction-time parameters (devices, locks, horizons)
// come back from rebuilding the scenario.

import (
	"paratick/internal/guest"
	"paratick/internal/snap"
)

var (
	_ guest.ProgramState = (*idleCycleProgram)(nil)
	_ guest.ProgramState = (*timerAppProgram)(nil)
	_ guest.ProgramState = (*spinLockProgram)(nil)
)

// SnapState implements guest.ProgramState.
func (p *idleCycleProgram) SnapState(s *snap.Stream) {
	s.Bool(&p.inIO)
}

// SnapState implements guest.ProgramState.
func (p *timerAppProgram) SnapState(s *snap.Stream) {
	snap.Int(s, &p.iters)
	s.Bool(&p.sleeping)
}

// SnapState implements guest.ProgramState.
func (p *spinLockProgram) SnapState(s *snap.Stream) {
	snap.Int(s, &p.iters)
	snap.Int(s, &p.phase)
}
