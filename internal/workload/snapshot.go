package workload

// Checkpoint support for the workload programs. Each program moves only the
// fields its Next reads and mutates; construction-time parameters (job
// descriptions, devices, lock/barrier pointers) are re-established by
// rebuilding the scenario and are deliberately absent from the encoding.

import (
	"slices"

	"paratick/internal/guest"
	"paratick/internal/snap"
)

var (
	_ guest.ProgramState = (*fioProgram)(nil)
	_ guest.ProgramState = (*syncProgram)(nil)
	_ guest.ProgramState = (*seqProgram)(nil)
	_ guest.ProgramState = (*parProgram)(nil)
)

// SnapState implements guest.ProgramState.
func (f *fioProgram) SnapState(s *snap.Stream) {
	snap.Int(s, &f.opsLeft)
	s.Bool(&f.thinking)
	snap.Int(s, &f.opIndex)
}

// SnapState implements guest.ProgramState.
func (p *syncProgram) SnapState(s *snap.Stream) {
	snap.Int(s, &p.phase)
	s.Bool(&p.done)
	s.Bool(&p.left)
}

// SnapState implements guest.ProgramState.
func (q *seqProgram) SnapState(s *snap.Stream) {
	snap.Int(s, &q.remaining)
	s.Bool(&q.ioPending)
	s.Bool(&q.ioSeq)
}

// SnapState implements guest.ProgramState. The current-iteration lock moves
// as its index into the thread's stripe slice (-1 when none is held or
// pending), never as a pointer.
func (t *parProgram) SnapState(s *snap.Stream) {
	lock := slices.Index(t.locks, t.lock)
	snap.Int(s, &lock)
	snap.Int(s, &t.remaining)
	snap.Int(s, &t.iter)
	snap.Int(s, &t.phase)
	s.Bool(&t.left)
	if lock < -1 || lock >= len(t.locks) {
		s.Failf("workload: %s: snapshot lock stripe %d out of %d", t.p.Name, lock, len(t.locks))
		return
	}
	if s.Decoding() {
		t.lock = nil
		if lock >= 0 {
			t.lock = t.locks[lock]
		}
	}
}
