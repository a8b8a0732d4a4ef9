package metrics

// Checkpoint encoding of the measurement plane. Counters and Histograms
// are plain value types, so their Snap bodies are straight field lists —
// but they go through snap rather than raw memory copies so the on-disk
// format stays stable even if Go reorders struct layout or fields grow.

import (
	"paratick/internal/snap"
)

// histWireBuckets is the on-disk bucket count. The wire format predates the
// HistBuckets shrink and keeps 64 slots so committed checkpoints stay
// byte-identical: the in-memory histogram covers every reachable duration
// (see HistBuckets), so the padding slots are always zero.
const histWireBuckets = 64

// Snap moves the histogram. Encoding pads the wire to histWireBuckets with
// zeros; decoding folds any padding counts (a checkpoint from a
// wider-histogram build) into the absorbing top bucket rather than
// silently dropping them.
func (h *Histogram) Snap(s *snap.Stream) {
	for i := range h.Buckets {
		s.U64(&h.Buckets[i])
	}
	for i := len(h.Buckets); i < histWireBuckets; i++ {
		var pad uint64
		s.U64(&pad)
		h.Buckets[HistBuckets-1] += pad
	}
	s.U64(&h.N)
	snap.Int(s, &h.Sum)
	snap.Int(s, &h.MaxSeen)
}

// Snap moves the full counter set.
func (c *Counters) Snap(s *snap.Stream) {
	s.Section("counters")
	for i := range c.Exits {
		s.U64(&c.Exits[i])
	}
	s.U64(&c.Injections)
	s.U64(&c.VirtualTicks)
	s.U64(&c.GuestTicks)
	s.U64(&c.TimerArms)
	s.U64(&c.IdleEnters)
	s.U64(&c.IdleExits)
	s.U64(&c.Wakeups)
	s.U64(&c.ContextSw)
	snap.Int(s, &c.HostOverhead)
	snap.Int(s, &c.GuestUseful)
	snap.Int(s, &c.GuestKernel)
	s.U64(&c.IOReads)
	s.U64(&c.IOWrites)
	s.U64(&c.IOBytesRead)
	s.U64(&c.IOBytesWritten)
	for i := range c.ExitCost {
		c.ExitCost[i].Snap(s)
	}
	for i := range c.InjectLatency {
		c.InjectLatency[i].Snap(s)
	}
	c.TickInterval.Snap(s)
}
