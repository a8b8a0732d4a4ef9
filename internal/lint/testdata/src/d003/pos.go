package d003

import (
	"fmt"

	"paratick/internal/snap"
)

// Render prints a map in iteration order: one finding.
func Render(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v)
	}
}

// Total accumulates floats in map order (float addition is not
// associative): one finding.
func Total(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v
	}
	return sum
}

// SaveCounts feeds a map range straight into a snapshot encoder: the
// serialized bytes would depend on iteration order, so two snapshots of
// identical state could fail to compare byte-equal. One finding.
func SaveCounts(enc *snap.Encoder, m map[string]uint64) {
	for _, v := range m {
		enc.U64(v)
	}
}

// SnapCounts does the same through a bidirectional stream: one finding.
func SnapCounts(s *snap.Stream, m map[string]uint64) {
	for k := range m {
		v := m[k]
		s.U64(&v)
	}
}

// SnapInts reaches the stream through a generic snap helper: one finding.
func SnapInts(s *snap.Stream, m map[string]int) {
	for k := range m {
		v := m[k]
		snap.Int(s, &v)
	}
}
