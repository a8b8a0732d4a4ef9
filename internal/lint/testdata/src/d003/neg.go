package d003

import (
	"fmt"
	"sort"

	"paratick/internal/snap"
)

// Sorted collects keys and sorts them before use: the sanctioned pattern.
func Sorted(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Counts accumulates integers: order-independent, legal.
func Counts(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// Justified documents why ordering is harmless; the directive suppresses
// the finding.
func Justified(m map[string]int) {
	//lint:ordered demo fixture: output is consumed order-insensitively
	for k := range m {
		fmt.Println(k)
	}
}

// SortedSave collects and sorts the keys before encoding — the sanctioned
// pattern for serializing a map: the bytes are deterministic, no finding
// (the second loop ranges over the sorted slice, not the map).
func SortedSave(enc *snap.Encoder, m map[string]uint64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		enc.String(k)
		enc.U64(m[k])
	}
}

// SortedSnap is the same sanctioned pattern through a stream: no finding.
func SortedSnap(s *snap.Stream, m map[string]uint64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := m[k]
		s.String(&k)
		s.U64(&v)
	}
}
