package hw

import "fmt"

// Vector is an interrupt vector number in the x86 IDT space (0–255).
type Vector uint8

// Interrupt vectors used by the model. LOCAL_TIMER_VECTOR and
// RESCHEDULE_VECTOR match the roles of their Linux namesakes;
// ParatickVector is the vector the paper reserves for virtual scheduler
// ticks ("We reserve vector 235 for this purpose", §5.1).
const (
	LocalTimerVector Vector = 236 // guest LAPIC timer interrupt
	ParatickVector   Vector = 235 // paratick virtual scheduler tick
	RescheduleVector Vector = 253 // wakeup IPI between vCPUs
	CallFuncVector   Vector = 251 // smp_call_function IPI (TLB shootdown etc.)
	IODeviceBase     Vector = 48  // first vector used by emulated I/O devices
)

// vectorNames caches every vector's String, so naming a vector on the
// interrupt-injection path never formats.
var vectorNames = func() (names [256]string) {
	for i := range names {
		names[i] = Vector(i).format()
	}
	return names
}()

// String names the well-known vectors for diagnostics.
//
//paratick:noalloc
func (v Vector) String() string { return vectorNames[v] }

// format builds the name String returns.
func (v Vector) format() string {
	switch v {
	case LocalTimerVector:
		return "local-timer(236)"
	case ParatickVector:
		return "paratick(235)"
	case RescheduleVector:
		return "reschedule(253)"
	case CallFuncVector:
		return "call-func(251)"
	}
	if v >= IODeviceBase && v < IODeviceBase+32 {
		return fmt.Sprintf("io-dev(%d)", uint8(v))
	}
	return fmt.Sprintf("vec(%d)", uint8(v))
}

// IsTimer reports whether the vector corresponds to a (physical or virtual)
// scheduler-tick interrupt.
func (v Vector) IsTimer() bool {
	return v == LocalTimerVector || v == ParatickVector
}
