// Package hw models the hardware substrate underneath the hypervisor: CPU
// topology, the interrupt-vector space, the timekeeping devices involved in
// scheduler-tick management (TSC-deadline timer, VMX preemption timer), and
// the cost model that prices every hardware interaction in nanoseconds.
//
// The package corresponds to the pieces of the paper's test platform that
// cannot be used directly from Go: the 4-socket/80-CPU NUMA server, the
// LAPIC, and the VT-x timer facilities (§2, §3 of the paper).
package hw

import "fmt"

// CPUID identifies a physical CPU.
type CPUID int

// Topology describes the physical CPU layout of the host. The paper's test
// system is a 4-socket NUMA server with 20 CPUs per socket (§6).
type Topology struct {
	Sockets        int
	CPUsPerSocket  int
	CrossSocketTax float64 // multiplier on IPI/wakeup costs across sockets
}

// PaperTopology returns the evaluation machine from §6: 4 sockets × 20 CPUs.
func PaperTopology() Topology {
	return Topology{Sockets: 4, CPUsPerSocket: 20, CrossSocketTax: 1.35}
}

// SmallTopology returns a single-socket 16-CPU machine, used by the §3.3
// hypothetical scenarios (Table 1).
func SmallTopology() Topology {
	return Topology{Sockets: 1, CPUsPerSocket: 16, CrossSocketTax: 1.35}
}

// Validate reports whether the topology is well formed.
func (t Topology) Validate() error {
	if t.Sockets <= 0 {
		return fmt.Errorf("hw: topology needs at least one socket, got %d", t.Sockets)
	}
	if t.CPUsPerSocket <= 0 {
		return fmt.Errorf("hw: topology needs at least one CPU per socket, got %d", t.CPUsPerSocket)
	}
	if t.CrossSocketTax < 1 {
		return fmt.Errorf("hw: cross-socket tax must be >= 1, got %v", t.CrossSocketTax)
	}
	return nil
}

// NumCPUs returns the total number of physical CPUs.
func (t Topology) NumCPUs() int { return t.Sockets * t.CPUsPerSocket }

// SocketOf returns the socket an individual CPU belongs to.
func (t Topology) SocketOf(cpu CPUID) int {
	if cpu < 0 || int(cpu) >= t.NumCPUs() {
		panic(fmt.Sprintf("hw: CPU %d out of range [0,%d)", cpu, t.NumCPUs()))
	}
	return int(cpu) / t.CPUsPerSocket
}

// SameSocket reports whether two CPUs share a socket.
func (t Topology) SameSocket(a, b CPUID) bool { return t.SocketOf(a) == t.SocketOf(b) }

// SpreadAcross picks n CPUs spread across the given number of sockets, the
// way the paper places its small/medium/large VMs (§6.2): vCPUs are packed
// socket by socket, using `sockets` distinct sockets.
func (t Topology) SpreadAcross(n, sockets int) ([]CPUID, error) {
	if n <= 0 {
		return nil, fmt.Errorf("hw: need a positive CPU count, got %d", n)
	}
	if sockets <= 0 || sockets > t.Sockets {
		return nil, fmt.Errorf("hw: socket count %d out of range [1,%d]", sockets, t.Sockets)
	}
	if n > sockets*t.CPUsPerSocket {
		return nil, fmt.Errorf("hw: cannot place %d CPUs on %d sockets of %d CPUs",
			n, sockets, t.CPUsPerSocket)
	}
	out := make([]CPUID, 0, n)
	perSocket := (n + sockets - 1) / sockets
	for s := 0; s < sockets && len(out) < n; s++ {
		for i := 0; i < perSocket && len(out) < n; i++ {
			out = append(out, CPUID(s*t.CPUsPerSocket+i))
		}
	}
	return out, nil
}
