package hw

import (
	"testing"
	"testing/quick"
)

func TestPaperTopology(t *testing.T) {
	top := PaperTopology()
	if err := top.Validate(); err != nil {
		t.Fatal(err)
	}
	if top.NumCPUs() != 80 {
		t.Fatalf("paper topology has %d CPUs, want 80", top.NumCPUs())
	}
	if top.Sockets != 4 || top.CPUsPerSocket != 20 {
		t.Fatalf("paper topology = %+v", top)
	}
}

func TestSmallTopology(t *testing.T) {
	top := SmallTopology()
	if err := top.Validate(); err != nil {
		t.Fatal(err)
	}
	if top.NumCPUs() != 16 {
		t.Fatalf("small topology has %d CPUs, want 16", top.NumCPUs())
	}
}

func TestTopologyValidate(t *testing.T) {
	bad := []Topology{
		{Sockets: 0, CPUsPerSocket: 4, CrossSocketTax: 1},
		{Sockets: 2, CPUsPerSocket: 0, CrossSocketTax: 1},
		{Sockets: 2, CPUsPerSocket: 4, CrossSocketTax: 0.5},
	}
	for i, top := range bad {
		if err := top.Validate(); err == nil {
			t.Errorf("case %d: bad topology %+v validated", i, top)
		}
	}
}

func TestSocketOf(t *testing.T) {
	top := PaperTopology()
	cases := []struct {
		cpu  CPUID
		want int
	}{{0, 0}, {19, 0}, {20, 1}, {39, 1}, {79, 3}}
	for _, c := range cases {
		if got := top.SocketOf(c.cpu); got != c.want {
			t.Errorf("SocketOf(%d) = %d, want %d", c.cpu, got, c.want)
		}
	}
	if !top.SameSocket(0, 19) || top.SameSocket(19, 20) {
		t.Error("SameSocket boundaries wrong")
	}
}

func TestSocketOfPanicsOutOfRange(t *testing.T) {
	top := SmallTopology()
	for _, cpu := range []CPUID{-1, 16} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SocketOf(%d) did not panic", cpu)
				}
			}()
			top.SocketOf(cpu)
		}()
	}
}

func TestSpreadAcrossPaperScenarios(t *testing.T) {
	top := PaperTopology()
	// Small VM: 4 vCPUs on one socket.
	small, err := top.SpreadAcross(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range small {
		if top.SocketOf(c) != 0 {
			t.Fatalf("small VM CPU %d not on socket 0", c)
		}
	}
	// Medium VM: 16 vCPUs over 2 sockets.
	med, err := top.SpreadAcross(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	sockets := map[int]int{}
	for _, c := range med {
		sockets[top.SocketOf(c)]++
	}
	if len(sockets) != 2 || sockets[0] != 8 || sockets[1] != 8 {
		t.Fatalf("medium VM socket spread = %v", sockets)
	}
	// Large VM: 64 vCPUs over 4 sockets.
	large, err := top.SpreadAcross(64, 4)
	if err != nil {
		t.Fatal(err)
	}
	sockets = map[int]int{}
	for _, c := range large {
		sockets[top.SocketOf(c)]++
	}
	for s := 0; s < 4; s++ {
		if sockets[s] != 16 {
			t.Fatalf("large VM socket spread = %v", sockets)
		}
	}
}

func TestSpreadAcrossErrors(t *testing.T) {
	top := SmallTopology()
	if _, err := top.SpreadAcross(0, 1); err == nil {
		t.Error("SpreadAcross(0,1) should fail")
	}
	if _, err := top.SpreadAcross(4, 0); err == nil {
		t.Error("SpreadAcross(4,0) should fail")
	}
	if _, err := top.SpreadAcross(4, 2); err == nil {
		t.Error("SpreadAcross with too many sockets should fail")
	}
	if _, err := top.SpreadAcross(17, 1); err == nil {
		t.Error("SpreadAcross over capacity should fail")
	}
}

// Property: SpreadAcross returns exactly n distinct, in-range CPUs.
func TestSpreadAcrossProperty(t *testing.T) {
	top := PaperTopology()
	f := func(nRaw, sRaw uint8) bool {
		n := int(nRaw%64) + 1
		s := int(sRaw%4) + 1
		cpus, err := top.SpreadAcross(n, s)
		if err != nil {
			// Only acceptable when capacity is exceeded.
			return n > s*top.CPUsPerSocket
		}
		if len(cpus) != n {
			return false
		}
		seen := map[CPUID]bool{}
		for _, c := range cpus {
			if c < 0 || int(c) >= top.NumCPUs() || seen[c] {
				return false
			}
			seen[c] = true
			if top.SocketOf(c) >= s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestVectorNames(t *testing.T) {
	if LocalTimerVector.String() != "local-timer(236)" {
		t.Error(LocalTimerVector.String())
	}
	if ParatickVector.String() != "paratick(235)" {
		t.Error(ParatickVector.String())
	}
	if RescheduleVector.String() != "reschedule(253)" {
		t.Error(RescheduleVector.String())
	}
	if CallFuncVector.String() != "call-func(251)" {
		t.Error(CallFuncVector.String())
	}
	if IODeviceBase.String() != "io-dev(48)" {
		t.Error(IODeviceBase.String())
	}
	if Vector(7).String() != "vec(7)" {
		t.Error(Vector(7).String())
	}
}

func TestVectorIsTimer(t *testing.T) {
	if !LocalTimerVector.IsTimer() || !ParatickVector.IsTimer() {
		t.Error("timer vectors not recognized")
	}
	if RescheduleVector.IsTimer() || IODeviceBase.IsTimer() {
		t.Error("non-timer vector recognized as timer")
	}
}

func TestParatickVectorIs235(t *testing.T) {
	// §5.1: "We reserve vector 235 for this purpose."
	if uint8(ParatickVector) != 235 {
		t.Fatalf("paratick vector = %d, paper reserves 235", uint8(ParatickVector))
	}
}

func TestDefaultCostModelValid(t *testing.T) {
	if err := DefaultCostModel().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCostModelValidateCatchesZeros(t *testing.T) {
	c := DefaultCostModel()
	c.ExitMSRWrite = 0
	if err := c.Validate(); err == nil {
		t.Error("zero ExitMSRWrite validated")
	}
	c = DefaultCostModel()
	c.GuestTickWork = -1
	if err := c.Validate(); err == nil {
		t.Error("negative GuestTickWork validated")
	}
}

func TestPreemptTimerCheaperThanMSR(t *testing.T) {
	// §3: KVM uses the preemption timer because its exits are less costly
	// than intercepting LAPIC-timer interrupts. The calibration must
	// preserve that ordering or the modeled optimization inverts.
	c := DefaultCostModel()
	if c.ExitPreemptTimer >= c.ExitExternalIRQ {
		t.Error("preemption-timer exit should be cheaper than external-interrupt exit")
	}
	if c.ExitPreemptTimer >= c.ExitMSRWrite {
		t.Error("preemption-timer exit should be cheaper than MSR-write exit")
	}
}
