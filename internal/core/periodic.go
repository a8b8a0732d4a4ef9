package core

// periodicPolicy implements the classic fixed-rate scheduler tick (§2):
// every tick period, the deadline timer is re-armed regardless of workload.
// Idle transitions touch no timer hardware — which is exactly why periodic
// ticks waste resources on idle vCPUs (§3.1) but beat tickless kernels for
// workloads with very frequent brief idle periods (§3.3).
type periodicPolicy struct{}

func (p *periodicPolicy) Mode() Mode { return Periodic }

func (p *periodicPolicy) OnBoot(v GuestVCPU) {
	v.SetTimer(v.Now() + v.TickPeriod())
}

func (p *periodicPolicy) OnTick(v GuestVCPU) {
	v.RunTickWork()
	v.SetTimer(v.Now() + v.TickPeriod())
}

// OnVirtualTick rejects host-injected virtual ticks: a periodic guest has
// not negotiated paratick with the host (§5.2.1 rejects ticks arriving
// before the switch to paratick mode).
func (p *periodicPolicy) OnVirtualTick(v GuestVCPU) {}

func (p *periodicPolicy) OnIdleEnter(v GuestVCPU) {}

func (p *periodicPolicy) OnIdleExit(v GuestVCPU) {}
