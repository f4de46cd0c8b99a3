package selfdrive

import (
	"mb2/internal/modeling"
	"mb2/internal/plan"
	"mb2/internal/session"
)

// LiveDriver runs a Controller over a live process list: whatever front end
// feeds the registry (the wire server, an embedded harness), each Tick
// drains the sessions' observations and hands the Controller the
// interval's counts and the plans the traffic surfaced. Unlike Run, it does
// not construct the workload: it forecasts over the first plan each
// template surfaced, which the Controller rewrites through the indexes
// published since.
type LiveDriver struct {
	reg   *session.Registry
	ctrl  *Controller
	plans map[string]plan.Node
	ticks int
}

// NewLiveDriver attaches a controller to a process list.
func NewLiveDriver(reg *session.Registry, ms *modeling.ModelSet, cfg Config) *LiveDriver {
	d := &LiveDriver{reg: reg, plans: make(map[string]plan.Node)}
	d.ctrl = NewController(reg.DB(), ms, cfg, func(name string) (plan.Node, bool) {
		n, ok := d.plans[name]
		return n, ok
	})
	return d
}

// Tick ingests one interval of live traffic and runs one control step,
// planning on every PlanEvery-th tick. It returns the actions applied this
// tick. Index builds advance at unit speed: a live process has no machine
// model pricing how much the traffic slows the build threads, so each
// thread is credited one interval of its isolated work per tick.
func (d *LiveDriver) Tick() ([]AppliedAction, error) {
	obs := d.reg.DrainObservations()
	for name, n := range obs.Reps {
		if _, ok := d.plans[name]; !ok {
			d.plans[name] = n
		}
	}
	tick := d.ticks
	d.ticks++
	logged := len(d.ctrl.actions)

	d.ctrl.Ingest(obs.Counts)
	if _, err := d.ctrl.Advance(tick, nil); err != nil {
		return nil, err
	}
	threads := d.reg.Len()
	if threads < 1 {
		threads = 1
	}
	if err := d.ctrl.Step(tick, threads, (tick+1)%d.ctrl.cfg.PlanEvery == 0); err != nil {
		return nil, err
	}
	return append([]AppliedAction(nil), d.ctrl.actions[logged:]...), nil
}
