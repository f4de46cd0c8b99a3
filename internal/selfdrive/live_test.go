package selfdrive

import (
	"sync"
	"testing"

	"mb2/internal/catalog"
	"mb2/internal/engine"
	"mb2/internal/plan"
	"mb2/internal/server"
	"mb2/internal/workload"
)

// Live traffic: the TPC-C read mix as repeated statement texts — the
// statement text is the observation template, so repetition is what gives
// the forecaster per-template volume. The last-name scans are the
// planner's opportunity (index candidate / execution mode).
const (
	liveByLast  = "SELECT * FROM customer WHERE c_w_id = 0 AND c_d_id = 3 AND c_last = 42"
	liveByLast2 = "SELECT * FROM customer WHERE c_w_id = 0 AND c_d_id = 7 AND c_last = 11"
	livePoint   = "SELECT * FROM customer WHERE c_w_id = 0 AND c_d_id = 1 AND c_id = 17"
)

// liveHarness serves a TPC-C database to four wire clients over the
// in-proc transport and attaches a LiveDriver to the server's process list.
type liveHarness struct {
	t       *testing.T
	drv     *LiveDriver
	clients []*server.Client
}

func newLiveHarness(t *testing.T) *liveHarness {
	t.Helper()
	ms := sharedModels(t)

	db := engine.Open(catalog.DefaultKnobs())
	bench := workload.TPCC{CustomersPerDistrict: 300}
	if err := bench.Load(db, 1, 1); err != nil {
		t.Fatal(err)
	}

	tr := server.NewPipe()
	srv := server.New(db, server.Config{Contenders: 4})
	ln, err := tr.Listen()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})

	cfg := DefaultConfig()
	cfg.PlanEvery = 1
	h := &liveHarness{t: t, drv: NewLiveDriver(srv.Registry(), ms, cfg)}
	for i := 0; i < 4; i++ {
		c, err := server.Dial(tr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		h.clients = append(h.clients, c)
	}
	return h
}

// tick has every client send one interval of traffic, then ticks the
// driver and returns the actions it applied.
func (h *liveHarness) tick() []AppliedAction {
	h.t.Helper()
	const perTick = 8
	var wg sync.WaitGroup
	errs := make([]error, len(h.clients))
	for ci := range h.clients {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for q := 0; q < perTick; q++ {
				stmt := liveByLast
				switch q % 4 {
				case 1:
					stmt = liveByLast2
				case 3:
					stmt = livePoint
				}
				if _, err := h.clients[ci].Query(stmt); err != nil {
					errs[ci] = err
					return
				}
			}
		}(ci)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			h.t.Fatal(err)
		}
	}
	applied, err := h.drv.Tick()
	if err != nil {
		h.t.Fatal(err)
	}
	return applied
}

// TestLiveDriverDrivesFromServerTraffic is the acceptance run for the
// live loop: real clients speak SQL to the wire server over the in-proc
// transport, the controller observes their traffic purely through the
// process list, and the what-if planner must select and apply an action
// from that live stream — no pre-built workload, no private channel.
func TestLiveDriverDrivesFromServerTraffic(t *testing.T) {
	h := newLiveHarness(t)
	const ticks = 6
	for tick := 0; tick < ticks; tick++ {
		h.tick()
	}

	actions := h.drv.ctrl.actions
	if len(actions) == 0 {
		t.Fatalf("planner applied no action from %d ticks of live server traffic", ticks)
	}
	for _, a := range actions {
		if a.Kind != "index-publish" && a.PredictedImprovement < 0.02 {
			t.Fatalf("applied action promised no improvement: %+v", a)
		}
	}
	// The forecast history really came through the process list: the
	// drained per-template streams must cover the SQL the clients sent.
	if n := h.drv.ctrl.hist.Len(); n != ticks {
		t.Fatalf("history holds %d intervals, want %d", n, ticks)
	}
}

// TestLiveDriverForecastsOverPublishedIndex: once live traffic on customer
// by c_last has made the controller publish an index, the next forecast
// must price those templates through that index, not through the
// sequential scans the traffic surfaced before it existed.
func TestLiveDriverForecastsOverPublishedIndex(t *testing.T) {
	h := newLiveHarness(t)
	index := ""
	for tick := 0; tick < 8 && index == ""; tick++ {
		for _, a := range h.tick() {
			if a.Kind == "index-publish" {
				index = a.Detail
			}
		}
	}
	if index == "" {
		t.Fatalf("no index published; actions: %v", h.drv.ctrl.actions)
	}

	seen := 0
	for _, q := range h.drv.ctrl.forecast(1).Queries {
		plan.Walk(q.Plan, func(n plan.Node) {
			switch n := n.(type) {
			case *plan.SeqScanNode:
				if n.Table == "customer" {
					t.Errorf("forecast after publishing %s still prices a customer scan: %+v", index, n)
				}
			case *plan.IdxScanNode:
				if n.Index == index {
					seen++
				}
			}
		})
	}
	if seen != 2 {
		t.Fatalf("forecast priced %d last-name templates through %s, want 2", seen, index)
	}
}
