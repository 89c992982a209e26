package fault

import (
	"reflect"
	"testing"

	"megamimo/internal/backend"
	"megamimo/internal/core"
)

func testScenario(seed int64) Scenario {
	return Scenario{
		Seed:       seed,
		Start:      10_000,
		Horizon:    510_000,
		SampleRate: 10e6,
		NumAPs:     4,
		NumStreams: 4,
		Intensity:  10e6 * 40 / 500_000, // 40 events over the window
	}
}

func TestScenarioPlanDeterministic(t *testing.T) {
	a := testScenario(42).Plan()
	b := testScenario(42).Plan()
	if len(a.Events) == 0 {
		t.Fatal("scenario produced no events")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different plans")
	}
	c := testScenario(43).Plan()
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical plans")
	}
}

func TestScenarioPlanWellFormed(t *testing.T) {
	s := testScenario(7)
	p := s.Plan()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	window := s.Horizon - s.Start
	lastAt := s.Start + (window*6)/10
	lastEnd := s.Start + (window*8)/10
	for i, e := range p.Events {
		if e.At < s.Start || e.At > lastAt {
			t.Fatalf("event %d fires at %d, outside [%d, %d]", i, e.At, s.Start, lastAt)
		}
		if e.Until > lastEnd {
			t.Fatalf("event %d effect runs to %d, past the 80%% cutoff %d", i, e.Until, lastEnd)
		}
		if i > 0 && e.At < p.Events[i-1].At {
			t.Fatalf("events not sorted: %d then %d", p.Events[i-1].At, e.At)
		}
	}
}

func TestPlanValidateRejectsMalformed(t *testing.T) {
	p := &Plan{Events: []Event{{At: 10, Kind: Kind(99)}}}
	if p.Validate() == nil {
		t.Fatal("invalid kind accepted")
	}
	p = &Plan{Events: []Event{{At: 10, Until: 5, Kind: KindBackendDrop}}}
	if p.Validate() == nil {
		t.Fatal("until before at accepted")
	}
}

func TestKindStrings(t *testing.T) {
	seen := map[string]bool{}
	for k := Kind(0); k.Valid(); k++ {
		s := k.String()
		if s == "" || seen[s] {
			t.Fatalf("kind %d has empty or duplicate name %q", int(k), s)
		}
		seen[s] = true
	}
	if Kind(99).Valid() {
		t.Fatal("kind 99 claims to be valid")
	}
	if Kind(99).String() != "fault.Kind(99)" {
		t.Fatalf("invalid kind string: %q", Kind(99).String())
	}
}

func TestPolicyDropDeterministicAndCalibrated(t *testing.T) {
	p := NewPolicy(11)
	p.SetDrop(0.3, 1_000_000)
	drops := 0
	const trials = 4000
	for seq := uint64(0); seq < trials; seq++ {
		m := backend.Message{Seq: seq, SentAt: 100}
		drop1, _ := p.Deliver(m)
		drop2, _ := p.Deliver(m)
		if drop1 != drop2 {
			t.Fatalf("seq %d: drop decision not deterministic", seq)
		}
		if drop1 {
			drops++
		}
	}
	rate := float64(drops) / trials
	if rate < 0.25 || rate > 0.35 {
		t.Fatalf("drop rate %.3f, want ~0.30", rate)
	}
	// Outside the window nothing drops.
	if drop, _ := p.Deliver(backend.Message{Seq: 1, SentAt: 1_000_000}); drop {
		t.Fatal("dropped outside the window")
	}
}

func TestPolicyDelayAndJitter(t *testing.T) {
	p := NewPolicy(5)
	p.SetDelay(200, 1000)
	p.SetJitter(100, 1000)
	m := backend.Message{Seq: 77, SentAt: 500}
	_, d1 := p.Deliver(m)
	_, d2 := p.Deliver(m)
	if d1 != d2 {
		t.Fatal("delay not deterministic")
	}
	if d1 < 200 || d1 > 300 {
		t.Fatalf("extra delay %d, want in [200, 300]", d1)
	}
	if _, d := p.Deliver(backend.Message{Seq: 77, SentAt: 2000}); d != 0 {
		t.Fatalf("delay %d outside the window", d)
	}
}

func TestPolicyIsolation(t *testing.T) {
	p := NewPolicy(9)
	p.Isolate(2, 1000)
	if drop, _ := p.Deliver(backend.Message{From: 2, To: 0, SentAt: 500}); !drop {
		t.Fatal("outbound traffic from isolated node delivered")
	}
	if drop, _ := p.Deliver(backend.Message{From: 0, To: 2, SentAt: 500}); !drop {
		t.Fatal("inbound traffic to isolated node delivered")
	}
	if drop, _ := p.Deliver(backend.Message{From: 0, To: 1, SentAt: 500}); drop {
		t.Fatal("bystander traffic dropped")
	}
	if drop, _ := p.Deliver(backend.Message{From: 2, To: 0, SentAt: 1500}); drop {
		t.Fatal("isolation outlived its window")
	}
	// A shorter overlapping isolation must not shrink the window.
	p.Isolate(2, 800)
	if drop, _ := p.Deliver(backend.Message{From: 2, To: 0, SentAt: 900}); !drop {
		t.Fatal("re-isolation shrank the window")
	}
}

func testNet(t *testing.T, nAPs int) *core.Network {
	t.Helper()
	cfg := core.DefaultConfig(nAPs, nAPs, 18, 24)
	cfg.Seed = 31
	n, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestStormSpansTheNetworkWindow(t *testing.T) {
	n := testNet(t, 3)
	got := Storm(n, 7, 0.05, 400)
	want := Scenario{
		Seed:       7,
		Start:      n.Now(),
		Horizon:    n.Now() + 500_000, // 50 ms at 10 MHz
		SampleRate: 10e6,
		NumAPs:     3,
		NumStreams: 3,
		Intensity:  400,
	}.Plan()
	if len(got.Events) == 0 {
		t.Fatal("storm produced no events")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Storm plan differs from the network's scenario:\n got %v\nwant %v", got.Events, want.Events)
	}
}

func TestInjectorCrashAndAutoRestart(t *testing.T) {
	n := testNet(t, 3)
	plan := &Plan{Seed: 1, Events: []Event{
		{At: 100, Kind: KindAPCrash, AP: 2, Until: 500},
	}}
	in := NewInjector(n, plan)
	if fired := in.Apply(50); len(fired) != 0 {
		t.Fatalf("events fired early: %v", fired)
	}
	fired := in.Apply(100)
	if len(fired) != 1 || fired[0].Kind != KindAPCrash {
		t.Fatalf("crash did not fire: %v", fired)
	}
	if n.APLive(2) {
		t.Fatal("AP 2 still live after crash")
	}
	if at, ok := in.NextAt(); !ok || at != 500 {
		t.Fatalf("restart not scheduled: at=%d ok=%v", at, ok)
	}
	fired = in.Apply(600)
	if len(fired) != 1 || fired[0].Kind != KindAPRestart {
		t.Fatalf("restart did not fire: %v", fired)
	}
	if !n.APLive(2) {
		t.Fatal("AP 2 still down after scheduled restart")
	}
	if got := n.Metrics().Counter("fault_injected_total").Value(); got != 2 {
		t.Fatalf("fault_injected_total = %d, want 2", got)
	}
}

func TestInjectorLeadFailover(t *testing.T) {
	n := testNet(t, 3)
	in := NewInjector(n, &Plan{Seed: 1, Events: []Event{
		{At: 10, Kind: KindLeadFail},
	}})
	if n.Lead().Index != 0 {
		t.Fatal("unexpected initial lead")
	}
	if fired := in.Apply(10); len(fired) != 1 {
		t.Fatalf("lead-fail did not fire: %v", fired)
	}
	if n.APLive(0) {
		t.Fatal("old lead still live")
	}
	if n.Lead().Index != 1 {
		t.Fatalf("re-elected lead %d, want lowest live index 1", n.Lead().Index)
	}
	if got := n.Metrics().Counter("lead_failovers_total").Value(); got != 1 {
		t.Fatalf("lead_failovers_total = %d, want 1", got)
	}
}

func TestInjectorRefusesLastLiveAP(t *testing.T) {
	n := testNet(t, 2)
	in := NewInjector(n, &Plan{Seed: 1, Events: []Event{
		{At: 10, Kind: KindAPCrash, AP: 0},
		{At: 20, Kind: KindAPCrash, AP: 1},
	}})
	fired := in.Apply(50)
	if len(fired) != 1 || fired[0].AP != 0 {
		t.Fatalf("fired %v, want only the first crash", fired)
	}
	if !n.APLive(1) {
		t.Fatal("last live AP went down")
	}
}

func TestInjectorClientChurn(t *testing.T) {
	n := testNet(t, 2)
	in := NewInjector(n, &Plan{Seed: 1, Events: []Event{
		{At: 10, Kind: KindClientLeave, Stream: 1, Until: 40},
	}})
	fired := in.Apply(10)
	if len(fired) != 1 || fired[0].Kind != KindClientLeave {
		t.Fatalf("leave did not fire: %v", fired)
	}
	if at, ok := in.NextAt(); !ok || at != 40 {
		t.Fatalf("rejoin not scheduled: at=%d ok=%v", at, ok)
	}
	fired = in.Apply(40)
	if len(fired) != 1 || fired[0].Kind != KindClientJoin || fired[0].Stream != 1 {
		t.Fatalf("rejoin wrong: %v", fired)
	}
}

func TestInjectorBackendFaultsConfigureBus(t *testing.T) {
	n := testNet(t, 2)
	in := NewInjector(n, &Plan{Seed: 3, Events: []Event{
		{At: 0, Kind: KindBackendDrop, Param: 1.0, Until: 1000},
	}})
	in.Apply(0)
	// With drop probability 1, every backhaul message inside the window is
	// lost and counted.
	n.Bus.Send(0, 1, 100, "x")
	if got := n.Metrics().Counter("backend_dropped_total").Value(); got != 1 {
		t.Fatalf("backend_dropped_total = %d, want 1", got)
	}
}
