package containment

import (
	"reflect"
	"testing"
	"time"

	"gq/internal/netstack"
	"gq/internal/sim"
)

func TestParseTriggerFig6(t *testing.T) {
	// The exact rule from the paper's Fig. 6.
	tr, err := ParseTrigger("*:25/tcp / 30min < 1 -> revert")
	if err != nil {
		t.Fatal(err)
	}
	if tr.HostPat != "*" || tr.Port != 25 || tr.Proto != netstack.ProtoTCP {
		t.Fatalf("pattern %+v", tr)
	}
	if tr.Window != 30*time.Minute || !tr.LessThan || tr.Threshold != 1 || tr.Action != "revert" {
		t.Fatalf("condition %+v", tr)
	}
	if tr.String() != "*:25/tcp / 30min < 1 -> revert" {
		t.Fatalf("String = %q", tr.String())
	}
}

func TestParseTriggerVariants(t *testing.T) {
	good := []string{
		"*.*.*.*:25/tcp / 30min < 1 -> revert",
		"198.51.100.7:80/tcp / 1min > 600 -> terminate",
		"*:*/udp / 1h > 10000 -> reboot",
		"*:53/* / 5min > 100 -> reboot",
	}
	for _, s := range good {
		if _, err := ParseTrigger(s); err != nil {
			t.Errorf("ParseTrigger(%q) = %v", s, err)
		}
	}
	bad := []string{
		"",
		"*:25/tcp / 30min < 1",            // no action
		"*:25/tcp / 30min < 1 -> explode", // bad action
		"*:25/tcp 30min < 1 -> revert",    // missing separators
		"*:25/xxx / 30min < 1 -> revert",  // bad proto
		"*:25/tcp / 30min = 1 -> revert",  // bad comparator
		"*:25/tcp / 30min < x -> revert",  // bad threshold
		"*:25/tcp / 30parsec < 1 -> revert",
		"*:999999/tcp / 30min < 1 -> revert",
		"*/tcp / 30min < 1 -> revert", // missing port
	}
	for _, s := range bad {
		if _, err := ParseTrigger(s); err == nil {
			t.Errorf("ParseTrigger(%q) accepted", s)
		}
	}
}

// A trigger's rendering parses back to the same trigger, whatever unit its
// window was written in.
func TestTriggerStringParsesBack(t *testing.T) {
	for _, s := range []string{
		"*:25/tcp / 30min < 1 -> revert",
		"*:*/udp / 1h > 10000 -> reboot",
		"198.51.100.7:80/tcp / 90s > 5 -> terminate",
		"*:25/tcp / 30s > 5 -> terminate",
	} {
		tr, err := ParseTrigger(s)
		if err != nil {
			t.Fatal(err)
		}
		if back, err := ParseTrigger(tr.String()); err != nil || !reflect.DeepEqual(back, tr) {
			t.Errorf("%q (window %v) renders %q, which does not parse back to it (err %v)", s, tr.Window, tr, err)
		}
	}
}

func TestParseWindow(t *testing.T) {
	cases := map[string]time.Duration{
		"30min": 30 * time.Minute,
		"2h":    2 * time.Hour,
		"90s":   90 * time.Second,
		"5m":    5 * time.Minute,
	}
	for in, want := range cases {
		got, err := ParseWindow(in)
		if err != nil || got != want {
			t.Errorf("ParseWindow(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseWindow("fortnight"); err == nil {
		t.Error("bad window accepted")
	}
}

// A window must be positive and fit a time.Duration, and a threshold must
// not be negative: 3000000h once wrapped to a negative window, under which
// an absence trigger fired on every check.
func TestParseTriggerRejectsOutOfRange(t *testing.T) {
	for _, tc := range []struct {
		trigger string
		ok      bool
	}{
		{"*:25/tcp / 2562047h < 1 -> revert", true},
		{"*:25/tcp / 1s > 0 -> terminate", true},
		{"*:25/tcp / 3000000h < 1 -> revert", false},
		{"*:25/tcp / 2562048h < 1 -> revert", false},
		{"*:25/tcp / 153722868min < 1 -> revert", false},
		{"*:25/tcp / 9223372037s < 1 -> revert", false},
		{"*:25/tcp / 99999999999999999999s < 1 -> revert", false},
		{"*:25/tcp / 0min < 1 -> revert", false},
		{"*:25/tcp / -5min < 1 -> revert", false},
		{"*:25/tcp / 30min < -1 -> revert", false},
		{"*:25/tcp / 1min > -600 -> terminate", false},
	} {
		tr, err := ParseTrigger(tc.trigger)
		if ok := err == nil; ok != tc.ok {
			t.Errorf("ParseTrigger(%q) = %v, want ok=%v", tc.trigger, err, tc.ok)
		} else if ok && tr.Window <= 0 {
			t.Errorf("ParseTrigger(%q) window %v", tc.trigger, tr.Window)
		}
	}
}

func TestTriggerMatches(t *testing.T) {
	tr, _ := ParseTrigger("198.51.100.7:25/tcp / 1min > 5 -> terminate")
	addr := netstack.MustParseAddr("198.51.100.7")
	if !tr.Matches(addr, 25, netstack.ProtoTCP) {
		t.Error("exact match failed")
	}
	if tr.Matches(addr, 25, netstack.ProtoUDP) {
		t.Error("proto mismatch matched")
	}
	if tr.Matches(addr, 80, netstack.ProtoTCP) {
		t.Error("port mismatch matched")
	}
	if tr.Matches(addr+1, 25, netstack.ProtoTCP) {
		t.Error("host mismatch matched")
	}
	wild, _ := ParseTrigger("*.*.*.*:*/* / 1min > 5 -> reboot")
	if !wild.Matches(addr, 9999, netstack.ProtoUDP) {
		t.Error("wildcard failed")
	}
}

type firedAction struct {
	action string
	vlan   uint16
	at     time.Duration
}

func engine(t *testing.T) (*sim.Simulator, *TriggerEngine, *[]firedAction) {
	t.Helper()
	s := sim.New(1)
	var fired []firedAction
	e := NewTriggerEngine(s, func(action string, vlan uint16) {
		fired = append(fired, firedAction{action, vlan, s.Now()})
	})
	return s, e, &fired
}

func TestAbsenceTriggerFires(t *testing.T) {
	// "Restart the bot once it has ceased spamming for more than 30 min."
	s, e, fired := engine(t)
	tr, _ := ParseTrigger("*:25/tcp / 30min < 1 -> revert")
	e.AddRule(16, 19, tr)

	// VLAN 16 spams steadily; VLAN 17 goes quiet after 5 minutes.
	dst := netstack.MustParseAddr("198.51.100.25")
	spam16 := s.Every(time.Minute, func() {
		e.ObserveFlow(16, dst, 25, netstack.ProtoTCP)
	})
	defer spam16.Stop()
	for i := 0; i < 5; i++ {
		i := i
		s.Schedule(time.Duration(i)*time.Minute, func() {
			e.ObserveFlow(17, dst, 25, netstack.ProtoTCP)
		})
	}
	s.RunFor(40 * time.Minute)

	var v16, v17, v18 int
	for _, f := range *fired {
		switch f.vlan {
		case 16:
			v16++
		case 17:
			v17++
		case 18:
			v18++
		}
		if f.action != "revert" {
			t.Errorf("action %q", f.action)
		}
	}
	if v16 != 0 {
		t.Errorf("active inmate reverted %d times", v16)
	}
	if v17 == 0 {
		t.Error("quiet inmate never reverted")
	}
	if v18 == 0 {
		t.Error("always-silent inmate (VLAN 18) never reverted")
	}
}

func TestFloodTriggerFires(t *testing.T) {
	// "Terminate an inmate sending a particular recipient more than N
	// connection requests per minute."
	s, e, fired := engine(t)
	tr, _ := ParseTrigger("*:25/tcp / 1min > 10 -> terminate")
	e.AddRule(16, 16, tr)
	dst := netstack.MustParseAddr("203.0.113.25")
	for i := 0; i < 50; i++ {
		e.ObserveFlow(16, dst, 25, netstack.ProtoTCP)
	}
	s.RunFor(90 * time.Second)
	if len(*fired) != 1 || (*fired)[0].action != "terminate" {
		t.Fatalf("fired %v", *fired)
	}
}

// TestTriggerHistoryOnlyForCoveredVLANs: a rule on a VLAN range fires on
// the flows it covers, and flows on any other VLAN leave no history behind.
func TestTriggerHistoryOnlyForCoveredVLANs(t *testing.T) {
	s, e, fired := engine(t)
	tr, _ := ParseTrigger("*:25/tcp / 1min > 2 -> terminate")
	e.AddRule(16, 17, tr)
	dst := netstack.MustParseAddr("203.0.113.25")
	for i := 0; i < 3; i++ {
		e.ObserveFlow(16, dst, 25, netstack.ProtoTCP)
		e.ObserveFlow(17, dst, 80, netstack.ProtoTCP)
		e.ObserveFlow(20, dst, 25, netstack.ProtoTCP)
	}
	if len(e.events) != 2 || len(e.events[16]) != 3 || len(e.events[17]) != 3 {
		t.Fatalf("history %v, want three events each for VLANs 16 and 17 only", e.events)
	}
	s.RunFor(90 * time.Second)
	if len(*fired) != 1 || (*fired)[0] != (firedAction{"terminate", 16, time.Minute}) {
		t.Fatalf("emitted %v, want one terminate for VLAN 16 at 1m", *fired)
	}
	if _, ok := e.events[20]; ok {
		t.Fatalf("uncovered VLAN 20 has history %v", e.events[20])
	}
}

func TestTriggerDampening(t *testing.T) {
	// A fired absence rule stays quiet for one window so the revert can
	// take effect.
	s, e, fired := engine(t)
	tr, _ := ParseTrigger("*:25/tcp / 5min < 1 -> revert")
	e.AddRule(16, 16, tr)
	s.RunFor(21 * time.Minute)
	// Without dampening this would fire ~16 times (every minute after the
	// first window); with one-window dampening about 4 times.
	if n := len(*fired); n < 2 || n > 6 {
		t.Fatalf("fired %d times in 21min, want ~4 with dampening", n)
	}
}

func TestTriggerWindowSlides(t *testing.T) {
	// Events age out of the window.
	s, e, fired := engine(t)
	tr, _ := ParseTrigger("*:80/tcp / 2min > 3 -> terminate")
	e.AddRule(10, 10, tr)
	dst := netstack.MustParseAddr("203.0.113.80")
	// 4 events spread over 10 minutes never co-occur in a 2-minute window.
	for i := 0; i < 4; i++ {
		i := i
		s.Schedule(time.Duration(i*3)*time.Minute, func() {
			e.ObserveFlow(10, dst, 80, netstack.ProtoTCP)
		})
	}
	s.RunFor(15 * time.Minute)
	if len(*fired) != 0 {
		t.Fatalf("sliding window leaked: fired %v", *fired)
	}
}
