package farm

import (
	"testing"
	"time"
)

// TestExpireReleasesResources: retiring an inmate frees its VLAN for reuse
// while deliberately burning its global address (§6.7: blacklist-prone
// addresses are not recycled).
func TestExpireReleasesResources(t *testing.T) {
	f, sf := buildBotfarm(t, 55, 0)
	bot, err := sf.AddInmate("shortlived")
	if err != nil {
		t.Fatal(err)
	}
	f.Run(5 * time.Minute)
	vlan := bot.VLAN
	global := sf.Router.NAT().ByVLAN(vlan).Global

	sf.Expire(bot)
	if bot.State.String() != "terminated" {
		t.Fatalf("state %v", bot.State)
	}
	if sf.Router.NAT().ByVLAN(vlan) != nil {
		t.Fatal("NAT binding survived expiry")
	}
	if err := f.Controller.Execute("reboot", vlan); err == nil {
		t.Fatal("controller still acts on the inmate")
	}
	if _, ok := sf.Inmates[vlan]; ok {
		t.Fatal("subfarm still tracks the inmate")
	}

	// The VLAN returns to the pool (reusable after the cursor wraps, before
	// the pool runs out); the burned global address does not.
	next, err := sf.AddInmate("replacement")
	if err != nil {
		t.Fatal(err)
	}
	reused := next.VLAN == vlan
	for !reused {
		extra, err := sf.AddInmate("filler")
		if err != nil {
			break
		}
		reused = extra.VLAN == vlan
	}
	if !reused {
		t.Fatalf("VLAN %d never returned to circulation", vlan)
	}
	f.Run(5 * time.Minute)
	if b := sf.Router.NAT().ByVLAN(next.VLAN); b == nil || b.Global == global {
		t.Fatalf("replacement binding %+v reused burned global %v", b, global)
	}
	if next.Family == "" {
		t.Fatal("replacement never infected")
	}
}
