package farm

import (
	"testing"
	"time"

	"gq/internal/inmate"
	"gq/internal/rawiron"
)

// TestRawIronInmateFullCycle runs a raw-iron hosted inmate through the
// complete farm loop: PXE-class boot, DHCP, auto-infection, spamming, then
// a trigger-driven revert that performs a full ~6-minute network reimage —
// all transparent to the gateway (§5.2, §6.4).
func TestRawIronInmateFullCycle(t *testing.T) {
	f, sf := buildBotfarm(t, 71, 0)

	ric := rawiron.NewController(f.Sim, rawiron.Config{})
	machine := &rawiron.Machine{Name: "iron0", VLAN: 0, PowerPort: 1}

	// The machine's host is created by the farm; bind it afterwards.
	backend := &rawiron.Backend{Controller: ric, Machine: machine, CleanImage: "winxp-golden"}
	bot, err := sf.AddInmateWithBackend("iron-0", backend)
	if err != nil {
		t.Fatal(err)
	}
	machine.Host = bot.Host
	machine.VLAN = bot.VLAN
	ric.AddMachine(machine)

	f.Run(5 * time.Minute)
	if bot.Family != "rustock" {
		t.Fatalf("raw-iron inmate never infected (family %q)", bot.Family)
	}
	firstSample := bot.SampleName

	// Force a revert: the reimage takes ~6 minutes of virtual time, far
	// longer than a VM snapshot, but the life-cycle machinery is the same.
	bot.Revert()
	f.Run(3 * time.Minute)
	if bot.State != inmate.StateReverting {
		t.Fatalf("reimage should still be running at +3min, state %v", bot.State)
	}
	f.Run(15 * time.Minute)
	if bot.State != inmate.StateRunning {
		t.Fatalf("state %v after reimage window", bot.State)
	}
	if machine.DiskImage != "winxp-golden" {
		t.Fatalf("disk image %q", machine.DiskImage)
	}
	if n := f.Sim.Obs().Snapshot().Histograms["rawiron.reimage_ms"].Count; n != 1 {
		t.Fatalf("reimages %d", n)
	}
	// Reinfection happened with the next batch sample.
	if bot.Specimen == nil || bot.SampleName == firstSample {
		t.Fatalf("specimen %v sample=%q (first %q)", bot.Specimen, bot.SampleName, firstSample)
	}
	// And the reborn specimen works: give it time to spam again.
	before := sf.SMTPSink.DataTransfers
	f.Run(10 * time.Minute)
	if sf.SMTPSink.DataTransfers <= before {
		t.Fatal("reimaged inmate never resumed spamming")
	}
}
