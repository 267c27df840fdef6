package farm

import (
	"fmt"

	"gq/internal/host"
	"gq/internal/malware"
	"gq/internal/netstack"
	"gq/internal/policy"
	"gq/internal/smtpx"
)

// The Botfarm of Fig. 6/Fig. 7 — Rustock and Grum inmates under their
// per-family policies, phoning home to one C&C host — is what gqfarm, the
// Fig. 7 reproduction and every soak run. Its parts are spelled here once.

// SteephostAddr is the C&C server (50.8.207.91.SteepHost.Net in Fig. 7).
var SteephostAddr = netstack.MustParseAddr("50.8.207.91")

// Steephost is the C&C server as an external host of the given name.
func Steephost(name string) ExternalHost {
	return ExternalHost{Name: name, Addr: SteephostAddr, Serve: func(_ *Farm, h *host.Host) error {
		_, err := malware.NewCCServer(h, malware.CCConfig{
			Template: "pharma special",
			Targets: []netstack.Addr{
				netstack.MustParseAddr("203.0.113.25"),
				netstack.MustParseAddr("203.0.113.26"),
			},
			Forbidden: []string{"DDOS 203.0.113.99"},
		})
		return err
	}}
}

// SteephostCC is the C&C table of a subfarm whose families all phone home to
// steephost, each on its own port.
func SteephostCC() map[string]policy.AddrPort {
	return map[string]policy.AddrPort{
		"Rustock":  {Addr: SteephostAddr, Port: 443},
		"Grum":     {Addr: SteephostAddr, Port: 80},
		"MegaD":    {Addr: SteephostAddr, Port: 4560},
		"Clickbot": {Addr: SteephostAddr, Port: 8080},
	}
}

// Fig. 6 section bodies.
const (
	RustockRule = "Decider = Rustock\nInfection = rustock.100921.*.exe\n"
	GrumRule    = "Decider = Grum\nInfection = grum.100818.*.exe\n"
)

// BotfarmPolicy is the Fig. 6 text for rustock Rustock inmates on VLANs 16
// up, grum Grum inmates after them, and the spam-silence revert trigger
// over all of them.
func BotfarmPolicy(rustock, grum int) string {
	mid, hi := 16+rustock, 16+rustock+grum
	return fmt.Sprintf("[VLAN 16-%d]\n%s\n[VLAN %d-%d]\n%s\n[VLAN 16-%d]\nTrigger = *:25/tcp / 30min < 1 -> revert\n",
		mid-1, RustockRule, mid, hi-1, GrumRule, hi-1)
}

// BotfarmSamples is the Botfarm's fixed specimen library (a subfarm without
// one gets samples synthesised from its Infection globs).
func BotfarmSamples() []*policy.Sample {
	return []*policy.Sample{
		policy.NewSample("rustock.100921.001.exe", "rustock", []byte("MZ-rustock-1")),
		policy.NewSample("grum.100818.001.exe", "grum", []byte("MZ-grum-1")),
	}
}

// Botfarm is the subfarm itself, less what its callers vary: the Fig. 6
// text (and with it the VLAN range), the sample library, the sink drop
// probability and the population.
func Botfarm() SubfarmSpec {
	return SubfarmSpec{SubfarmConfig: SubfarmConfig{
		Name:           "Botfarm",
		ServiceVLAN:    11,
		GlobalPool:     netstack.MustParsePrefix("192.0.2.0/24"),
		InfraPool:      netstack.MustParsePrefix("192.0.9.0/24"),
		RepeatBatches:  true,
		SinkStrictness: smtpx.Lenient,
	}}
}
