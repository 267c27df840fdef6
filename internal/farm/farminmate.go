package farm

import (
	"fmt"
	"strings"
	"time"

	"gq/internal/dhcp"
	"gq/internal/httpx"
	"gq/internal/inmate"
	"gq/internal/malware"
	"gq/internal/netsim"
	"gq/internal/netstack"
	"gq/internal/policy"
)

// FarmInmate couples an inmate's life-cycle machinery with the specimen it
// currently executes.
type FarmInmate struct {
	*inmate.Inmate
	Subfarm *Subfarm

	// Specimen is the running behaviour model (nil before infection).
	Specimen malware.Specimen
	// SampleName and Family identify the served sample.
	SampleName string
	Family     string
}

// AddInmate creates an inmate on a fresh VLAN with the default VM backend,
// registers it with the controller and the policy sample batches, and
// powers it on. The default boot sequence runs DHCP and then the
// auto-infection script (§6.6).
func (sf *Subfarm) AddInmate(name string) (*FarmInmate, error) {
	return sf.AddInmateWithBackend(name, &inmate.VMBackend{Sim: sf.Sim})
}

// AddInmateWithBackend is AddInmate on a specific hosting technology.
func (sf *Subfarm) AddInmateWithBackend(name string, backend inmate.Backend) (*FarmInmate, error) {
	vlan, err := sf.VLANs.Allocate()
	if err != nil {
		return nil, err
	}
	h := sf.Farm.newHostIn(sf.Sim, name)
	netsim.Connect(sf.sw.AddAccessPort(fmt.Sprintf("%s-vlan%d", name, vlan), vlan), h.NIC(), sf.Config.AccessLatency)

	im := inmate.New(sf.Sim, vlan, h, backend)
	fi := &FarmInmate{Inmate: im, Subfarm: sf}
	sf.Inmates[vlan] = fi
	sf.Farm.Controller.Register(im)

	// Assign the sample batch from the policy config's Infection glob.
	if rule, ok := sf.PolicyConfig.RuleFor(vlan); ok && rule.Infection != "" {
		sf.Samples.AssignMatching(vlan, rule.Infection, sf.Config.SampleLibrary)
	}

	im.OnBoot = func(*inmate.Inmate) { fi.boot() }
	im.OnTerminate = func(*inmate.Inmate) {
		if fi.Specimen != nil {
			fi.Specimen.Stop()
		}
	}
	im.Start()
	return fi, nil
}

// Expire retires an inmate and releases its VLAN; the global address is
// burned (§6.7).
func (sf *Subfarm) Expire(fi *FarmInmate) {
	fi.Terminate()
	sf.Farm.Controller.Unregister(fi.VLAN)
	sf.Router.NAT().Release(fi.VLAN)
	delete(sf.Inmates, fi.VLAN)
	sf.VLANs.Release(fi.VLAN)
}

// boot is the inmate's OS-up sequence: stop any prior specimen, acquire a
// lease, then run the experiment's boot hook or the default auto-infection
// script.
func (fi *FarmInmate) boot() {
	if fi.Specimen != nil {
		fi.Specimen.Stop()
		fi.Specimen = nil
	}
	dhcp.RunClient(fi.Host, func(addr netstack.Addr) {
		if fi.Subfarm.OnBootHook != nil {
			fi.Subfarm.OnBootHook(fi)
			return
		}
		fi.autoinfect()
	})
}

// autoinfect contacts the (virtual) auto-infection HTTP server at its
// preconfigured address and port, requests the malware sample, and
// executes it (§6.6). The containment server impersonates the server via a
// REWRITE containment.
func (fi *FarmInmate) autoinfect() {
	ai := fi.Subfarm.Policy.Service(policy.SvcAutoinfect)
	httpx.Get(fi.Host, ai.Addr, ai.Port, "/sample", func(resp *httpx.Response, err error) {
		if err != nil || resp == nil || resp.Status != 200 {
			// Batch exhausted or containment refused; retry later (the
			// revert-trigger cycle may re-provision us).
			fi.Subfarm.Sim.Schedule(time.Minute, func() {
				if fi.State == inmate.StateRunning {
					fi.autoinfect()
				}
			})
			return
		}
		fi.SampleName = resp.Header("X-Sample-Name")
		fi.Family = resp.Header("X-Sample-Family")
		fi.ExecuteSample(fi.Family)
	})
}

// ExecuteSample instantiates and runs the behaviour model for a family.
func (fi *FarmInmate) ExecuteSample(family string) {
	sf := fi.Subfarm
	ctx := &malware.Context{
		Host: fi.Host, Sim: sf.Sim,
		DNS:                fi.Host.DNS(),
		GMailMX:            sf.Config.CCHosts["GMailMX"].Addr,
		SpamTargets:        sf.Config.SpamTargets,
		SpamInterval:       15 * time.Second,
		MessagesPerSession: sf.Config.SpamBatch,
		ScanPrefix:         sf.Config.GlobalPool,
	}
	if cc, ok := sf.Config.CCHosts[familyKeyFor(family)]; ok {
		ctx.CCAddr, ctx.CCPort = cc.Addr, cc.Port
	}
	sp, err := malware.New(family, ctx)
	if err != nil {
		// Worm samples carry their Table 1 name as the family.
		if spec, ok := wormSpecByName(family); ok {
			w := malware.NewWorm(spec, ctx)
			fi.Specimen = w
			w.Execute()
		}
		return
	}
	fi.Specimen = sp
	sp.Execute()
}

// familyKeyFor maps a specimen family to its CCHosts key.
func familyKeyFor(family string) string {
	switch family {
	case "rustock":
		return "Rustock"
	case "grum":
		return "Grum"
	case "megad", "split-personality":
		return "MegaD"
	case "storm-proxy":
		return "Storm"
	case "clickbot":
		return "Clickbot"
	default:
		return strings.Title(family)
	}
}

func wormSpecByName(name string) (malware.WormSpec, bool) {
	for _, w := range malware.Table1 {
		if w.Name == name {
			return w, true
		}
	}
	return malware.WormSpec{}, false
}
