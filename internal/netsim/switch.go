package netsim

import (
	"fmt"

	"gq/internal/netstack"
	"gq/internal/obs"
	"gq/internal/sim"
)

// PortMode selects how a switch port handles 802.1Q tags.
type PortMode int

const (
	// Access ports carry exactly one VLAN, untagged on the wire toward the
	// attached host. GQ attaches each inmate to an access port whose VLAN is
	// the inmate's unique ID.
	Access PortMode = iota
	// Trunk ports carry all VLANs, tagged. The gateway's uplink is a trunk.
	Trunk
)

// Tap observes frames traversing the switch, in their internal (tagged)
// representation, after the forwarding decision. Used for trace recording.
type Tap func(frame []byte)

type swPort struct {
	port *Port
	mode PortMode
	vlan uint16 // access VLAN; unused for trunks

	// The port's memo, good while the switch's FDB generation reads srcGen
	// and dstGen (DESIGN.md §3b): src is the source it last learned, which
	// the FDB maps to this port, and dst the destination it last looked up,
	// which the FDB maps to dstOut (nil: not held, so the frame floods).
	src, dst       fdbKey
	srcGen, dstGen uint64
	dstOut         *swPort
}

// fdbKey is 8 bytes with no padding, so the FDB hashes it in one call.
type fdbKey struct {
	vlan uint16
	mac  netstack.MAC
}

// maxFDBEntries bounds a switch's forwarding database: four stations per
// 802.1Q VLAN, twice what a farm puts on one (its machine and the gateway),
// and a ceiling on what source MACs spoofed on an access port can make the
// switch remember.
const maxFDBEntries = 4 * 4096

// Switch is a learning 802.1Q VLAN bridge. It learns source MACs per VLAN,
// forwards known unicast to the learned port, floods unknown/broadcast
// within the VLAN, and never emits a frame on its ingress port. Its ability
// to learn the hosts present "reduces the configuration overhead required
// to bootstrap the inmate network" (§5.1).
type Switch struct {
	Name string

	sim    *sim.Simulator
	frames *Frames // the domain's frame list, for flood copies
	ports  []*swPort
	taps   []Tap

	// fdb maps each learned station to its port; learn is its only writer,
	// and advances gen, which voids every port's memo. gen starts at 1, so a
	// port's zero memo is never taken for one.
	fdb     map[fdbKey]*swPort
	gen     uint64
	fdbFull *obs.Counter // nil until the first refusal

	// Flooded and Forwarded count forwarding decisions, for tests and
	// scalability benchmarks; Drops counts malformed or mis-tagged ingress
	// frames the bridge silently discards.
	Flooded, Forwarded, Drops *obs.Counter
}

// NewSwitch creates an empty switch.
func NewSwitch(s *sim.Simulator, name string) *Switch {
	reg := s.Obs().Reg
	pfx := "netsim.switch." + name + "."
	return &Switch{
		Name: name, sim: s, frames: FramesOf(s), fdb: make(map[fdbKey]*swPort), gen: 1,
		Flooded:   reg.Counter(pfx + "flooded"),
		Forwarded: reg.Counter(pfx + "forwarded"),
		Drops:     reg.Counter(pfx + "drops"),
	}
}

// AddAccessPort creates a switch port carrying a single untagged VLAN and
// returns the port the host side connects to.
func (sw *Switch) AddAccessPort(name string, vlan uint16) *Port {
	if vlan == netstack.NoVLAN || vlan > netstack.MaxVLAN {
		panic(fmt.Sprintf("netsim: invalid access VLAN %d on %s", vlan, name))
	}
	return sw.addPort(name, Access, vlan)
}

// AddTrunkPort creates a tagged port carrying all VLANs.
func (sw *Switch) AddTrunkPort(name string) *Port {
	return sw.addPort(name, Trunk, 0)
}

func (sw *Switch) addPort(name string, mode PortMode, vlan uint16) *Port {
	sp := &swPort{mode: mode, vlan: vlan}
	sp.port = NewPort(sw.sim, sw.Name+"/"+name, func(frame []byte) { sw.ingress(sp, frame) })
	sw.ports = append(sw.ports, sp)
	return sp.port
}

// AddTap registers a trace tap.
func (sw *Switch) AddTap(t Tap) { sw.taps = append(sw.taps, t) }

// FDBSize reports the number of learned (VLAN, MAC) entries.
func (sw *Switch) FDBSize() int { return len(sw.fdb) }

// learn records that the station key sends from port in. Nearly every frame
// comes from where its source is already known to live, so the port's memo
// answers without a lookup, and the table is written only for a new station
// or one that moved. At maxFDBEntries a new station is not learned, and
// counted in netsim.switch.<name>.fdb_full: frames to it flood, as to any
// unknown unicast.
func (sw *Switch) learn(in *swPort, key fdbKey) {
	if in.srcGen == sw.gen && in.src == key {
		return
	}
	if at, known := sw.fdb[key]; at != in {
		if !known && len(sw.fdb) >= maxFDBEntries {
			if sw.fdbFull == nil {
				sw.fdbFull = sw.sim.Obs().Reg.Counter("netsim.switch." + sw.Name + ".fdb_full")
			}
			sw.fdbFull.Inc()
			return
		}
		sw.fdb[key] = in
		sw.gen++
	}
	in.src, in.srcGen = key, sw.gen
}

// lookup returns the port key was learned on, nil for a station the switch
// does not hold. A port asking again for the destination it last asked for,
// with the table unchanged since, gets its memo's answer.
func (sw *Switch) lookup(in *swPort, key fdbKey) *swPort {
	if in.dstGen != sw.gen || in.dst != key {
		in.dst, in.dstOut, in.dstGen = key, sw.fdb[key], sw.gen
	}
	return in.dstOut
}

// ingress normalises the frame to its tagged internal form, learns the
// source, and forwards.
func (sw *Switch) ingress(in *swPort, frame []byte) {
	var eth netstack.Ethernet
	if _, err := eth.Unmarshal(frame); err != nil {
		sw.Drops.Inc()
		return // malformed; bridges drop silently
	}
	switch in.mode {
	case Access:
		if eth.VLAN != netstack.NoVLAN {
			sw.Drops.Inc()
			return // tagged frame on access port: drop
		}
		// The port owns the frame, tail room included: a host-originated
		// buffer takes the tag in place, any other moves to a fresh one.
		frame = netstack.InsertVLAN(frame, in.vlan)
		eth.VLAN = in.vlan
	case Trunk:
		if eth.VLAN == netstack.NoVLAN {
			sw.Drops.Inc()
			return // untagged frame on trunk: drop (no native VLAN)
		}
	}

	if !eth.Src.IsBroadcast() && !eth.Src.IsZero() {
		sw.learn(in, fdbKey{eth.VLAN, eth.Src})
	}

	for _, t := range sw.taps {
		t(frame)
	}

	if !eth.Dst.IsBroadcast() {
		if out := sw.lookup(in, fdbKey{eth.VLAN, eth.Dst}); out != nil {
			if out != in {
				sw.Forwarded.Inc()
				// Single consumer: the switch owns the frame (recv handed it
				// over) and is done with it, so ownership transfers onward.
				sw.egress(out, frame, true)
			}
			return
		}
	}
	// Unknown unicast or broadcast: flood within the VLAN. The frame is
	// shared across all egress ports, so each trunk copy is defensive.
	sw.Flooded.Inc()
	for _, out := range sw.ports {
		if out == in {
			continue
		}
		if out.mode == Access && out.vlan != eth.VLAN {
			continue
		}
		sw.egress(out, frame, false)
	}
}

// egress emits the frame on out. owned reports that the caller relinquishes
// the buffer; a shared (flooded) frame is copied per egress port, so no two
// ports ever hold the same bytes.
func (sw *Switch) egress(out *swPort, frame []byte, owned bool) {
	switch {
	case out.mode == Access && owned:
		// Sole consumer: strip the tag in place, which also restores the
		// tail room the next access ingress will want.
		out.port.SendOwned(netstack.StripVLAN(frame))
	case out.mode == Access:
		out.port.SendOwned(sw.untagCopy(frame))
	case owned:
		out.port.SendOwned(frame)
	default:
		out.port.Send(frame)
	}
}

// untagCopy returns an untagged copy of a tagged frame in a buffer from the
// frame list, with the tail room for a later tag.
func (sw *Switch) untagCopy(frame []byte) []byte {
	out := sw.frames.Take(len(frame))
	out = append(out, frame[:12]...)
	return append(out, frame[12+netstack.VLANTagLen:]...)
}
