package netsim

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"gq/internal/netstack"
	"gq/internal/sim"
)

// refBridge is the switch without its memo: every frame looks its source and
// destination up in a plain table, under the same bound. The memo must make
// no forwarding decision this does not.
type refBridge struct {
	fdb   map[fdbKey]int
	modes []PortMode
	vlans []uint16
}

// forward learns src on port in and returns the ports the frame leaves on.
func (b *refBridge) forward(in int, vlan uint16, src, dst netstack.MAC) []int {
	if !src.IsBroadcast() && !src.IsZero() {
		k := fdbKey{vlan, src}
		if _, known := b.fdb[k]; known || len(b.fdb) < maxFDBEntries {
			b.fdb[k] = in
		}
	}
	if !dst.IsBroadcast() {
		if out, ok := b.fdb[fdbKey{vlan, dst}]; ok {
			if out == in {
				return nil
			}
			return []int{out}
		}
	}
	var outs []int
	for p := range b.modes {
		if p != in && (b.modes[p] == Trunk || b.vlans[p] == vlan) {
			outs = append(outs, p)
		}
	}
	return outs
}

// Seeded storms of station moves, broadcast and unknown unicast over
// access and trunk ports: every frame leaves the switch on exactly the ports
// the memo-less reference picks.
func TestSwitchMemoMatchesFDB(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := sim.New(seed)
		sw := NewSwitch(s, "memo")
		ref := &refBridge{fdb: make(map[fdbKey]int)}
		vlans := []uint16{10, 10, 11, 11, 12}
		for i, v := range vlans {
			Connect(sw.AddAccessPort(string(rune('a'+i)), v), NewPort(s, "host", nil), 0)
			ref.modes, ref.vlans = append(ref.modes, Access), append(ref.vlans, v)
		}
		Connect(sw.AddTrunkPort("trunk"), NewPort(s, "uplink", nil), 0)
		ref.modes, ref.vlans = append(ref.modes, Trunk), append(ref.vlans, 0)
		// Few stations on few ports: they collide, move and come back.
		station := func() netstack.MAC {
			switch n := rng.Intn(8); n {
			case 0:
				return netstack.BroadcastMAC
			case 1:
				return mac(0x80 + byte(rng.Intn(64))) // unknown unicast, now and then learned
			default:
				return mac(byte(n))
			}
		}
		for step := 0; step < 2000; step++ {
			in := rng.Intn(len(sw.ports))
			vlan, tag := sw.ports[in].vlan, uint16(0)
			if sw.ports[in].mode == Trunk {
				vlan = vlans[rng.Intn(len(vlans))]
				tag = vlan
			}
			src, dst := station(), station()
			before := make([]uint64, len(sw.ports))
			for p, sp := range sw.ports {
				before[p] = sp.port.TxFrames
			}
			sw.ingress(sw.ports[in], frameTo(dst, src, tag, "storm"))
			var got []int
			for p, sp := range sw.ports {
				if sp.port.TxFrames != before[p] {
					got = append(got, p)
				}
			}
			if want := ref.forward(in, vlan, src, dst); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: %v -> %v on VLAN %d into port %d left on ports %v, want %v",
					seed, step, src, dst, vlan, in, got, want)
			}
			s.Run()
		}
		if sw.FDBSize() != len(ref.fdb) {
			t.Fatalf("seed %d: FDB holds %d stations, reference %d", seed, sw.FDBSize(), len(ref.fdb))
		}
	}
}

// Source MACs spoofed on an access port stop growing the FDB at
// maxFDBEntries: each new station past it is counted in
// netsim.switch.<name>.fdb_full (a series that exists only once something
// was refused), a station learned before still forwards, and frames to a
// refused one flood like any unknown unicast.
func TestSwitchFDBIsBounded(t *testing.T) {
	const flood = maxFDBEntries + 1000
	s := sim.New(1)
	sw, hosts := buildSwitch(s, []uint16{10, 10, 10})
	series := "netsim.switch." + sw.Name + ".fdb_full"
	hosts[1].port.Send(frameTo(netstack.BroadcastMAC, mac(2), 0, "held"))
	s.Run()
	if _, ok := s.Obs().Snapshot().Counters[series]; ok {
		t.Fatalf("%s registered before any refusal", series)
	}
	spoofed := func(i int) netstack.MAC { return netstack.MAC{2, 0xbd, 0, byte(i >> 16), byte(i >> 8), byte(i)} }
	for i := 0; i < flood; i++ {
		hosts[0].port.Send(frameTo(mac(2), spoofed(i), 0, "spoofed"))
		if i%1024 == 0 {
			s.Run()
		}
	}
	s.Run()
	if n := sw.FDBSize(); n != maxFDBEntries {
		t.Fatalf("FDB holds %d stations after %d spoofed sources, bound is %d", n, flood, maxFDBEntries)
	}
	if got, want := s.Obs().Snapshot().Counter(series), uint64(1+flood-maxFDBEntries); got != want {
		t.Errorf("%s = %d, want %d", series, got, want)
	}
	if got := len(hosts[1].frames); got != flood {
		t.Errorf("held station got %d of the %d frames addressed to it", got, flood)
	}
	// A refused station is unknown: a frame to it floods the VLAN.
	for _, h := range hosts {
		h.frames = nil
	}
	flooded := sw.Flooded.Value()
	hosts[1].port.Send(frameTo(spoofed(flood-1), mac(2), 0, "to a refused station"))
	s.Run()
	if sw.Flooded.Value() != flooded+1 || len(hosts[0].frames) != 1 || len(hosts[2].frames) != 1 {
		t.Errorf("frame to a refused station: flooded %d -> %d, ports got %d and %d frames, want a flood",
			flooded, sw.Flooded.Value(), len(hosts[0].frames), len(hosts[2].frames))
	}
}

// The FDB's key is hashed as one block of memory only if no padding sits
// between its fields, and on the 64-bit fast path only at 8 bytes.
func TestMapKeysArePaddingFree(t *testing.T) {
	typ := reflect.TypeOf(fdbKey{})
	var fields uintptr
	for i := 0; i < typ.NumField(); i++ {
		fields += typ.Field(i).Type.Size()
	}
	if size := unsafe.Sizeof(fdbKey{}); size != fields || size != 8 {
		t.Errorf("fdbKey is %d bytes for %d bytes of fields, want 8 for 8", size, fields)
	}
}
