package netsim

import (
	"bytes"
	"testing"

	"gq/internal/netstack"
	"gq/internal/sim"
)

// Buffer-ownership tests for the in-place VLAN tag paths: a frame handed
// over with SendOwned is tagged and untagged in its own buffer when the
// tail room allows, the bytes on the wire never depend on which path ran,
// and frames fanned out by a flood never share bytes.

// retagRef is the re-serialising retag the switch used before it tagged in
// place: the reference the in-place output must equal byte for byte.
func retagRef(frame []byte, vlan uint16) []byte {
	var eth netstack.Ethernet
	rest, err := eth.Unmarshal(frame)
	if err != nil {
		panic(err)
	}
	eth.VLAN = vlan
	return append(eth.Marshal(nil), rest...)
}

// tcpFrame is an untagged, fully checksummed TCP frame in a buffer with
// exactly tailRoom spare bytes behind it.
func tcpFrame(dst, src netstack.MAC, payload string, tailRoom int) []byte {
	p := &netstack.Packet{
		Eth:     netstack.Ethernet{Dst: dst, Src: src, EtherType: netstack.EtherTypeIPv4},
		IP:      &netstack.IPv4{TTL: 64, Src: netstack.MustParseAddr("10.0.0.1"), Dst: netstack.MustParseAddr("10.0.0.2")},
		TCP:     &netstack.TCP{SrcPort: 4000, DstPort: 80, Seq: 7, Flags: netstack.FlagACK | netstack.FlagPSH, Window: 1000},
		Payload: []byte(payload),
	}
	wire := p.Marshal()
	return append(make([]byte, 0, len(wire)+tailRoom), wire...)
}

func TestAccessTagInPlaceMatchesRetag(t *testing.T) {
	for _, tailRoom := range []int{netstack.VLANTagLen, 0, 1} {
		s := sim.New(1)
		sw := NewSwitch(s, "sw")
		host := newCollector(s, "host")
		trunk := newCollector(s, "trunk")
		Connect(sw.AddAccessPort("a", 10), host.port, 0)
		Connect(sw.AddTrunkPort("t"), trunk.port, 0)
		// Teach the bridge that mac(9) lives behind the trunk, so the data
		// frame is forwarded (owned), not flooded.
		trunk.port.Send(frameTo(mac(1), mac(9), 10, "teach"))
		s.Run()
		host.frames = nil

		frame := tcpFrame(mac(9), mac(1), "payload crossing the access port", tailRoom)
		untagged := append([]byte(nil), frame...)
		want := retagRef(untagged, 10)
		host.port.SendOwned(frame)
		s.Run()
		if len(trunk.frames) != 1 {
			t.Fatalf("tail room %d: trunk saw %d frames", tailRoom, len(trunk.frames))
		}
		got := trunk.frames[0]
		if !bytes.Equal(got, want) {
			t.Fatalf("tail room %d: tagged frame differs from retag:\ngot  % x\nwant % x", tailRoom, got, want)
		}
		inPlace := &got[0] == &frame[0]
		if inPlace != (tailRoom >= netstack.VLANTagLen) {
			t.Errorf("tail room %d: tagged in place = %v", tailRoom, inPlace)
		}
		if !inPlace && !bytes.Equal(frame, untagged) {
			t.Errorf("tail room %d: the fallback modified the buffer it could not tag in place", tailRoom)
		}
		p, err := netstack.ParseFrame(append([]byte(nil), got...))
		if err != nil || p.Eth.VLAN != 10 || string(p.Payload) != "payload crossing the access port" {
			t.Fatalf("tail room %d: tagged frame does not reparse: %v", tailRoom, err)
		}

		// And back: trunk -> access strips the tag in the same buffer,
		// restoring the bytes the host sent and the tail room with them.
		back := append([]byte(nil), got...)
		back = back[:len(back):len(back)]
		netstack.SetEthDst(back, mac(1))
		src := mac(9)
		copy(back[6:12], src[:])
		wantBack := retagRef(back, netstack.NoVLAN)
		trunk.port.SendOwned(back)
		s.Run()
		if len(host.frames) != 1 {
			t.Fatalf("tail room %d: host saw %d frames", tailRoom, len(host.frames))
		}
		stripped := host.frames[0]
		if !bytes.Equal(stripped, wantBack) {
			t.Fatalf("tail room %d: untagged frame differs from retag:\ngot  % x\nwant % x", tailRoom, stripped, wantBack)
		}
		if &stripped[0] != &back[0] || cap(stripped)-len(stripped) < netstack.VLANTagLen {
			t.Errorf("tail room %d: untag left the buffer or did not hand the tail room back", tailRoom)
		}
		if _, err := netstack.ParseFrame(append([]byte(nil), stripped...)); err != nil {
			t.Fatalf("tail room %d: untagged frame does not reparse: %v", tailRoom, err)
		}
	}
}

func TestFloodCopiesDoNotAlias(t *testing.T) {
	s := sim.New(1)
	sw := NewSwitch(s, "sw")
	src := newCollector(s, "src")
	var outs []*collector
	Connect(sw.AddAccessPort("src", 10), src.port, 0)
	for _, name := range []string{"a", "b"} {
		c := newCollector(s, name)
		Connect(sw.AddAccessPort(name, 10), c.port, 0)
		outs = append(outs, c)
	}
	for _, name := range []string{"t1", "t2"} {
		c := newCollector(s, name)
		Connect(sw.AddTrunkPort(name), c.port, 0)
		outs = append(outs, c)
	}
	// Broadcast from a buffer with tail room: ingress tags it in place, so
	// the shared frame is the sender's own buffer.
	frame := tcpFrame(netstack.BroadcastMAC, mac(1), "flooded", netstack.VLANTagLen)
	src.port.SendOwned(frame)
	s.Run()
	var want [][]byte
	for _, c := range outs {
		if len(c.frames) != 1 {
			t.Fatalf("flood delivered %d frames to one port", len(c.frames))
		}
		want = append(want, append([]byte(nil), c.frames[0]...))
	}
	// Scribble over each copy in turn (and over the sender's buffer): no
	// other copy may change.
	scribble := func(b []byte) {
		b = b[:cap(b)]
		for i := range b {
			b[i] = 0xee
		}
	}
	scribble(frame)
	for i, c := range outs {
		scribble(c.frames[0])
		for j := i + 1; j < len(outs); j++ {
			if !bytes.Equal(outs[j].frames[0], want[j]) {
				t.Fatalf("mutating egress copy %d changed copy %d", i, j)
			}
		}
	}
}

// TestImpairedOwnedFrameLeavesDuplicateIntact: corruption is applied to the
// buffer in flight, never to the duplicate taken from it.
func TestImpairedOwnedFrameLeavesDuplicateIntact(t *testing.T) {
	s := sim.New(3)
	a := NewPort(s, "a", nil)
	b := newCollector(s, "b")
	Connect(a, b.port, 0)
	a.Impair(Impairment{Dup: 1, Corrupt: 1})
	frame := tcpFrame(mac(2), mac(1), "dup and corrupt", netstack.VLANTagLen)
	orig := append([]byte(nil), frame...)
	a.SendOwned(frame)
	s.Run()
	if len(b.frames) != 2 {
		t.Fatalf("got %d frames, want the frame and its duplicate", len(b.frames))
	}
	intact := 0
	for _, f := range b.frames {
		if bytes.Equal(f, orig) {
			intact++
		}
	}
	if intact != 1 || &b.frames[0][0] == &b.frames[1][0] {
		t.Fatalf("%d of 2 deliveries intact (want exactly the duplicate), aliasing=%v",
			intact, &b.frames[0][0] == &b.frames[1][0])
	}
}
