package dhcp

import (
	"reflect"
	"testing"

	"gq/internal/netstack"
)

// FuzzDHCPUnmarshal: a DHCP request is inmate-chosen bytes (the subfarm's
// server decodes every broadcast an inmate sends), so Unmarshal must take
// any input without panicking, and a message it decodes must survive a round
// trip through Marshal unchanged.
func FuzzDHCPUnmarshal(f *testing.F) {
	discover := &Message{
		Op: OpRequest, XID: 0xdeadbeef, Flags: BroadcastFlag,
		CHAddr: netstack.MAC{2, 0, 0, 0, 0, 9},
		YIAddr: netstack.MustParseAddr("10.0.0.23"),
	}
	discover.SetType(Discover)
	discover.SetAddrOption(OptRequestedIP, netstack.MustParseAddr("10.0.0.23"))
	offer := &Message{Op: OpReply, XID: 7, YIAddr: netstack.MustParseAddr("10.0.0.16")}
	offer.SetType(Offer)
	offer.SetAddrOption(OptSubnetMask, netstack.MustParseAddr("255.255.0.0"))
	offer.SetAddrOption(OptRouter, netstack.MustParseAddr("10.0.0.1"))
	offer.SetAddrOption(OptServerID, netstack.MustParseAddr("10.0.0.2"))
	for _, m := range []*Message{discover, offer, {Op: OpRequest}} {
		f.Add(m.Marshal())
	}
	f.Add([]byte{})
	f.Add(make([]byte, 300))

	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := Unmarshal(b)
		if err != nil {
			return
		}
		again, err := Unmarshal(m.Marshal())
		if err != nil {
			t.Fatalf("%+v decoded from %x does not decode once re-encoded: %v", m, b, err)
		}
		if !reflect.DeepEqual(m, again) {
			t.Fatalf("round trip changed the message:\nfrom %x\ngot  %+v\nthen %+v", b, m, again)
		}
	})
}
