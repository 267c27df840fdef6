package dnsx

import (
	"reflect"
	"testing"

	"gq/internal/netstack"
)

// FuzzDNSUnmarshal: a query or answer is inmate-chosen bytes (the farm's
// resolver decodes every datagram an inmate sends it), so Unmarshal must
// take any input without panicking, and a message it decodes must survive a
// round trip through Marshal unchanged.
func FuzzDNSUnmarshal(f *testing.F) {
	for _, m := range []*Message{
		{ID: 0xbeef, Response: true, Name: "cc.steephost.net",
			Answers: []netstack.Addr{netstack.MustParseAddr("50.8.207.91")}, TTL: 300},
		{ID: 1, Name: "C2.Example.COM"},
		{ID: 7, Response: true, Rcode: RcodeNXDomain, Name: "qxkzvbw.com"},
		{ID: 9, Response: true, Name: "a.b", TTL: 60, Answers: []netstack.Addr{1, 2, 3}},
	} {
		f.Add(m.Marshal())
	}
	f.Add([]byte{})
	f.Add(make([]byte, 12))

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
