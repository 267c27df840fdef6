package shim

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"gq/internal/netstack"
)

func TestRequestSize(t *testing.T) {
	r := &Request{
		OrigIP: netstack.MustParseAddr("10.0.0.23"), RespIP: netstack.MustParseAddr("192.150.187.12"),
		OrigPort: 1234, RespPort: 80, VLAN: 12, NoncePort: 42,
	}
	b := r.Marshal()
	if len(b) != RequestLen {
		t.Fatalf("request shim is %d bytes, paper specifies %d", len(b), RequestLen)
	}
}

func TestRequestRoundTrip(t *testing.T) {
	r := &Request{
		OrigIP: netstack.MustParseAddr("10.0.0.23"), RespIP: netstack.MustParseAddr("192.150.187.12"),
		OrigPort: 1234, RespPort: 80, VLAN: 12, NoncePort: 42,
	}
	d, err := UnmarshalRequest(r.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if *d != *r {
		t.Fatalf("round trip %+v want %+v", d, r)
	}
}

func TestResponseMinimumSize(t *testing.T) {
	r := &Response{Verdict: Drop, PolicyName: "DefaultDeny"}
	b := r.Marshal()
	if len(b) != ResponseMinLen {
		t.Fatalf("response shim without annotation is %d bytes, paper specifies at least %d",
			len(b), ResponseMinLen)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	r := &Response{
		OrigIP: netstack.MustParseAddr("10.0.0.23"), RespIP: netstack.MustParseAddr("10.3.0.1"),
		OrigPort: 1234, RespPort: 6666,
		Verdict:    Rewrite,
		PolicyName: "Rustock",
		Annotation: "C&C filtering",
	}
	d, n, err := UnmarshalResponse(r.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if n != ResponseMinLen+len(r.Annotation) {
		t.Fatalf("length %d", n)
	}
	if *d != *r {
		t.Fatalf("round trip %+v want %+v", d, r)
	}
}

func TestPolicyNameTruncation(t *testing.T) {
	long := "ThisPolicyNameIsFarLongerThanTheThirtyTwoByteFieldAllows"
	r := &Response{Verdict: Forward, PolicyName: long}
	d, _, err := UnmarshalResponse(r.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if len(d.PolicyName) != PolicyNameLen || d.PolicyName != long[:PolicyNameLen] {
		t.Fatalf("name %q", d.PolicyName)
	}
}

func TestTypeConfusionRejected(t *testing.T) {
	req := (&Request{}).Marshal()
	if _, _, err := UnmarshalResponse(req); err == nil {
		t.Error("request accepted as response")
	}
	resp := (&Response{Verdict: Drop}).Marshal()
	if _, err := UnmarshalRequest(resp); err == nil {
		t.Error("response accepted as request")
	}
}

func TestBadMagicAndVersion(t *testing.T) {
	b := (&Request{}).Marshal()
	b[0] ^= 0xff
	if _, err := UnmarshalRequest(b); err == nil {
		t.Error("bad magic accepted")
	}
	b = (&Request{}).Marshal()
	b[7] = 99
	if _, err := UnmarshalRequest(b); err == nil {
		t.Error("bad version accepted")
	}
}

func TestPeekLength(t *testing.T) {
	r := &Response{Verdict: Reflect, PolicyName: "SpambotBase", Annotation: "full SMTP containment"}
	b := r.Marshal()
	// Too short to know.
	if n, ok, err := PeekLength(b[:4]); n != 0 || ok || err != nil {
		t.Fatalf("short peek n=%d ok=%v err=%v", n, ok, err)
	}
	// Preamble present, body incomplete.
	if n, ok, err := PeekLength(b[:20]); err != nil || ok || n != len(b) {
		t.Fatalf("partial peek n=%d ok=%v err=%v", n, ok, err)
	}
	// Complete.
	if n, ok, err := PeekLength(b); err != nil || !ok || n != len(b) {
		t.Fatalf("full peek n=%d ok=%v err=%v", n, ok, err)
	}
	// Garbage.
	if _, _, err := PeekLength([]byte("GET / HTTP/1.1\r\n")); err == nil {
		t.Fatal("garbage peek accepted")
	}
}

func TestVerdictString(t *testing.T) {
	if (Redirect | Rewrite).String() != "REDIRECT|REWRITE" {
		t.Errorf("got %q", (Redirect | Rewrite).String())
	}
	if Drop.String() != "DROP" {
		t.Errorf("got %q", Drop.String())
	}
	if Verdict(0).String() != "NONE" {
		t.Errorf("got %q", Verdict(0).String())
	}
	if !(Forward | Limit).Has(Limit) || Drop.Has(Forward) {
		t.Error("Has wrong")
	}
	// Every rendering, including the ones nothing in the farm produces:
	// unknown bits alone, and unknown bits beside known ones (dropped).
	for v, want := range map[Verdict]string{
		Forward: "FORWARD", Limit: "LIMIT", Redirect: "REDIRECT", Reflect: "REFLECT", Rewrite: "REWRITE",
		Forward | Limit | Drop: "FORWARD|LIMIT|DROP",
		1 << 6:                 "Verdict(0x40)",
		1 << 31:                "Verdict(0x80000000)",
		1<<6 | 1<<9:            "Verdict(0x240)",
		Reflect | 1<<6:         "REFLECT",
	} {
		if got := v.String(); got != want {
			t.Errorf("Verdict(%#x).String() = %q, want %q", uint32(v), got, want)
		}
	}
}

// TestDecodeAllocs: the journal renders one verdict per flow and the gateway,
// the containment server and the shim analyzer decode one shim per flow into
// storage they own; none of that is worth a heap object. (The policy name
// and a non-empty annotation are strings the flow record keeps: a response
// decoded over one that held the same ones keeps them, a new name or
// annotation is a new string.)
func TestDecodeAllocs(t *testing.T) {
	reqBytes := (&Request{OrigPort: 1234, RespPort: 80, VLAN: 12, NoncePort: 42}).Marshal()
	respBytes := (&Response{Verdict: Rewrite, PolicyName: "Rustock"}).Marshal()
	var req Request
	var resp Response
	var sink string
	for name, c := range map[string]struct {
		max float64
		fn  func()
	}{
		"Verdict.String":     {0, func() { sink = Rewrite.String(); sink = Verdict(0).String() }},
		"Request.Unmarshal":  {0, func() { _ = req.Unmarshal(reqBytes) }},
		"Response.Unmarshal": {0, func() { _, _ = resp.Unmarshal(respBytes) }},
	} {
		if got := testing.AllocsPerRun(100, c.fn); got > c.max {
			t.Errorf("%s: %v allocations, want at most %v", name, got, c.max)
		}
	}
	if req.NoncePort != 42 || resp.PolicyName != "Rustock" || sink != "NONE" {
		t.Fatalf("decoded %+v %+v", req, resp)
	}
	// A rejected shim leaves the caller's value as it was.
	if err := req.Unmarshal(respBytes); err == nil || req.NoncePort != 42 {
		t.Fatalf("request decoded from a response: err %v, value %+v", err, req)
	}
	if _, err := resp.Unmarshal(reqBytes); err == nil || resp.PolicyName != "Rustock" {
		t.Fatalf("response decoded from a request: err %v, value %+v", err, resp)
	}
	other := (&Response{Verdict: Drop, PolicyName: "Rustoc", Annotation: "late"}).Marshal()
	if _, err := resp.Unmarshal(other); err != nil || resp.PolicyName != "Rustoc" || resp.Annotation != "late" {
		t.Fatalf("decoded over a different response: err %v, value %+v", err, resp)
	}
	if _, err := resp.Unmarshal(respBytes); err != nil || resp.PolicyName != "Rustock" || resp.Annotation != "" {
		t.Fatalf("decoded back: err %v, value %+v", err, resp)
	}
}

// A Decoder fed verdicts that alternate among a few policies, as a
// farm's containment server sends them, makes no string once it has seen
// each name and annotation; a name beyond its table still decodes.
func TestDecoderAlternatingVerdictsAllocNothing(t *testing.T) {
	shims := [][]byte{
		(&Response{Verdict: Rewrite, PolicyName: "Rustock", Annotation: "smtp"}).Marshal(),
		(&Response{Verdict: Forward, PolicyName: "Grum"}).Marshal(),
		(&Response{Verdict: Reflect, PolicyName: "Rustock", Annotation: "cc"}).Marshal(),
		(&Response{Verdict: Drop, PolicyName: "Default"}).Marshal(),
	}
	var d Decoder
	i := 0
	next := func() {
		if _, err := d.Decode(shims[i%len(shims)]); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for range shims {
		next()
	}
	if got := testing.AllocsPerRun(100, next); got != 0 {
		t.Errorf("warm alternating verdicts: %v allocations per decode, want 0", got)
	}
	for n := range 2 * decoderStrings {
		name := fmt.Sprintf("policy-%d", n)
		if _, err := d.Decode((&Response{PolicyName: name}).Marshal()); err != nil || d.Resp.PolicyName != name {
			t.Fatalf("decoded %q: err %v, value %+v", name, err, d.Resp)
		}
	}
	if _, err := d.Decode(shims[2]); err != nil || d.Resp.PolicyName != "Rustock" || d.Resp.Annotation != "cc" || d.Resp.Verdict != Reflect {
		t.Fatalf("decoded after the table turned over: err %v, value %+v", err, d.Resp)
	}
}

// Property: request round-trips for arbitrary field values.
func TestPropertyRequestRoundTrip(t *testing.T) {
	f := func(oip, rip uint32, op, rp, vlan, nonce uint16) bool {
		r := &Request{
			OrigIP: netstack.Addr(oip), RespIP: netstack.Addr(rip),
			OrigPort: op, RespPort: rp, VLAN: vlan, NoncePort: nonce,
		}
		d, err := UnmarshalRequest(r.Marshal())
		return err == nil && *d == *r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: response round-trips for arbitrary annotations and short names.
func TestPropertyResponseRoundTrip(t *testing.T) {
	f := func(verdict uint32, name string, ann string) bool {
		if len(name) > PolicyNameLen {
			name = name[:PolicyNameLen]
		}
		// NUL bytes in the name are indistinguishable from padding.
		for i := 0; i < len(name); i++ {
			if name[i] == 0 {
				return true
			}
		}
		if len(ann) > 60000 {
			ann = ann[:60000]
		}
		r := &Response{Verdict: Verdict(verdict), PolicyName: name, Annotation: ann}
		d, n, err := UnmarshalResponse(r.Marshal())
		return err == nil && n == ResponseMinLen+len(ann) &&
			d.Verdict == r.Verdict && d.PolicyName == name && d.Annotation == ann
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: unmarshal never panics on junk.
func TestPropertyUnmarshalNoPanic(t *testing.T) {
	f := func(b []byte) bool {
		_, _ = UnmarshalRequest(b)
		_, _, _ = UnmarshalResponse(b)
		_, _, _ = PeekLength(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// FuzzShimCodec: no input makes PeekLength or a decoder panic, and any
// message that decodes re-encodes through AppendTo behind an arbitrary
// prefix — leaving the prefix as it was — to bytes that decode to the same
// value, exactly what Marshal produces.
func FuzzShimCodec(f *testing.F) {
	req := (&Request{
		OrigIP: netstack.MustParseAddr("10.0.0.23"), RespIP: netstack.MustParseAddr("192.150.187.12"),
		OrigPort: 1234, RespPort: 80, VLAN: 12, NoncePort: 42,
	}).Marshal()
	resp := (&Response{
		OrigIP: netstack.MustParseAddr("10.0.0.23"), RespIP: netstack.MustParseAddr("10.3.0.1"),
		OrigPort: 1234, RespPort: 6666, Verdict: Rewrite, PolicyName: "Rustock", Annotation: "C&C filtering",
	}).Marshal()
	badMagic := append([]byte(nil), req...)
	badMagic[0] ^= 0xff
	badVersion := append([]byte(nil), req...)
	badVersion[7] = 99
	for _, b := range [][]byte{
		req, resp, badMagic, badVersion, resp[:4], resp[:20], append(resp, "trailing bytes"...),
		(&Request{}).Marshal(),
		(&Response{Verdict: Drop, PolicyName: "DefaultDeny"}).Marshal(),
		(&Response{Verdict: Forward, PolicyName: "ThisPolicyNameIsFarLongerThanTheThirtyTwoByteFieldAllows"}).Marshal(),
		(&Response{Verdict: Reflect, PolicyName: "SpambotBase", Annotation: "full SMTP containment"}).Marshal(),
		(&Heartbeat{Seq: 7}).AppendTo(nil),
		[]byte("GET / HTTP/1.1\r\n"),
	} {
		f.Add([]byte(nil), b)
		f.Add([]byte("prefix"), b)
	}
	f.Fuzz(func(t *testing.T, prefix, b []byte) {
		if n, complete, err := PeekLength(b); err == nil && complete && (n > len(b) || n < 0) {
			t.Fatalf("PeekLength reports a whole %d-byte message in %d bytes", n, len(b))
		}
		// reencode appends a message behind prefix, checks the prefix
		// survived and that AppendTo(nil) is Marshal (where there is one),
		// and returns the appended bytes.
		reencode := func(appendTo func([]byte) []byte, marshal []byte) []byte {
			kept := append([]byte(nil), prefix...)
			out := appendTo(prefix)
			if !bytes.Equal(out[:len(kept)], kept) {
				t.Fatalf("AppendTo overwrote its prefix: % x, was % x", out[:len(kept)], kept)
			}
			if nilOut := appendTo(nil); marshal != nil && !bytes.Equal(nilOut, marshal) {
				t.Fatalf("AppendTo(nil) % x, Marshal % x", nilOut, marshal)
			}
			return out[len(kept):]
		}
		var req Request
		if err := req.Unmarshal(b); err == nil {
			var again Request
			if err := again.Unmarshal(reencode(req.AppendTo, req.Marshal())); err != nil || again != req {
				t.Fatalf("request %+v re-encoded decodes to %+v, %v", req, again, err)
			}
		}
		var resp Response
		if n, err := resp.Unmarshal(b); err == nil {
			if n > len(b) {
				t.Fatalf("response of %d bytes decoded from %d", n, len(b))
			}
			var again Response
			enc := reencode(resp.AppendTo, resp.Marshal())
			if m, err := again.Unmarshal(enc); err != nil || again != resp || m != len(enc) {
				t.Fatalf("response %+v re-encoded decodes to %+v (%d of %d bytes), %v", resp, again, m, len(enc), err)
			}
		}
		if hb, err := UnmarshalHeartbeat(b); err == nil {
			if again, err := UnmarshalHeartbeat(reencode(hb.AppendTo, nil)); err != nil || *again != *hb {
				t.Fatalf("heartbeat %+v re-encoded decodes to %+v, %v", hb, again, err)
			}
		}
	})
}
