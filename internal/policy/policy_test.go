package policy

import (
	"bytes"
	"strings"
	"testing"

	"gq/internal/containment"
	"gq/internal/netstack"
	"gq/internal/shim"
)

// fig6 is the exact configuration snippet from the paper's Fig. 6.
const fig6 = `[VLAN 16-17]
Decider = Rustock
Infection = rustock.100921.*.exe

[VLAN 18-19]
Decider = Grum
Infection = grum.100818.*.exe

[VLAN 16-19]
Trigger = *:25/tcp / 30min < 1 -> revert

[Autoinfect]
Address = 10.9.8.7
Port = 6543

[BannerSmtpSink]
Address = 10.3.1.4
Port = 2526
`

func TestParseFig6(t *testing.T) {
	cfg, err := Parse(fig6)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.VLANRules) != 3 {
		t.Fatalf("%d VLAN rules", len(cfg.VLANRules))
	}
	r, ok := cfg.RuleFor(16)
	if !ok || r.Decider != "Rustock" || r.Infection != "rustock.100921.*.exe" {
		t.Fatalf("rule for 16: %+v", r)
	}
	if r, _ := cfg.RuleFor(19); r.Decider != "Grum" {
		t.Fatalf("rule for 19: %+v", r)
	}
	for _, vlan := range []uint16{16, 17, 18, 19} {
		var trs []*containment.Trigger
		for _, r := range cfg.VLANRules {
			if vlan >= r.Lo && vlan <= r.Hi {
				trs = append(trs, r.Triggers...)
			}
		}
		if len(trs) != 1 || trs[0].Action != "revert" {
			t.Fatalf("triggers for %d: %v", vlan, trs)
		}
	}
	if cfg.Service("Autoinfect") != (AddrPort{netstack.MustParseAddr("10.9.8.7"), 6543}) {
		t.Fatalf("autoinfect %v", cfg.Service("Autoinfect"))
	}
	if cfg.Service("BannerSmtpSink") != (AddrPort{netstack.MustParseAddr("10.3.1.4"), 2526}) {
		t.Fatalf("banner sink %v", cfg.Service("BannerSmtpSink"))
	}
	if _, ok := cfg.RuleFor(20); ok {
		t.Fatal("rule for uncovered VLAN")
	}
}

func TestParseRejectsBadConfigs(t *testing.T) {
	bad := []string{
		"Decider = X",                   // assignment outside section
		"[VLAN 5-3]\nDecider = X",       // inverted range
		"[VLAN 0-3]\nDecider = X",       // VLAN 0
		"[VLAN a-b]\nDecider = X",       // non-numeric
		"[VLAN 1-2]\nBogus = X",         // unknown key
		"[VLAN 1-2]\nTrigger = garbage", // bad trigger
		"[Sink]\nAddress = not.an.ip",   // bad address
		"[Sink]\nPort = 99999",          // bad port
		"[Sink\nAddress = 10.0.0.1",     // unterminated section
		"[VLAN 1-2]\nDecider",           // no equals
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) accepted", s)
		}
	}
}

func TestParseCommentsAndSingleVLAN(t *testing.T) {
	cfg, err := Parse("# comment\n; also comment\n[VLAN 7]\nDecider = Storm\n")
	if err != nil {
		t.Fatal(err)
	}
	r, ok := cfg.RuleFor(7)
	if !ok || r.Lo != 7 || r.Hi != 7 || r.Decider != "Storm" {
		t.Fatalf("rule %+v", r)
	}
}

func TestMatchSample(t *testing.T) {
	if !MatchSample("rustock.100921.*.exe", "rustock.100921.001.exe") {
		t.Error("glob should match")
	}
	if MatchSample("rustock.100921.*.exe", "grum.100818.001.exe") {
		t.Error("glob should not match")
	}
}

func testEnv() *Env {
	return &Env{
		Services: map[string]AddrPort{
			SvcCatchAllSink:   {netstack.MustParseAddr("10.3.1.2"), 0},
			SvcSMTPSink:       {netstack.MustParseAddr("10.3.1.3"), 2525},
			SvcBannerSMTPSink: {netstack.MustParseAddr("10.3.1.4"), 2526},
			SvcHTTPSink:       {netstack.MustParseAddr("10.3.1.5"), 80},
			SvcAutoinfect:     {netstack.MustParseAddr("10.9.8.7"), 6543},
		},
		InternalPrefix: netstack.MustParsePrefix("10.0.0.0/16"),
		CCHosts: map[string]AddrPort{
			"Grum":    {netstack.MustParseAddr("50.8.207.91"), 80},
			"MegaD":   {netstack.MustParseAddr("198.51.100.77"), 4560},
			"GMailMX": {netstack.MustParseAddr("172.217.0.25"), 25},
		},
		Samples: func() SampleProvider {
			bp := NewBatchProvider(true)
			bp.Assign(16, []*Sample{NewSample("rustock.100921.001.exe", "rustock", []byte("MZ1"))})
			return bp
		}(),
	}
}

func req(vlan uint16, src, dst string, dport uint16) *shim.Request {
	return &shim.Request{
		OrigIP: netstack.MustParseAddr(src), OrigPort: 1234,
		RespIP: netstack.MustParseAddr(dst), RespPort: dport,
		VLAN: vlan,
	}
}

func TestDefaultDenyReflectsToCatchAll(t *testing.T) {
	d, err := New("DefaultDeny", testEnv())
	if err != nil {
		t.Fatal(err)
	}
	dec := d.Decide(req(16, "10.0.0.23", "203.0.113.5", 6667))
	if dec.Verdict != shim.Reflect || dec.RespIP != netstack.MustParseAddr("10.3.1.2") || dec.RespPort != 6667 {
		t.Fatalf("decision %+v", dec)
	}
}

func TestDefaultDenyWithoutSinkDrops(t *testing.T) {
	env := testEnv()
	delete(env.Services, SvcCatchAllSink)
	d, _ := New("DefaultDeny", env)
	dec := d.Decide(req(16, "10.0.0.23", "203.0.113.5", 80))
	if dec.Verdict != shim.Drop {
		t.Fatalf("missing sink must fail closed, got %v", dec.Verdict)
	}
}

func TestSpambotBaseReflectsSMTP(t *testing.T) {
	d, _ := New("SpambotBase", testEnv())
	dec := d.Decide(req(16, "10.0.0.23", "203.0.113.25", 25))
	if dec.Verdict != shim.Reflect || dec.RespIP != netstack.MustParseAddr("10.3.1.3") || dec.RespPort != 2525 {
		t.Fatalf("decision %+v", dec)
	}
}

func TestRustockPolicy(t *testing.T) {
	d, _ := New("Rustock", testEnv())
	// HTTPS C&C forwarded.
	if dec := d.Decide(req(16, "10.0.0.23", "203.0.113.5", 443)); dec.Verdict != shim.Forward {
		t.Fatalf("https: %+v", dec)
	}
	// HTTP C&C rewritten.
	if dec := d.Decide(req(16, "10.0.0.23", "203.0.113.5", 80)); !dec.Verdict.Has(shim.Rewrite) || dec.Handler == nil {
		t.Fatalf("http: %+v", dec)
	}
	// SMTP reflected to the simple sink.
	if dec := d.Decide(req(16, "10.0.0.23", "203.0.113.25", 25)); dec.Verdict != shim.Reflect ||
		dec.RespIP != netstack.MustParseAddr("10.3.1.3") {
		t.Fatalf("smtp: %+v", dec)
	}
	// Autoinfection rewritten with the sample digest in the annotation.
	dec := d.Decide(req(16, "10.0.0.23", "10.9.8.7", 6543))
	if !dec.Verdict.Has(shim.Rewrite) || !strings.HasPrefix(dec.Annotation, "autoinfection ") {
		t.Fatalf("autoinfect: %+v", dec)
	}
	// Everything else contained.
	if dec := d.Decide(req(16, "10.0.0.23", "203.0.113.5", 21)); dec.Verdict != shim.Reflect {
		t.Fatalf("ftp: %+v", dec)
	}
}

func TestGrumPolicy(t *testing.T) {
	d, _ := New("Grum", testEnv())
	// Known C&C host forwarded.
	if dec := d.Decide(req(18, "10.0.0.24", "50.8.207.91", 80)); dec.Verdict != shim.Forward {
		t.Fatalf("cc: %+v", dec)
	}
	// Other HTTP contained.
	if dec := d.Decide(req(18, "10.0.0.24", "203.0.113.5", 80)); dec.Verdict != shim.Reflect {
		t.Fatalf("other http: %+v", dec)
	}
	// SMTP to the banner-grabbing sink.
	if dec := d.Decide(req(18, "10.0.0.24", "203.0.113.25", 25)); dec.RespIP != netstack.MustParseAddr("10.3.1.4") {
		t.Fatalf("smtp: %+v", dec)
	}
}

func TestWaledacVariants(t *testing.T) {
	strict, _ := New("Waledac", testEnv())
	loose, _ := New("WaledacTestSMTP", testEnv())
	gmail := req(20, "10.0.0.30", "172.217.0.25", 25)
	if dec := strict.Decide(gmail); dec.Verdict != shim.Reflect {
		t.Fatalf("strict should reflect even GMail: %+v", dec)
	}
	if dec := loose.Decide(gmail); dec.Verdict != shim.Forward {
		t.Fatalf("loose should forward the test message: %+v", dec)
	}
	other := req(20, "10.0.0.30", "203.0.113.25", 25)
	if dec := loose.Decide(other); dec.Verdict != shim.Reflect {
		t.Fatalf("loose must still contain ordinary spam: %+v", dec)
	}
}

func TestStormPolicy(t *testing.T) {
	d, _ := New("Storm", testEnv())
	// Inbound flows (external initiator) forwarded for reachability.
	in := &shim.Request{
		OrigIP: netstack.MustParseAddr("198.51.100.9"), OrigPort: 4000,
		RespIP: netstack.MustParseAddr("192.0.2.16"), RespPort: 8001, VLAN: 9,
	}
	if dec := d.Decide(in); dec.Verdict != shim.Forward {
		t.Fatalf("inbound: %+v", dec)
	}
	// Outbound HTTP C&C forwarded.
	if dec := d.Decide(req(9, "10.0.0.30", "203.0.113.5", 80)); dec.Verdict != shim.Forward {
		t.Fatalf("http: %+v", dec)
	}
	// Outbound FTP (the iframe-injection jobs) reflected to the sink.
	if dec := d.Decide(req(9, "10.0.0.30", "203.0.113.21", 21)); dec.Verdict != shim.Reflect {
		t.Fatalf("ftp: %+v", dec)
	}
}

type fakeVictims struct{ addr netstack.Addr }

func (f fakeVictims) VictimFor(vlan uint16, dst netstack.Addr) (netstack.Addr, bool) {
	if f.addr == 0 {
		return 0, false
	}
	return f.addr, true
}

func TestWormCapturePolicy(t *testing.T) {
	env := testEnv()
	env.Victims = fakeVictims{netstack.MustParseAddr("10.0.0.45")}
	d, _ := New("WormCapture", env)
	dec := d.Decide(req(11, "10.0.0.44", "203.0.113.99", 445))
	if dec.Verdict != shim.Redirect || dec.RespIP != netstack.MustParseAddr("10.0.0.45") || dec.RespPort != 445 {
		t.Fatalf("decision %+v", dec)
	}
	// Pool exhausted: fall back to the sink, never the real target.
	env.Victims = fakeVictims{}
	d, _ = New("WormCapture", env)
	if dec := d.Decide(req(11, "10.0.0.44", "203.0.113.99", 445)); dec.Verdict != shim.Reflect {
		t.Fatalf("fallback %+v", dec)
	}
}

func TestBatchProviderSequential(t *testing.T) {
	bp := NewBatchProvider(false)
	lib := []*Sample{
		NewSample("grum.100818.001.exe", "grum", []byte("A")),
		NewSample("grum.100818.002.exe", "grum", []byte("B")),
		NewSample("rustock.100921.001.exe", "rustock", []byte("C")),
	}
	n := bp.AssignMatching(18, "grum.100818.*.exe", lib)
	if n != 2 {
		t.Fatalf("matched %d", n)
	}
	s1, _ := bp.NextSample(18)
	s2, _ := bp.NextSample(18)
	if s1.Name != "grum.100818.001.exe" || s2.Name != "grum.100818.002.exe" {
		t.Fatalf("order %s %s", s1.Name, s2.Name)
	}
	if _, ok := bp.NextSample(18); ok {
		t.Fatal("non-repeat batch should exhaust")
	}
	if bp.Remaining(18) != 0 {
		t.Fatal("remaining wrong")
	}

	rp := NewBatchProvider(true)
	rp.Assign(16, lib[:1])
	rp.NextSample(16)
	again, ok := rp.NextSample(16)
	if !ok || again.Name != lib[0].Name {
		t.Fatal("repeat provider should keep serving the last sample")
	}
}

func TestSampleMD5(t *testing.T) {
	s := NewSample("x.exe", "x", []byte("hello"))
	if s.MD5 != "5d41402abc4b2a76b9719d911017c592" {
		t.Fatalf("md5 %s", s.MD5)
	}
}

func TestCCFilterForbiddenDirectives(t *testing.T) {
	h := NewCCFilterHandler()
	for _, line := range []string{"DDOS 1.2.3.4", "ddos 1.2.3.4", "UPDATE http://x/y.exe", "EXEC cmd"} {
		if !h.forbidden(line) {
			t.Errorf("%q should be forbidden", line)
		}
	}
	for _, line := range []string{"TEMPLATE abc", "TARGET a@b.com", "SLEEP 60", "DDOSX notreally"} {
		if h.forbidden(line) {
			t.Errorf("%q should pass", line)
		}
	}
}

// A C&C line held past maxDirectiveLine is dropped whole and counted,
// however benign its verb: the filter never holds more than the cap of it,
// forwards none of it, and passes the next line as usual. The zero Session
// has no client, so what the filter forwards shows only in Passed.
func TestCCFilterDropsOverlongLine(t *testing.T) {
	h := NewCCFilterHandler()
	s := &containment.Session{}
	h.OnServerData(s, []byte("TEMPLATE "))
	seg := bytes.Repeat([]byte("x"), 1400)
	for i := 0; i < 10; i++ {
		h.OnServerData(s, seg)
		if len(h.respBuf) > maxDirectiveLine {
			t.Fatalf("filter holds %d bytes of one line", len(h.respBuf))
		}
	}
	h.OnServerData(s, []byte("xx\nTARGET a@b.com\n"))
	if h.Dropped != 1 || h.Passed != 1 || len(h.respBuf) != 0 {
		t.Fatalf("dropped %d, passed %d, holding %d bytes; want 1, 1, 0", h.Dropped, h.Passed, len(h.respBuf))
	}
}

func TestRegistryNames(t *testing.T) {
	names := Names()
	want := []string{"DefaultDeny", "Grum", "Rustock", "Storm", "WormCapture"}
	for _, w := range want {
		found := false
		for _, n := range names {
			if n == w {
				found = true
			}
		}
		if !found {
			t.Errorf("policy %q not registered (have %v)", w, names)
		}
	}
	if _, err := New("NoSuchPolicy", testEnv()); err == nil {
		t.Error("unknown policy accepted")
	}
}
