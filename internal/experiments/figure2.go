package experiments

import (
	"fmt"
	"strings"
	"time"

	"gq/internal/containment"
	"gq/internal/farm"
	"gq/internal/host"
	"gq/internal/netstack"
	"gq/internal/policy"
	"gq/internal/shim"
)

// Fig. 2 demo addressing.
var (
	fig2Target  = netstack.MustParseAddr("203.0.113.80")
	fig2AltHost = netstack.MustParseAddr("203.0.113.81")
)

// fig2Decider maps destination port to one verdict per Fig. 2 panel.
type fig2Decider struct{ env *policy.Env }

func (fig2Decider) Name() string { return "Figure2Demo" }

func (d fig2Decider) Decide(req *shim.Request) containment.Decision {
	switch req.RespPort {
	case 8001:
		return containment.Decision{Verdict: shim.Forward, Annotation: "fig2(a) forward"}
	case 8002:
		return containment.Decision{Verdict: shim.Limit, Annotation: "fig2(b) rate-limit"}
	case 8003:
		return containment.Decision{Verdict: shim.Drop, Annotation: "fig2(c) drop"}
	case 8004:
		return containment.Decision{
			Verdict: shim.Redirect, RespIP: fig2AltHost, RespPort: 8004,
			Annotation: "fig2(d) redirect",
		}
	case 8005:
		sinkLoc := d.env.Service(policy.SvcCatchAllSink)
		return containment.Decision{
			Verdict: shim.Reflect, RespIP: sinkLoc.Addr, RespPort: 8005,
			Annotation: "fig2(e) reflect",
		}
	case 8006:
		return containment.Decision{
			Verdict: shim.Rewrite, Annotation: "fig2(f) rewrite",
			Handler: upcaseHandler{},
		}
	default:
		return containment.Decision{Verdict: shim.Drop, Annotation: "outside demo"}
	}
}

// upcaseHandler rewrites flow content: requests pass through unmodified to
// the real destination; responses come back upper-cased.
type upcaseHandler struct{}

func (upcaseHandler) OnClientData(s *containment.Session, data []byte) { s.WriteServer(data) }
func (upcaseHandler) OnServerData(s *containment.Session, data []byte) {
	s.WriteClient([]byte(strings.ToUpper(string(data))))
}
func (upcaseHandler) OnClientClose(s *containment.Session) { s.CloseServer() }
func (upcaseHandler) OnServerClose(s *containment.Session) { s.CloseClient() }

func init() {
	policy.Register("Figure2Demo", func(env *policy.Env) containment.Decider {
		return fig2Decider{env}
	})
}

// Figure2Result records the observed behaviour of one flow-manipulation
// mode.
type Figure2Result struct {
	Mode     string
	Verdict  shim.Verdict
	Observed string
	OK       bool
}

// RunFigure2 demonstrates the six flow-manipulation modes (Fig. 2) inside
// one farm and verifies where each flow's bytes actually went.
func RunFigure2(seed int64) ([]Figure2Result, string, error) {
	// The destination the inmate believes it is talking to, and the
	// alternate a REDIRECT sends it to: both record what they are sent.
	targetGot, altGot := map[uint16]string{}, map[uint16]string{}
	recorder := func(into map[uint16]string, ports ...uint16) func(*farm.Farm, *host.Host) error {
		return func(_ *farm.Farm, h *host.Host) error {
			for _, port := range ports {
				h.Listen(port, func(c *host.Conn) {
					c.OnData = func(d []byte) {
						into[c.LocalPort()] += string(d)
						c.Write([]byte("echo:" + string(d)))
					}
					c.OnPeerClose = func() { c.Close() }
				})
			}
			return nil
		}
	}

	// The probe inmate opens one flow per mode at boot.
	replies := map[uint16]string{}
	var dropErr error
	f, err := farm.Spec{
		Layout: farm.Layout{Seed: seed},
		External: []farm.ExternalHost{
			{Name: "target", Addr: fig2Target, Serve: recorder(targetGot, 8001, 8002, 8003, 8004, 8006)},
			{Name: "alt", Addr: fig2AltHost, Serve: recorder(altGot, 8004)},
		},
		Subfarms: []farm.SubfarmSpec{{
			SubfarmConfig: farm.SubfarmConfig{
				Name:   "fig2",
				VLANLo: 16, VLANHi: 20,
				ServiceVLAN:    11,
				GlobalPool:     netstack.MustParsePrefix("192.0.2.0/24"),
				FallbackPolicy: "Figure2Demo",
			},
			Inmates: []string{"probe"},
			OnBoot: func(fi *farm.FarmInmate) {
				for _, port := range []uint16{8001, 8002, 8003, 8004, 8005, 8006} {
					c := fi.Host.Dial(fig2Target, port)
					c.OnConnect = func() { c.Write([]byte(fmt.Sprintf("probe-%d", port))) }
					c.OnData = func(d []byte) { replies[port] += string(d) }
					if port == 8003 {
						c.OnClose = func(err error) { dropErr = err }
					}
				}
			},
		}},
	}.Build()
	if err != nil {
		return nil, "", err
	}
	sf := f.Subfarms[0]
	f.Run(2 * time.Minute)

	results := []Figure2Result{
		{
			Mode: "(a) Forward", Verdict: shim.Forward,
			Observed: fmt.Sprintf("target received %q, inmate got %q", targetGot[8001], replies[8001]),
			OK:       targetGot[8001] == "probe-8001" && replies[8001] == "echo:probe-8001",
		},
		{
			Mode: "(b) Rate-limit", Verdict: shim.Limit,
			Observed: fmt.Sprintf("target received %q (throttled path)", targetGot[8002]),
			OK:       targetGot[8002] == "probe-8002",
		},
		{
			Mode: "(c) Drop", Verdict: shim.Drop,
			Observed: fmt.Sprintf("target received %q, inmate conn error %v", targetGot[8003], dropErr),
			OK:       targetGot[8003] == "" && dropErr != nil,
		},
		{
			Mode: "(d) Redirect", Verdict: shim.Redirect,
			Observed: fmt.Sprintf("original got %q, alternate got %q", targetGot[8004], altGot[8004]),
			OK:       targetGot[8004] == "" && altGot[8004] == "probe-8004",
		},
		{
			Mode: "(e) Reflect", Verdict: shim.Reflect,
			Observed: fmt.Sprintf("sink logged %d flows on port 8005", sf.CatchAll.ByPort[8005]),
			OK:       sf.CatchAll.ByPort[8005] == 1,
		},
		{
			Mode: "(f) Rewrite", Verdict: shim.Rewrite,
			Observed: fmt.Sprintf("target got %q, inmate got rewritten %q", targetGot[8006], replies[8006]),
			OK:       targetGot[8006] == "probe-8006" && replies[8006] == "ECHO:PROBE-8006",
		},
	}

	var b strings.Builder
	b.WriteString("Figure 2: flow manipulation modes (flows initiated by an inmate)\n")
	for _, r := range results {
		status := "OK"
		if !r.OK {
			status = "FAIL"
		}
		fmt.Fprintf(&b, "  %-15s %-8s [%s] %s\n", r.Mode, r.Verdict, status, r.Observed)
	}
	return results, b.String(), nil
}
