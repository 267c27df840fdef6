package experiments

import (
	"fmt"
	"strings"
	"time"

	"gq/internal/containment"
	"gq/internal/farm"
	"gq/internal/host"
	"gq/internal/httpx"
	"gq/internal/netstack"
	"gq/internal/policy"
	"gq/internal/shim"
)

// fig5Handler is the exact Fig. 5 content control: the requested resource
// is rewritten (bot.exe -> cleanup.exe) on the way to the target, and the
// target's 200 OK comes back as 404 NOT FOUND.
type fig5Handler struct{}

func (fig5Handler) OnClientData(s *containment.Session, data []byte) {
	s.WriteServer([]byte(strings.Replace(string(data), "GET /bot.exe", "GET /cleanup.exe", 1)))
}
func (fig5Handler) OnServerData(s *containment.Session, data []byte) {
	s.WriteClient([]byte(strings.Replace(string(data), "HTTP/1.1 200 OK", "HTTP/1.1 404 NOT FOUND", 1)))
}
func (fig5Handler) OnClientClose(s *containment.Session) { s.CloseServer() }
func (fig5Handler) OnServerClose(s *containment.Session) { s.CloseClient() }

type fig5Decider struct{}

func (fig5Decider) Name() string { return "Fig5Rewrite" }
func (fig5Decider) Decide(req *shim.Request) containment.Decision {
	return containment.Decision{
		Verdict: shim.Rewrite, Annotation: "C&C filtering", Handler: fig5Handler{},
	}
}

func init() {
	policy.Register("Fig5Rewrite", func(env *policy.Env) containment.Decider { return fig5Decider{} })
}

// Figure5Outcome carries the captured packet sequence plus verification.
type Figure5Outcome struct {
	Trace     []string
	InmateGot string
	TargetSaw string
}

// RunFigure5 reproduces the Fig. 5 packet flow: a REWRITE containment of an
// inmate's HTTP GET, traced at the subfarm tap, with the shim messages and
// sequence-space bumping visible on the wire.
func RunFigure5(seed int64) (*Figure5Outcome, string, error) {
	targetAddr := netstack.MustParseAddr("192.150.187.12")
	out := &Figure5Outcome{}
	f, err := farm.Spec{
		Layout: farm.Layout{Seed: seed},
		External: []farm.ExternalHost{{Name: "target", Addr: targetAddr, Serve: func(_ *farm.Farm, h *host.Host) error {
			return h.Listen(80, func(c *host.Conn) {
				c.OnData = func(d []byte) {
					out.TargetSaw += string(d)
					c.Write(httpx.AppendResponse(nil, 200, []byte("MZ-REAL-BINARY")))
				}
				c.OnPeerClose = func() { c.Close() }
			})
		}}},
		Subfarms: []farm.SubfarmSpec{{
			SubfarmConfig: farm.SubfarmConfig{
				Name:   "fig5",
				VLANLo: 12, VLANHi: 14,
				ServiceVLAN:    11,
				GlobalPool:     netstack.MustParsePrefix("192.0.2.0/24"),
				FallbackPolicy: "Fig5Rewrite",
			},
			Inmates: []string{"inmate"},
			OnBoot: func(fi *farm.FarmInmate) {
				c := fi.Host.Dial(targetAddr, 80)
				c.OnConnect = func() { c.Write([]byte("GET /bot.exe HTTP/1.1\r\nHost: 192.150.187.12\r\n\r\n")) }
				c.OnData = func(d []byte) { out.InmateGot += string(d) }
			},
		}},
	}.Build()
	if err != nil {
		return nil, "", err
	}
	sf := f.Subfarms[0]

	// Tap: render each packet the way Fig. 5 draws them.
	sf.Router.AddTap(func(p *netstack.Packet) {
		if p.TCP == nil {
			return
		}
		line := fmt.Sprintf("%-12s %s:%d -> %s:%d [%s] seq=%d ack=%d len=%d",
			f.Sim.Now().Round(time.Millisecond),
			p.IP.Src, p.TCP.SrcPort, p.IP.Dst, p.TCP.DstPort,
			netstack.FlagString(p.TCP.Flags), p.TCP.Seq, p.TCP.Ack, len(p.Payload))
		if len(p.Payload) == shim.RequestLen {
			if _, err := shim.UnmarshalRequest(p.Payload); err == nil {
				line += "   <= REQ SHIM injected into sequence space"
			}
		}
		if strings.HasPrefix(string(p.Payload), "GET /bot.exe") {
			line += "   <= original request riding bumped sequence numbers (SEQ += |REQ SHIM|)"
		}
		out.Trace = append(out.Trace, line)
	})
	// The rewritten request leaves on leg 2 via the upstream interface
	// (Fig. 5's right-hand column).
	f.Gateway.AddUpstreamTap(func(frame []byte) {
		p, err := netstack.ParseFrame(frame)
		if err != nil || p.TCP == nil {
			return
		}
		line := fmt.Sprintf("%-12s %s:%d -> %s:%d [%s] seq=%d len=%d (upstream)",
			f.Sim.Now().Round(time.Millisecond),
			p.IP.Src, p.TCP.SrcPort, p.IP.Dst, p.TCP.DstPort,
			netstack.FlagString(p.TCP.Flags), p.TCP.Seq, len(p.Payload))
		if strings.HasPrefix(string(p.Payload), "GET /cleanup.exe") {
			line += "   <= rewritten request forwarded to the target"
		}
		out.Trace = append(out.Trace, line)
	})

	f.Run(time.Minute)

	var b strings.Builder
	b.WriteString("Figure 5: TCP packet flow through gateway and containment server (REWRITE)\n")
	for _, line := range out.Trace {
		b.WriteString("  " + line + "\n")
	}
	fmt.Fprintf(&b, "\ninmate received: %q\n", firstLine(out.InmateGot))
	fmt.Fprintf(&b, "target saw:      %q\n", firstLine(out.TargetSaw))
	return out, b.String(), nil
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\r'); i >= 0 {
		return s[:i]
	}
	return s
}
