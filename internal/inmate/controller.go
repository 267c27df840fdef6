package inmate

import (
	"fmt"
	"strconv"
	"strings"

	"gq/internal/host"
	"gq/internal/lineio"
)

// Controller is the inmate controller (§6.3): "a simple message receiver
// that interprets the life-cycle control instructions coming in from the
// containment servers", using a simple text-based message format:
//
//	ACTION <start|stop|reboot|revert|terminate> VLAN <id>
//
// It lives on the management network (conceptually on the gateway, for
// immediate access to all VMMs and the Raw Iron Controller) and needs only
// the inmate's VLAN ID to identify the target of an action.
type Controller struct {
	h      *host.Host
	byVLAN map[uint16]*Inmate

	// Actions counts the life-cycle actions handled, failed ones too.
	Actions int

	// RecycleFn, when set, handles the "recycle" verb: the farm routes it
	// to the recycling pipeline that owns the inmate, forcing it out of
	// its detonation window into capture → reimage → re-admission.
	RecycleFn func(vlan uint16) error

	// hung simulates a wedged controller process (the chaos ctl-hang
	// fault): connections still complete their TCP handshake, but every
	// received line is swallowed unanswered — which is exactly why the
	// supervision tree probes with an application-level PING rather than a
	// bare dial.
	hung bool
}

// ControllerPort is the management-network port the controller listens on.
const ControllerPort = 7777

// NewController starts the controller on the management-network host h.
func NewController(h *host.Host) (*Controller, error) {
	c := &Controller{h: h, byVLAN: make(map[uint16]*Inmate)}
	err := h.Listen(ControllerPort, func(conn *host.Conn) {
		var in lineio.Reader
		conn.OnData = func(d []byte) {
			if c.hung {
				return
			}
			in.Feed(d, func(l []byte) {
				if line := strings.TrimSpace(string(l)); line != "" {
					conn.Write([]byte(c.handleLine(line) + "\n"))
				}
			}, conn.Close)
		}
		conn.OnPeerClose = conn.Close
	})
	if err != nil {
		return nil, err
	}
	return c, nil
}

// SetHung wedges (or unwedges) the controller's protocol engine; see the
// hung field. Must run on the controller's domain goroutine.
func (c *Controller) SetHung(hung bool) { c.hung = hung }

// KnownAction reports whether verb is a lifecycle action Execute accepts.
// Callers in other simulation domains use it to validate an action before
// posting it across, since the cross-domain dispatch cannot return errors.
func KnownAction(verb string) bool {
	switch verb {
	case "start", "stop", "reboot", "revert", "terminate", "recycle":
		return true
	}
	return false
}

// Register adds an inmate to the controller's inventory ("at startup, the
// controller scans the VMMs deployed on the management network to assemble
// an inventory of inmates and their VLAN IDs").
func (c *Controller) Register(im *Inmate) { c.byVLAN[im.VLAN] = im }

// Unregister removes an expired inmate.
func (c *Controller) Unregister(vlan uint16) { delete(c.byVLAN, vlan) }

// Execute performs an action directly (the in-process path used when the
// containment server and controller share a farm object in tests). When
// the target inmate lives in a different simulation domain the action is
// dispatched into that domain — the "OK" then acknowledges acceptance of
// the VMM command, which takes effect one cross-domain hop later.
func (c *Controller) Execute(action string, vlan uint16) error {
	im := c.byVLAN[vlan]
	c.Actions++
	if im == nil {
		return fmt.Errorf("inmate: no inmate on VLAN %d", vlan)
	}
	var fn func()
	switch action {
	case "start":
		fn = im.Start
	case "stop":
		fn = im.Stop
	case "reboot":
		fn = im.Reboot
	case "revert":
		fn = im.Revert
	case "terminate":
		fn = im.Terminate
	case "recycle":
		if c.RecycleFn == nil {
			return fmt.Errorf("inmate: no recycling pipeline attached")
		}
		return c.RecycleFn(vlan)
	default:
		return fmt.Errorf("inmate: unknown action %q", action)
	}
	c.h.Sim().Hop(im.Host.Sim(), fn)
	return nil
}

func (c *Controller) handleLine(line string) string {
	// Liveness probe from the supervision tree: answered inline by the
	// protocol engine, so a hung controller reads as down even while its
	// TCP handshakes still complete.
	if strings.EqualFold(line, "PING") {
		return "PONG"
	}
	fields := strings.Fields(line)
	if len(fields) != 4 || strings.ToUpper(fields[0]) != "ACTION" || strings.ToUpper(fields[2]) != "VLAN" {
		return "ERR syntax: ACTION <verb> VLAN <id>"
	}
	vlan, err := strconv.Atoi(fields[3])
	if err != nil || vlan < 1 || vlan > 4094 {
		return "ERR bad VLAN id"
	}
	if err := c.Execute(strings.ToLower(fields[1]), uint16(vlan)); err != nil {
		return "ERR " + err.Error()
	}
	return "OK"
}

// SendAction dials the controller from another management host and sends
// one action line (the containment server's side of the protocol). done
// receives the reply line.
func SendAction(from *host.Host, controller *host.Host, action string, vlan uint16, done func(reply string)) {
	SendLine(from, controller, fmt.Sprintf("ACTION %s VLAN %d", action, vlan), done)
}

// SendLine is the client side of the controller's line protocol: dial from
// another management host, send one line, hand the reply line to done
// (exactly once; "ERR <cause>" if the connection closes first, as it does
// once a reply line passes lineio.DefaultMax) and close.
// The supervision tree's liveness probe sends "PING" and wants "PONG". The
// connection is returned so a caller with a deadline can Abort it.
func SendLine(from *host.Host, controller *host.Host, line string, done func(reply string)) *host.Conn {
	c := from.Dial(controller.Addr(), ControllerPort)
	var in lineio.Reader
	c.OnConnect = func() { c.Write([]byte(line + "\n")) }
	c.OnData = func(d []byte) {
		in.Feed(d, func(reply []byte) {
			if done != nil {
				done(strings.TrimSpace(string(reply)))
				done = nil
			}
			c.Close()
		}, c.Close)
	}
	c.OnClose = func(err error) {
		if done != nil {
			done("ERR " + fmt.Sprint(err))
		}
	}
	return c
}
