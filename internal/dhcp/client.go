package dhcp

import (
	"time"

	"gq/internal/host"
	"gq/internal/netstack"
	"gq/internal/sim"
)

const clientRetryInterval = 4 * time.Second

// Client runs the DISCOVER/OFFER/REQUEST/ACK exchange on a host and
// configures its address, router, and DNS from the resulting lease. Inmates
// run this at boot; the resulting "boot-time chatter" is what triggers the
// gateway's dynamic address assignment (§5.3).
type Client struct {
	h       *host.Host
	onBound func(netstack.Addr)
	xid     uint32
	state   int // 0 discovering, 1 requesting, 2 bound
	retry   *sim.Event
}

// RunClient starts DHCP configuration on h. onBound fires once the lease is
// installed; it may be nil.
func RunClient(h *host.Host, onBound func(netstack.Addr)) *Client {
	c := &Client{h: h, onBound: onBound, xid: h.Sim().Rand().Uint32()}
	// Replies arrive addressed to 255.255.255.255 before the host has an
	// address, so receive them through the raw hook.
	h.SetRawUDPHook(c.rawUDP)
	c.sendDiscover()
	return c
}

func (c *Client) rawUDP(p *netstack.Packet) bool {
	if p.UDP.DstPort != ClientPort {
		return false
	}
	m, err := Unmarshal(p.Payload)
	if err != nil || m.Op != OpReply || m.XID != c.xid || m.CHAddr != c.h.MAC() {
		return true // consumed but ignored
	}
	switch m.Type() {
	case Offer:
		if c.state != 0 {
			return true
		}
		c.state = 1
		c.sendRequest(m)
	case Ack:
		if c.state != 1 {
			return true
		}
		c.state = 2
		if c.retry != nil {
			c.retry.Cancel()
		}
		bits := 24
		if mask, ok := m.AddrOption(OptSubnetMask); ok {
			bits = maskBits(mask)
		}
		router, _ := m.AddrOption(OptRouter)
		c.h.ConfigureStatic(m.YIAddr, bits, router)
		if dns, ok := m.AddrOption(OptDNS); ok {
			c.h.SetDNS(dns)
		}
		c.h.SetRawUDPHook(nil)
		// Gratuitous ARP so the network learns the new binding.
		c.h.AnnounceARP()
		if c.onBound != nil {
			c.onBound(m.YIAddr)
		}
	case Nak:
		c.state = 0
		c.sendDiscover()
	}
	return true
}

func (c *Client) sendDiscover() {
	m := &Message{Op: OpRequest, XID: c.xid, Flags: BroadcastFlag, CHAddr: c.h.MAC()}
	m.SetType(Discover)
	c.broadcast(m)
	c.armRetry()
}

func (c *Client) sendRequest(offer *Message) {
	m := &Message{Op: OpRequest, XID: c.xid, Flags: BroadcastFlag, CHAddr: c.h.MAC()}
	m.SetType(Request)
	m.SetAddrOption(OptRequestedIP, offer.YIAddr)
	if sid, ok := offer.AddrOption(OptServerID); ok {
		m.SetAddrOption(OptServerID, sid)
	}
	c.broadcast(m)
	c.armRetry()
}

func (c *Client) broadcast(m *Message) {
	// A dedicated ephemeral socket per transmission keeps the host API
	// simple; port 68 is the canonical source.
	sock, err := c.h.ListenUDP(ClientPort, nil)
	if err != nil {
		return
	}
	sock.SendTo(netstack.Addr(0xffffffff), ServerPort, m.Marshal())
	sock.Close()
}

func (c *Client) armRetry() {
	if c.retry != nil {
		c.retry.Cancel()
	}
	c.retry = c.h.Sim().Schedule(clientRetryInterval, func() {
		if c.state == 2 {
			return
		}
		c.state = 0
		c.sendDiscover()
	})
}

func maskBits(mask netstack.Addr) int {
	bits := 0
	for v := uint32(mask); v&0x80000000 != 0; v <<= 1 {
		bits++
	}
	return bits
}
