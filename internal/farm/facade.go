package farm

import (
	"fmt"
	"io"
	"time"

	"gq/internal/hostnet"
	"gq/internal/netstack"
	"gq/internal/obs"
	"gq/internal/sim"
)

// FacadeEcho is the blocking-facade self-test AttachFacadeEcho installs: a
// proc-driven echo server and a periodic proc client on the service VLAN.
// Every round trip (or failure) lands in the journal, so the chaos soak's
// byte-determinism proof covers the facade's rendezvous path alongside the
// callback stacks. Counters are mutated only from procs and read after the
// run.
type FacadeEcho struct {
	// Rounds counts completed, payload-verified echo round trips.
	Rounds uint64
	// Errors counts rounds that failed (dial error, short/garbled echo,
	// deadline).
	Errors uint64

	Server, Client *hostnet.Stack
	scope          *obs.Scope
}

// Facade self-test service addresses and port within the service prefix.
const (
	facadeEchoOff   = 6
	facadeClientOff = 7
	// FacadeEchoPort is the echo server's TCP port.
	FacadeEchoPort = 7
)

// AttachFacadeEcho adds the facade echo pair to the subfarm as
// sf.FacadeEcho. The client performs one echo round trip every interval
// for as long as the simulation runs. Both endpoints are sim.Proc-driven,
// so the pair is safe in sharded domains and byte-deterministic.
func (sf *Subfarm) AttachFacadeEcho(interval time.Duration) {
	cfg := sf.Config
	dom := sf.Sim
	svc := func(off int) netstack.Addr { return cfg.ServicePrefix.Nth(off) }
	fe := &FacadeEcho{
		Server: hostnet.New(sf.newSvcHost("facade-echo", svc(facadeEchoOff), 0)),
		Client: hostnet.New(sf.newSvcHost("facade-client", svc(facadeClientOff), 0)),
		scope:  dom.Obs().Scope(cfg.Name+".facade", 0),
	}

	dom.Go(cfg.Name+"-facade-echo", func(p *sim.Proc) {
		ln, err := fe.Server.Listen(FacadeEchoPort)
		if err != nil {
			return
		}
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			buf := make([]byte, 512)
			for {
				n, err := conn.Read(buf)
				if n > 0 {
					conn.Write(buf[:n])
				}
				if err != nil {
					conn.Close()
					break
				}
			}
		}
	})

	dom.Go(cfg.Name+"-facade-client", func(p *sim.Proc) {
		for i := 0; ; i++ {
			p.Sleep(interval)
			ok := fe.roundTrip(i)
			verdict := uint32(0)
			if !ok {
				verdict = 1
			}
			fe.scope.Emit(obs.Event{
				Type: obs.EvFacadeEcho, N: uint64(i), Verdict: verdict,
				SrcIP: uint32(svc(facadeClientOff)), DstIP: uint32(svc(facadeEchoOff)),
				DstPort: FacadeEchoPort, Proto: 6,
			})
		}
	})
	sf.FacadeEcho = fe
}

// roundTrip performs one deadline-guarded echo exchange from the client
// proc; it must only be called in proc context.
func (fe *FacadeEcho) roundTrip(i int) bool {
	conn, err := fe.Client.Dial(fe.Server.Host().Addr(), FacadeEchoPort)
	if err != nil {
		fe.Errors++
		return false
	}
	defer conn.Close()
	// Bound each round so a faulted habitat degrades to counted errors
	// instead of a wedged proc.
	conn.SetDeadline(fe.Client.Clock().Add(30 * time.Second))
	msg := fmt.Sprintf("facade-echo-%d", i)
	if _, err := conn.Write([]byte(msg)); err != nil {
		fe.Errors++
		return false
	}
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(conn, buf); err != nil || string(buf) != msg {
		fe.Errors++
		return false
	}
	fe.Rounds++
	return true
}
