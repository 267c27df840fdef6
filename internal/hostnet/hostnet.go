// Package hostnet is a blocking net.Conn / net.Listener / DialContext
// facade over the callback TCP stack in internal/host, modeled on the
// adapter layers real userspace stacks grow (a Listener/Connector pair
// plus a DialContext that drops into http.Transport). It is what lets an
// unmodified Go protocol library — stdlib net/http above all — run as a
// sink or a specimen inside the farm.
//
// The facade bridges two worlds with incompatible execution models. The
// simulator is a single-threaded event loop: host.Conn callbacks fire
// inside events and must never block. net.Conn callers are goroutines
// that expect Read to block until data arrives. The bridge offers two
// disciplines (DESIGN.md §3e):
//
//   - sim.Proc callers ("coupled"): the proc runs only while the event
//     loop is suspended, so facade calls touch connection state directly
//     and blocking is Park — resumed by the OnData/OnPeerClose/OnClose
//     events through a synchronized rendezvous. Fully deterministic,
//     works inside sharded domains, and is the only discipline allowed in
//     determinism-checked topologies.
//
//   - detached callers ("alien"): any other goroutine, including the ones
//     stdlib net/http spawns internally. Operations are Injected into the
//     simulator and the caller blocks on a channel; someone must drive
//     the loop with Simulator.Pump. Correct, race-free, but not
//     byte-deterministic — the OS scheduler decides when injections land
//     in virtual time.
//
// Calling a blocking facade operation from inside an event callback
// panics immediately: parking there would deadlock the simulation.
package hostnet

import (
	"context"
	"fmt"
	"net"
	"strconv"
	"time"

	"gq/internal/host"
	"gq/internal/netstack"
	"gq/internal/sim"
)

// Stack adapts one host.Host to the net package's blocking interfaces.
type Stack struct {
	h *host.Host
	s *sim.Simulator
}

// New wraps h. Multiple Stacks over the same host are allowed (they share
// the host's port space).
func New(h *host.Host) *Stack {
	return &Stack{h: h, s: h.Sim()}
}

// Host returns the wrapped host.
func (s *Stack) Host() *host.Host { return s.h }

// Clock returns the current virtual time as an absolute timestamp
// (sim.Epoch based). Deadlines handed to SetDeadline are interpreted on
// this clock, so callers compute them as s.Clock().Add(timeout). It reads
// the simulator's shared clock mirror and is safe from any goroutine.
func (s *Stack) Clock() time.Time { return sim.Epoch.Add(s.s.ObservedNow()) }

// run executes fn with the event loop provably suspended: directly for a
// sim.Proc caller (the loop already waits on the proc), via Inject+wait
// for a detached caller. It panics when invoked from inside an event
// callback — fn is allowed to mutate connection state, and the callback
// path must use the raw host API instead.
func (s *Stack) run(fn func()) {
	if s.s.CallerProc() != nil {
		fn()
		return
	}
	if s.s.OnEventLoop() {
		panic("hostnet: blocking facade call from inside a simulator event callback (use a sim.Proc or the raw host API)")
	}
	done := make(chan struct{})
	s.s.Inject(func() {
		fn()
		close(done)
	})
	<-done
}

// waiter is one blocked caller: a coupled proc to Unpark, or a channel a
// detached goroutine waits on.
type waiter struct {
	p  *sim.Proc
	ch chan struct{}
}

// waitQ collects blocked callers of one conn or listener. Mutated only
// while the event loop is suspended or from loop events themselves.
type waitQ struct {
	ws []waiter
}

// wake releases every waiter. Procs are resumed immediately (they run to
// their next park while the loop is suspended); detached waiters get
// their channel closed and re-enter through Inject.
func (q *waitQ) wake() {
	ws := q.ws
	q.ws = nil
	for _, w := range ws {
		if w.p != nil {
			w.p.Unpark()
		} else {
			close(w.ch)
		}
	}
}

// block runs try with the loop suspended until it reports done, parking
// (proc) or channel-waiting (detached) on q between attempts. try runs in
// loop context and communicates results through captured variables.
func (s *Stack) block(q *waitQ, try func() bool) {
	if p := s.s.CallerProc(); p != nil {
		for !try() {
			q.ws = append(q.ws, waiter{p: p})
			p.Park()
		}
		return
	}
	if s.s.OnEventLoop() {
		panic("hostnet: blocking facade call from inside a simulator event callback (use a sim.Proc or the raw host API)")
	}
	for {
		ok := false
		ch := make(chan struct{})
		done := make(chan struct{})
		s.s.Inject(func() {
			if ok = try(); !ok {
				q.ws = append(q.ws, waiter{ch: ch})
			}
			close(done)
		})
		<-done
		if ok {
			return
		}
		<-ch
	}
}

// tcpAddr converts a simulated address to the net package's form.
func tcpAddr(a netstack.Addr, port uint16) *net.TCPAddr {
	return &net.TCPAddr{
		IP:   net.IPv4(byte(a>>24), byte(a>>16), byte(a>>8), byte(a)),
		Port: int(port),
	}
}

// resolve parses "ip:port" against the simulated address space.
func resolve(address string) (netstack.Addr, uint16, error) {
	hostStr, portStr, err := net.SplitHostPort(address)
	if err != nil {
		return 0, 0, err
	}
	addr, err := netstack.ParseAddr(hostStr)
	if err != nil {
		return 0, 0, fmt.Errorf("hostnet: %w", err)
	}
	port, err := strconv.ParseUint(portStr, 10, 16)
	if err != nil || port == 0 {
		return 0, 0, fmt.Errorf("hostnet: bad port %q", portStr)
	}
	return addr, uint16(port), nil
}

// Dial opens a blocking connection to dst:port. Equivalent to
// DialContext with a background context.
func (s *Stack) Dial(dst netstack.Addr, port uint16) (net.Conn, error) {
	return s.dial(context.Background(), dst, port)
}

// DialContext implements the http.Transport DialContext signature over
// the simulated network: network must be "tcp" and address an "ip:port"
// inside the simulation. Context cancellation is honoured for detached
// callers; a sim.Proc caller cannot observe a concurrent cancellation
// (nothing else runs while it does) and only checks ctx on entry.
func (s *Stack) DialContext(ctx context.Context, network, address string) (net.Conn, error) {
	switch network {
	case "tcp", "tcp4":
	default:
		return nil, fmt.Errorf("hostnet: unsupported network %q", network)
	}
	dst, port, err := resolve(address)
	if err != nil {
		return nil, err
	}
	return s.dial(ctx, dst, port)
}

func (s *Stack) dial(ctx context.Context, dst netstack.Addr, port uint16) (net.Conn, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var c *Conn
	s.run(func() {
		c = newConn(s, s.h.Dial(dst, port))
	})

	// Detached callers get live cancellation: a watcher injects the
	// abort. stopWatch keeps the watcher from outliving the dial.
	var stopWatch chan struct{}
	if s.s.CallerProc() == nil && ctx.Done() != nil {
		stopWatch = make(chan struct{})
		go func() {
			select {
			case <-ctx.Done():
				s.s.Inject(func() {
					if !c.connected && !c.dead {
						c.ctxErr = ctx.Err()
						c.hc.Abort()
						c.q.wake()
					}
				})
			case <-stopWatch:
			}
		}()
	}

	var dialErr error
	s.block(&c.q, func() bool {
		switch {
		case c.ctxErr != nil:
			dialErr = c.ctxErr
			return true
		case c.connected:
			return true
		case c.dead:
			if dialErr = c.termErr; dialErr == nil {
				dialErr = net.ErrClosed
			}
			return true
		}
		return false
	})
	if stopWatch != nil {
		close(stopWatch)
	}
	if dialErr != nil {
		return nil, &net.OpError{Op: "dial", Net: "tcp", Addr: tcpAddr(dst, port), Err: dialErr}
	}
	return c, nil
}

// Listen starts a blocking TCP listener on port.
func (s *Stack) Listen(port uint16) (net.Listener, error) {
	l := &Listener{stack: s, port: port}
	var err error
	s.run(func() {
		err = s.h.Listen(port, func(hc *host.Conn) {
			c := newConn(s, hc)
			c.connected = true
			l.backlog = append(l.backlog, c)
			l.q.wake()
		})
	})
	if err != nil {
		return nil, err
	}
	return l, nil
}

// Listener implements net.Listener over a host TCP port.
type Listener struct {
	stack   *Stack
	port    uint16
	q       waitQ
	backlog []*Conn
	closed  bool
}

// Accept blocks until a connection reaches ESTABLISHED or the listener
// is closed.
func (l *Listener) Accept() (net.Conn, error) {
	var c *Conn
	var err error
	l.stack.block(&l.q, func() bool {
		switch {
		case len(l.backlog) > 0:
			c = l.backlog[0]
			l.backlog = l.backlog[1:]
			return true
		case l.closed:
			err = net.ErrClosed
			return true
		}
		return false
	})
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Close stops the listener, wakes pending Accepts with net.ErrClosed and
// aborts connections nobody accepted.
func (l *Listener) Close() error {
	l.stack.run(func() {
		if l.closed {
			return
		}
		l.closed = true
		l.stack.h.Unlisten(l.port)
		for _, c := range l.backlog {
			c.hc.Abort()
		}
		l.backlog = nil
		l.q.wake()
	})
	return nil
}

// Addr returns the listening address.
func (l *Listener) Addr() net.Addr { return tcpAddr(l.stack.h.Addr(), l.port) }
