package hostnet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"gq/internal/host"
	"gq/internal/netsim"
	"gq/internal/netstack"
	"gq/internal/sim"
)

// pair builds two hosts on one switch and returns their stacks.
func pair(seed int64) (*sim.Simulator, *Stack, *Stack) {
	s := sim.New(seed)
	sw := netsim.NewSwitch(s, "sw")
	a := host.New(s, "a", netstack.MAC{2, 0, 0, 0, 0, 1})
	b := host.New(s, "b", netstack.MAC{2, 0, 0, 0, 0, 2})
	netsim.Connect(sw.AddAccessPort("a", 10), a.NIC(), time.Millisecond)
	netsim.Connect(sw.AddAccessPort("b", 10), b.NIC(), time.Millisecond)
	a.ConfigureStatic(netstack.MustParseAddr("10.0.0.1"), 24, 0)
	b.ConfigureStatic(netstack.MustParseAddr("10.0.0.2"), 24, 0)
	return s, New(a), New(b)
}

// echoProc listens on port, accepts one connection and echoes until EOF.
// It runs as a proc body: Listen executes in proc context before the
// first park, so no pump is needed for setup.
func echoProc(t *testing.T, s *Stack, port uint16) func(p *sim.Proc) {
	return func(p *sim.Proc) {
		ln, err := s.Listen(port)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		conn, err := ln.Accept()
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		buf := make([]byte, 4096)
		for {
			n, err := conn.Read(buf)
			if n > 0 {
				if _, werr := conn.Write(buf[:n]); werr != nil {
					t.Errorf("echo write: %v", werr)
					return
				}
			}
			if err == io.EOF {
				conn.Close()
				ln.Close()
				return
			}
			if err != nil {
				t.Errorf("echo read: %v", err)
				return
			}
		}
	}
}

// TestProcEcho drives a blocking echo session entirely with coupled
// procs under plain Run: the facade's deterministic path.
func TestProcEcho(t *testing.T) {
	s, sa, sb := pair(1)
	s.Go("server", echoProc(t, sb, 7))

	var got []byte
	var readErr error
	s.Go("client", func(p *sim.Proc) {
		conn, err := sa.Dial(netstack.MustParseAddr("10.0.0.2"), 7)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		for i := 0; i < 3; i++ {
			msg := fmt.Sprintf("ping-%d", i)
			if _, err := conn.Write([]byte(msg)); err != nil {
				t.Errorf("write: %v", err)
				return
			}
			buf := make([]byte, len(msg))
			if _, err := io.ReadFull(conn, buf); err != nil {
				t.Errorf("read: %v", err)
				return
			}
			got = append(got, buf...)
			p.Sleep(10 * time.Millisecond) // interleave with virtual time
		}
		conn.Close()
		// Read after local close must fail with net.ErrClosed.
		_, readErr = conn.Read(make([]byte, 1))
	})
	s.Run()
	if string(got) != "ping-0ping-1ping-2" {
		t.Fatalf("echo got %q", got)
	}
	if !errors.Is(readErr, net.ErrClosed) {
		t.Fatalf("read after close: %v, want net.ErrClosed", readErr)
	}
}

// TestProcEchoDeterministic runs the same proc workload twice and
// demands identical (virtual time, payload) traces: the rendezvous
// discipline must leave no room for scheduling noise.
func TestProcEchoDeterministic(t *testing.T) {
	run := func() []string {
		s, sa, sb := pair(7)
		s.Go("server", echoProc(t, sb, 7))
		var trace []string
		s.Go("client", func(p *sim.Proc) {
			conn, err := sa.Dial(netstack.MustParseAddr("10.0.0.2"), 7)
			if err != nil {
				return
			}
			for i := 0; i < 5; i++ {
				fmt.Fprintf(conn, "m%d", i)
				buf := make([]byte, 2)
				io.ReadFull(conn, buf)
				trace = append(trace, fmt.Sprintf("%v:%s", s.Now(), buf))
				p.Sleep(time.Duration(i) * 3 * time.Millisecond)
			}
			conn.Close()
		})
		s.Run()
		return trace
	}
	a, b := run(), run()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("facade proc traces diverged:\n%v\n%v", a, b)
	}
	if len(a) != 5 {
		t.Fatalf("trace incomplete: %v", a)
	}
}

// TestShardedFacadeDeterministic puts a proc-driven facade echo pair in
// every domain of a sharded simulation and checks traces are identical
// at 1 and 2 workers.
func TestShardedFacadeDeterministic(t *testing.T) {
	run := func(workers int) []string {
		root := sim.New(11)
		c := sim.NewCoordinator(root, 0, workers)
		traces := make([][]string, 3)
		for i := 0; i < 3; i++ {
			i := i
			d := c.NewDomain()
			sw := netsim.NewSwitch(d, "sw")
			a := host.New(d, fmt.Sprintf("a%d", i), netstack.MAC{2, 0, 0, byte(i), 0, 1})
			b := host.New(d, fmt.Sprintf("b%d", i), netstack.MAC{2, 0, 0, byte(i), 0, 2})
			netsim.Connect(sw.AddAccessPort("a", 10), a.NIC(), time.Millisecond)
			netsim.Connect(sw.AddAccessPort("b", 10), b.NIC(), time.Millisecond)
			a.ConfigureStatic(netstack.MustParseAddr("10.0.0.1"), 24, 0)
			b.ConfigureStatic(netstack.MustParseAddr("10.0.0.2"), 24, 0)
			sa, sb := New(a), New(b)
			d.Go("server", echoProc(t, sb, 7))
			d.Go("client", func(p *sim.Proc) {
				p.Sleep(time.Duration(i) * 5 * time.Millisecond)
				conn, err := sa.Dial(netstack.MustParseAddr("10.0.0.2"), 7)
				if err != nil {
					return
				}
				for k := 0; k < 4; k++ {
					fmt.Fprintf(conn, "x%d", k)
					buf := make([]byte, 2)
					io.ReadFull(conn, buf)
					traces[i] = append(traces[i], fmt.Sprintf("d%d:%v:%s", i, d.Now(), buf))
					p.Sleep(7 * time.Millisecond)
				}
				conn.Close()
			})
		}
		c.RunUntil(30 * time.Second)
		var all []string
		for _, tr := range traces {
			all = append(all, tr...)
		}
		return all
	}
	one, two := run(1), run(2)
	if fmt.Sprint(one) != fmt.Sprint(two) {
		t.Fatalf("sharded facade diverged between 1 and 2 workers:\n%v\n%v", one, two)
	}
	if len(one) != 12 {
		t.Fatalf("expected 12 echo round trips, got %d: %v", len(one), one)
	}
}

// TestReadDeadline pins deadline semantics: a Read past the virtual
// deadline fails with os.ErrDeadlineExceeded at exactly the armed
// instant, and clearing the deadline makes the conn usable again.
func TestReadDeadline(t *testing.T) {
	s, sa, sb := pair(2)
	s.Go("mute-server", func(p *sim.Proc) {
		// Accept and hold the conn open without ever writing.
		ln, err := sb.Listen(9)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		p.Sleep(10 * time.Minute)
	})
	var deadlineErr error
	var expiredAt time.Duration
	var isTimeout bool
	s.Go("client", func(p *sim.Proc) {
		conn, err := sa.Dial(netstack.MustParseAddr("10.0.0.2"), 9)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		start := s.Now()
		conn.SetReadDeadline(sim.Epoch.Add(start + 50*time.Millisecond))
		_, deadlineErr = conn.Read(make([]byte, 1))
		expiredAt = s.Now() - start
		var ne net.Error
		isTimeout = errors.As(deadlineErr, &ne) && ne.Timeout()
		conn.SetReadDeadline(time.Time{}) // clear: next read blocks again
		conn.SetReadDeadline(sim.Epoch.Add(s.Now() + 20*time.Millisecond))
		_, err = conn.Read(make([]byte, 1))
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("second deadline read: %v", err)
		}
		conn.Close()
	})
	s.Run()
	if !errors.Is(deadlineErr, os.ErrDeadlineExceeded) {
		t.Fatalf("read returned %v, want os.ErrDeadlineExceeded", deadlineErr)
	}
	if !isTimeout {
		t.Fatal("deadline error does not satisfy net.Error.Timeout()")
	}
	if expiredAt != 50*time.Millisecond {
		t.Fatalf("deadline fired after %v, want exactly 50ms of virtual time", expiredAt)
	}
}

// TestHalfCloseEOF pins EOF propagation: client sends a request and
// half-closes; the server reads to EOF, responds on its still-open half,
// and the client drains the response before its own EOF.
func TestHalfCloseEOF(t *testing.T) {
	s, sa, sb := pair(3)
	s.Go("server", func(p *sim.Proc) {
		ln, err := sb.Listen(80)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		req, err := io.ReadAll(conn) // drains until client FIN
		if err != nil {
			t.Errorf("server read: %v", err)
			return
		}
		conn.Write([]byte("resp:" + string(req)))
		conn.Close()
	})
	var resp []byte
	var respErr error
	s.Go("client", func(p *sim.Proc) {
		conn, err := sa.Dial(netstack.MustParseAddr("10.0.0.2"), 80)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		conn.Write([]byte("query"))
		conn.(*Conn).hc.Close() // half-close the raw send side; keep reading via the facade
		resp, respErr = io.ReadAll(conn)
		conn.Close()
	})
	s.Run()
	if respErr != nil {
		t.Fatalf("client read: %v", respErr)
	}
	if string(resp) != "resp:query" {
		t.Fatalf("response %q", resp)
	}
}

// TestFacadeSimultaneousClose: both ends close in the same virtual
// instant (FINs cross, CLOSING -> TIME_WAIT path) and both procs see
// clean shutdowns; no connection leaks after TIME_WAIT expires.
func TestFacadeSimultaneousClose(t *testing.T) {
	s, sa, sb := pair(4)
	var server net.Conn
	s.Go("server", func(p *sim.Proc) {
		ln, err := sb.Listen(80)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		server, _ = ln.Accept()
	})
	var client net.Conn
	s.Go("client", func(p *sim.Proc) {
		client, _ = sa.Dial(netstack.MustParseAddr("10.0.0.2"), 80)
	})
	s.RunFor(5 * time.Second)
	if client == nil || server == nil {
		t.Fatal("connection not established")
	}
	// Close both ends without running the sim in between: the FINs cross
	// in flight.
	s.Go("closerA", func(p *sim.Proc) { client.Close() })
	s.Go("closerB", func(p *sim.Proc) { server.Close() })
	s.RunFor(time.Minute)
	if !client.(*Conn).dead || !server.(*Conn).dead {
		t.Fatalf("a host still holds its conn after simultaneous close: client gone %v, server gone %v",
			client.(*Conn).dead, server.(*Conn).dead)
	}
	var readErr error
	s.Go("reader", func(p *sim.Proc) { _, readErr = client.Read(make([]byte, 1)) })
	if !errors.Is(readErr, net.ErrClosed) {
		t.Fatalf("client read after close: %v", readErr)
	}
}

// TestDialRefused: a SYN to a closed port draws RST and Dial fails with
// a reset error, not a hang.
func TestDialRefused(t *testing.T) {
	s, sa, _ := pair(5)
	var dialErr error
	s.Go("client", func(p *sim.Proc) {
		_, dialErr = sa.Dial(netstack.MustParseAddr("10.0.0.2"), 81)
	})
	s.Run()
	if !errors.Is(dialErr, host.ErrConnReset) {
		t.Fatalf("dial to closed port: %v, want connection reset", dialErr)
	}
	var oe *net.OpError
	if !errors.As(dialErr, &oe) || oe.Op != "dial" {
		t.Fatalf("dial error not a net.OpError: %#v", dialErr)
	}
}

// TestBlockingCallInsideEventPanics pins the discipline guard: facade
// calls from event callbacks would deadlock the loop and must panic.
func TestBlockingCallInsideEventPanics(t *testing.T) {
	s, sa, sb := pair(6)
	var conn net.Conn
	s.Go("server", func(p *sim.Proc) {
		ln, err := sb.Listen(80)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		c, _ := ln.Accept()
		defer c.Close()
		p.Sleep(time.Minute)
	})
	s.Go("client", func(p *sim.Proc) {
		conn, _ = sa.Dial(netstack.MustParseAddr("10.0.0.2"), 80)
	})
	s.RunFor(5 * time.Second)
	if conn == nil {
		t.Fatal("no conn")
	}
	var recovered any
	s.Schedule(0, func() {
		defer func() { recovered = recover() }()
		conn.Read(make([]byte, 1))
	})
	s.RunFor(time.Second)
	if recovered == nil {
		t.Fatal("blocking Read inside an event callback did not panic")
	}
}

// TestStdlibHTTPRoundTrip is the tentpole's acceptance core at package
// level: an unmodified net/http server on one host, an unmodified
// http.Client on another, aliens bridged by Inject and driven by Pump.
// Run under -race this also proves the detached path is properly
// synchronized.
func TestStdlibHTTPRoundTrip(t *testing.T) {
	s, sa, sb := pair(8)
	var done atomic.Bool
	var body []byte
	var status int
	var httpErr error
	go func() {
		defer done.Store(true)
		// Everything here is detached: each facade call is injected into
		// the pumping loop below.
		ln, err := sb.Listen(80)
		if err != nil {
			httpErr = err
			return
		}
		srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintf(w, "hello %s from %s", r.URL.Path, r.RemoteAddr)
		})}
		go srv.Serve(ln)
		defer srv.Close()

		client := &http.Client{Transport: &http.Transport{
			DialContext:       sa.DialContext,
			DisableKeepAlives: true,
		}}
		resp, err := client.Get("http://10.0.0.2:80/greeting")
		if err != nil {
			httpErr = err
			return
		}
		body, httpErr = io.ReadAll(resp.Body)
		resp.Body.Close()
		status = resp.StatusCode
	}()
	if ok := s.Pump(time.Hour, done.Load); !ok {
		t.Fatal("Pump deadline before HTTP round trip finished")
	}
	if httpErr != nil {
		t.Fatalf("http: %v", httpErr)
	}
	if status != 200 {
		t.Fatalf("status %d", status)
	}
	if string(body) != "hello /greeting from 10.0.0.1:32768" {
		t.Fatalf("body %q", body)
	}
}

// TestDialContextCancel: cancelling the context mid-handshake aborts a
// detached dial. The cancel is triggered at a fixed virtual instant from
// the Pump predicate, long before SYN retransmissions are exhausted.
func TestDialContextCancel(t *testing.T) {
	s := sim.New(9)
	sw := netsim.NewSwitch(s, "sw")
	a := host.New(s, "a", netstack.MAC{2, 0, 0, 0, 0, 1})
	netsim.Connect(sw.AddAccessPort("a", 10), a.NIC(), time.Millisecond)
	a.ConfigureStatic(netstack.MustParseAddr("10.0.0.1"), 24, 0)
	sa := New(a)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var done atomic.Bool
	var dialErr error
	go func() {
		defer done.Store(true)
		// 10.0.0.99 does not exist: ARP never resolves, the SYN just
		// retries. Only the cancel can end this dial early.
		_, dialErr = sa.DialContext(ctx, "tcp", "10.0.0.99:80")
	}()
	cancelled := false
	s.Pump(10*time.Minute, func() bool {
		if !cancelled && s.Now() >= 2*time.Second {
			cancelled = true
			cancel()
		}
		return done.Load()
	})
	if !done.Load() {
		t.Fatal("dial did not return")
	}
	if !errors.Is(dialErr, context.Canceled) {
		t.Fatalf("cancelled dial returned %v, want context.Canceled", dialErr)
	}
}
