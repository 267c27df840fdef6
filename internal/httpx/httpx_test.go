package httpx

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"gq/internal/host"
	"gq/internal/netsim"
	"gq/internal/netstack"
	"gq/internal/sim"
)

func TestRequestMarshalParse(t *testing.T) {
	req := NewRequest("GET", "/bot.exe", "192.150.187.12", nil)
	var got *Request
	p := &Parser{OnRequest: func(r *Request) { got = r }}
	p.Feed(req.Marshal())
	if got == nil {
		t.Fatal("no request parsed")
	}
	if got.Method != "GET" || got.Path != "/bot.exe" || got.Headers["host"] != "192.150.187.12" {
		t.Fatalf("parsed %+v", got)
	}
}

func TestResponseMarshalParse(t *testing.T) {
	resp := NewResponse(404, []byte("gone"))
	var got *Response
	p := &Parser{OnResponse: func(r *Response) { got = r }}
	p.Feed(resp.Marshal())
	if got == nil || got.Status != 404 || got.Reason != "NOT FOUND" || string(got.Body) != "gone" {
		t.Fatalf("parsed %+v", got)
	}
}

func TestParserIncrementalFeeding(t *testing.T) {
	req := NewRequest("POST", "/c2", "cc.example.com", []byte("report=1"))
	raw := req.Marshal()
	var got *Request
	p := &Parser{OnRequest: func(r *Request) { got = r }}
	for _, b := range raw {
		p.Feed([]byte{b})
	}
	if got == nil || string(got.Body) != "report=1" {
		t.Fatalf("incremental parse %+v", got)
	}
}

func TestParserPipelined(t *testing.T) {
	var paths []string
	p := &Parser{OnRequest: func(r *Request) { paths = append(paths, r.Path) }}
	raw := append(NewRequest("GET", "/a", "h", nil).Marshal(), NewRequest("GET", "/b", "h", nil).Marshal()...)
	p.Feed(raw)
	if len(paths) != 2 || paths[0] != "/a" || paths[1] != "/b" {
		t.Fatalf("pipelined %v", paths)
	}
}

func TestParserMalformed(t *testing.T) {
	var gotErr error
	p := &Parser{OnError: func(err error) { gotErr = err }}
	p.Feed([]byte("NOT A HEADER LINE\r\nmissing colon\r\n\r\n"))
	if gotErr == nil {
		t.Fatal("malformed input accepted")
	}
	// Parser must stay broken.
	var got *Request
	p.OnRequest = func(r *Request) { got = r }
	p.Feed(NewRequest("GET", "/", "h", nil).Marshal())
	if got != nil {
		t.Fatal("broken parser resumed")
	}
}

func TestParserBadContentLength(t *testing.T) {
	var gotErr error
	p := &Parser{OnError: func(err error) { gotErr = err }}
	p.Feed([]byte("GET / HTTP/1.1\r\nContent-Length: banana\r\n\r\n"))
	if gotErr == nil {
		t.Fatal("bad content-length accepted")
	}
}

// A peer-declared Content-Length past maxBodyBytes is refused when the
// head arrives: the parser fails and buffers none of the body that follows.
func TestParserRefusesOversizedBody(t *testing.T) {
	var gotErr error
	p := &Parser{OnError: func(err error) { gotErr = err }}
	p.Feed([]byte("POST /upload HTTP/1.1\r\nContent-Length: 1000000000\r\n\r\n"))
	seg := bytes.Repeat([]byte("x"), 1400)
	for i := 0; i < 100; i++ {
		p.Feed(seg)
	}
	if gotErr == nil {
		t.Fatal("a 1 GB Content-Length was accepted")
	}
	if len(p.buf) != 0 {
		t.Fatalf("%d bytes buffered after the refusal", len(p.buf))
	}
}

// While a message is incomplete, a Feed looks only at the bytes it brings:
// into a buffer with room, neither the header search nor the wait for the
// body allocates, so neither copies or re-parses what is already held.
func TestParserFeedIsAllocFreeWhileWaiting(t *testing.T) {
	seg := bytes.Repeat([]byte("x"), 1400)
	p := &Parser{}
	p.Feed([]byte("POST /c2 HTTP/1.1\r\nX-Pad: "))
	p.buf = slices.Grow(p.buf, 200*len(seg))
	if n := testing.AllocsPerRun(40, func() { p.Feed(seg) }); n != 0 {
		t.Errorf("%v allocations per header segment", n)
	}

	p = &Parser{}
	p.Feed([]byte("POST /c2 HTTP/1.1\r\nContent-Length: 1000000\r\n\r\n"))
	p.buf = slices.Grow(p.buf, 200*len(seg))
	if n := testing.AllocsPerRun(100, func() { p.Feed(seg) }); n != 0 {
		t.Errorf("%v allocations per body segment", n)
	}
}

// FuzzParserFeed feeds one stream to a parser whole and to another in the
// segment sizes cuts names. Neither may panic, both must emit the same
// messages and error, and the split parser never holds more than one
// message's cap plus the segment it was just fed.
func FuzzParserFeed(f *testing.F) {
	for _, stream := range [][]byte{
		NewRequest("GET", "/bot.exe", "192.150.187.12", nil).Marshal(),
		NewResponse(404, []byte("gone")).Marshal(),
		NewRequest("POST", "/c2", "cc.example.com", []byte("report=1")).Marshal(),
		append(NewRequest("GET", "/a", "h", nil).Marshal(), NewRequest("GET", "/b", "h", nil).Marshal()...),
		[]byte("NOT A HEADER LINE\r\nmissing colon\r\n\r\n"),
		[]byte("GET / HTTP/1.1\r\nContent-Length: banana\r\n\r\n"),
		[]byte("POST / HTTP/1.1\r\nContent-Length: 1000000000\r\n\r\nxx"),
	} {
		f.Add(stream, []byte{0})
		f.Add(stream, []byte{2, 16, 255})
	}
	f.Fuzz(func(t *testing.T, stream, cuts []byte) {
		record := func(p *Parser) *[]string {
			var got []string
			p.OnRequest = func(r *Request) { got = append(got, fmt.Sprintf("request %+v", *r)) }
			p.OnResponse = func(r *Response) { got = append(got, fmt.Sprintf("response %+v", *r)) }
			p.OnError = func(err error) { got = append(got, "error "+err.Error()) }
			return &got
		}
		whole, split := &Parser{}, &Parser{}
		want, got := record(whole), record(split)
		whole.Feed(stream)
		for i, rest := 0, stream; len(rest) > 0; i++ {
			n := 1
			if len(cuts) > 0 {
				n += int(cuts[i%len(cuts)])
			}
			seg := rest[:min(n, len(rest))]
			rest = rest[len(seg):]
			split.Feed(seg)
			if len(split.buf) > maxHeadBytes+maxBodyBytes+len(seg) {
				t.Fatalf("%d bytes buffered", len(split.buf))
			}
		}
		if !slices.Equal(*got, *want) {
			t.Fatalf("split feed emitted\n%q\nwhole feed\n%q", *got, *want)
		}
	})
}

func TestPropertyParserNoPanic(t *testing.T) {
	f := func(chunks [][]byte) bool {
		p := &Parser{}
		for _, c := range chunks {
			p.Feed(c)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyRoundTripBody(t *testing.T) {
	f := func(body []byte) bool {
		var got *Response
		p := &Parser{OnResponse: func(r *Response) { got = r }}
		p.Feed(NewResponse(200, body).Marshal())
		return got != nil && bytes.Equal(got.Body, body)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func webPair(t *testing.T) (*sim.Simulator, *host.Host, *host.Host) {
	t.Helper()
	s := sim.New(1)
	sw := netsim.NewSwitch(s, "sw")
	a := host.New(s, "client", netstack.MAC{2, 0, 0, 0, 0, 1})
	b := host.New(s, "server", netstack.MAC{2, 0, 0, 0, 0, 2})
	netsim.Connect(sw.AddAccessPort("a", 10), a.NIC(), 0)
	netsim.Connect(sw.AddAccessPort("b", 10), b.NIC(), 0)
	a.ConfigureStatic(netstack.MustParseAddr("10.0.0.1"), 24, 0)
	b.ConfigureStatic(netstack.MustParseAddr("10.0.0.2"), 24, 0)
	return s, a, b
}

// serve answers each request on h:port with handler's response, any number
// of requests per connection (keep-alive); a nil response aborts.
func serve(t *testing.T, h *host.Host, port uint16, handler func(req *Request) *Response) {
	t.Helper()
	err := h.Listen(port, func(c *host.Conn) {
		p := &Parser{}
		p.OnRequest = func(req *Request) {
			if resp := handler(req); resp != nil {
				c.Write(resp.Marshal())
			} else {
				c.Abort()
			}
		}
		p.OnError = func(error) { c.Abort() }
		c.OnData = func(data []byte) { p.Feed(data) }
		c.OnPeerClose = func() { c.Close() }
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestServeAndDo(t *testing.T) {
	s, client, server := webPair(t)
	serve(t, server, 80, func(req *Request) *Response {
		if req.Path == "/bot.exe" {
			return NewResponse(200, []byte("MZbinary"))
		}
		return NewResponse(404, nil)
	})
	var got *Response
	Do(client, server.Addr(), 80, NewRequest("GET", "/bot.exe", "server", nil),
		func(resp *Response, err error) { got = resp })
	s.RunFor(time.Minute)
	if got == nil || got.Status != 200 || string(got.Body) != "MZbinary" {
		t.Fatalf("got %+v", got)
	}
}

func TestDoConnectionRefused(t *testing.T) {
	s, client, server := webPair(t)
	var gotErr error
	called := 0
	Do(client, server.Addr(), 81, NewRequest("GET", "/", "server", nil),
		func(resp *Response, err error) { called++; gotErr = err })
	s.RunFor(time.Minute)
	if called != 1 || gotErr == nil {
		t.Fatalf("called=%d err=%v", called, gotErr)
	}
}

func TestServeKeepAlive(t *testing.T) {
	s, client, server := webPair(t)
	hits := 0
	serve(t, server, 80, func(req *Request) *Response {
		hits++
		return NewResponse(200, []byte(req.Path))
	})
	// Raw connection sending two pipelined requests.
	c := client.Dial(server.Addr(), 80)
	var bodies []string
	p := &Parser{OnResponse: func(r *Response) { bodies = append(bodies, string(r.Body)) }}
	c.OnConnect = func() {
		c.Write(NewRequest("GET", "/one", "h", nil).Marshal())
		c.Write(NewRequest("GET", "/two", "h", nil).Marshal())
	}
	c.OnData = func(d []byte) { p.Feed(d) }
	s.RunFor(time.Minute)
	if hits != 2 || len(bodies) != 2 || bodies[0] != "/one" || bodies[1] != "/two" {
		t.Fatalf("hits=%d bodies=%v", hits, bodies)
	}
}
