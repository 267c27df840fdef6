package httpx

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"testing"
	"testing/quick"
	"time"

	"gq/internal/host"
	"gq/internal/netsim"
	"gq/internal/netstack"
	"gq/internal/sim"
)

// record has p's callbacks log what it emits, in order, to the returned
// list: "request", "response <status> <header section>" or "error <text>".
func record(p *Parser) *[]string {
	var got []string
	p.OnRequest = func() { got = append(got, "request") }
	p.OnResponse = func(r *Response) { got = append(got, fmt.Sprintf("response %d %q", r.Status, r.head)) }
	p.OnError = func(err error) { got = append(got, "error "+err.Error()) }
	return &got
}

func TestRequestMarshalParse(t *testing.T) {
	p := &Parser{}
	got := record(p)
	p.Feed(get("/bot.exe", "192.150.187.12"))
	if !slices.Equal(*got, []string{"request"}) {
		t.Fatalf("parsed %q", *got)
	}
}

func TestResponseMarshalParse(t *testing.T) {
	var got []*Response
	p := &Parser{OnResponse: func(r *Response) { got = append(got, r) }}
	// The body is framed exactly: the response behind it parses.
	p.Feed(AppendResponse(AppendResponse(nil, 404, []byte("gone"), "X-Sample-Family", "Rustock"), 204, nil))
	if len(got) != 2 || got[0].Status != 404 || got[1].Status != 204 {
		t.Fatalf("parsed %+v", got)
	}
	if f := got[0].Header("x-sample-family"); f != "Rustock" {
		t.Fatalf("X-Sample-Family %q", f)
	}
	if n := got[0].Header("Content-Length"); n != "4" {
		t.Fatalf("Content-Length %q", n)
	}
	if v := got[0].Header("x-sample-name"); v != "" {
		t.Fatalf("absent header read %q", v)
	}
}

// get is the request Get writes for path on a server called host.
func get(path, host string) []byte {
	return []byte("GET " + path + " HTTP/1.1\r\nHost: " + host + "\r\n\r\n")
}

// post is a request for path carrying body.
func post(path, body string) []byte {
	return []byte(fmt.Sprintf("POST %s HTTP/1.1\r\nContent-Length: %d\r\nHost: cc.example.com\r\n\r\n%s", path, len(body), body))
}

// The farm's two response shapes, byte for byte: the auto-infection
// server's sample reply (Content-Length first, then the given headers in
// order) and the sinks' empty 200.
func TestAppendResponseWire(t *testing.T) {
	got := AppendResponse(nil, 200, []byte("MZ"),
		"Content-Type", "application/octet-stream",
		"X-Sample-Family", "Rustock",
		"X-Sample-Name", "rustock.100921.001.exe")
	want := "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Type: application/octet-stream\r\n" +
		"X-Sample-Family: Rustock\r\nX-Sample-Name: rustock.100921.001.exe\r\n\r\nMZ"
	if string(got) != want {
		t.Errorf("autoinfect reply\n%q\nwant\n%q", got, want)
	}
	if got := AppendResponse(nil, 200, nil); string(got) != "HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n" {
		t.Errorf("empty 200 %q", got)
	}
	if got := AppendResponse([]byte("x"), 200, nil); string(got[:1]) != "x" {
		t.Errorf("dst not kept: %q", got)
	}
}

// A parsed request holds nothing: a 3-line GET fed whole costs the parser
// and its buffer.
func TestParserAllocsPerRequest(t *testing.T) {
	raw := get("/bot.exe", "192.150.187.12")
	requests := 0
	n := testing.AllocsPerRun(100, func() {
		p := &Parser{OnRequest: func() { requests++ }}
		p.Feed(raw)
	})
	if requests != 101 {
		t.Fatalf("%d requests parsed in 101 runs", requests)
	}
	if n > 2 {
		t.Errorf("%v allocations per request, want at most 2", n)
	}
}

// A body is framed by its Content-Length whatever the segments: the
// response behind a POST fed byte by byte parses as one.
func TestParserIncrementalFeeding(t *testing.T) {
	raw := append(post("/c2", "report=1"), AppendResponse(nil, 204, nil, "X-Next", "1")...)
	p := &Parser{}
	got := record(p)
	for _, b := range raw {
		p.Feed([]byte{b})
	}
	if want := []string{"request", `response 204 "Content-Length: 0\r\nX-Next: 1"`}; !slices.Equal(*got, want) {
		t.Fatalf("incremental parse %q, want %q", *got, want)
	}
}

func TestParserPipelined(t *testing.T) {
	p := &Parser{}
	got := record(p)
	p.Feed(append(append(get("/a", "h"), post("/b", "x")...), AppendResponse(nil, 200, nil)...))
	if want := []string{"request", "request", `response 200 "Content-Length: 0"`}; !slices.Equal(*got, want) {
		t.Fatalf("pipelined %q, want %q", *got, want)
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
	got := false
	p.OnRequest = func() { got = true }
	p.Feed(get("/", "h"))
	if got {
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

// A body is counted as it arrives, not held: an 8 MiB body fed in 1 KiB
// segments never leaves more than a header section's bound buffered, and
// the request behind it on the same stream parses.
func TestParserSkipsBodyAsItArrives(t *testing.T) {
	p := &Parser{}
	got := record(p)
	p.Feed([]byte(fmt.Sprintf("POST /upload HTTP/1.1\r\nContent-Length: %d\r\n\r\n", maxBodyBytes)))
	seg := bytes.Repeat([]byte("x"), 1024)
	for fed := 0; fed < maxBodyBytes; fed += len(seg) {
		p.Feed(seg)
		if len(p.buf) > maxHeadBytes {
			t.Fatalf("%d body bytes in: %d bytes buffered, bound %d", fed+len(seg), len(p.buf), maxHeadBytes)
		}
	}
	p.Feed(get("/next", "h"))
	if want := []string{"request", "request"}; !slices.Equal(*got, want) {
		t.Fatalf("emitted %q, want %q", *got, want)
	}
}

// A header section is refused by its length, not by where the stream was
// cut: one of exactly maxHeadBytes parses fed whole or in 1 KiB segments,
// one a byte longer is refused both ways.
func TestParserHeadBoundIgnoresSegmentation(t *testing.T) {
	head := func(n int) []byte {
		start := "GET / HTTP/1.1\r\nX-Pad: "
		return append(append([]byte(start), bytes.Repeat([]byte("p"), n-len(start)-len(headTerm))...), headTerm...)
	}
	for _, tc := range []struct {
		n    int
		want string
	}{
		{maxHeadBytes, "request"},
		{maxHeadBytes + 1, "error httpx: header section too large"},
	} {
		raw := head(tc.n)
		for _, segSize := range []int{len(raw), 1024} {
			p := &Parser{}
			got := record(p)
			for rest := raw; len(rest) > 0; rest = rest[min(segSize, len(rest)):] {
				p.Feed(rest[:min(segSize, len(rest))])
			}
			if !slices.Equal(*got, []string{tc.want}) {
				t.Errorf("%d-byte head in %d-byte segments: %q, want %q", tc.n, segSize, *got, tc.want)
			}
		}
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
		get("/bot.exe", "192.150.187.12"),
		AppendResponse(nil, 404, []byte("gone"), "X-Sample-Name", "a.exe"),
		post("/c2", "report=1"),
		append(get("/a", "h"), get("/b", "h")...),
		[]byte("NOT A HEADER LINE\r\nmissing colon\r\n\r\n"),
		[]byte("GET / HTTP/1.1\r\nContent-Length: banana\r\n\r\n"),
		[]byte("POST / HTTP/1.1\r\nContent-Length: 1000000000\r\n\r\nxx"),
	} {
		f.Add(stream, []byte{0})
		f.Add(stream, []byte{2, 16, 255})
	}
	f.Fuzz(func(t *testing.T, stream, cuts []byte) {
		whole, split := &Parser{}, &Parser{}
		want, got := record(whole), record(split)
		whole.Feed(stream)
		if len(whole.buf) > maxHeadBytes {
			t.Fatalf("%d bytes buffered after the whole stream", len(whole.buf))
		}
		for i, rest := 0, stream; len(rest) > 0; i++ {
			n := 1
			if len(cuts) > 0 {
				n += int(cuts[i%len(cuts)])
			}
			seg := rest[:min(n, len(rest))]
			rest = rest[len(seg):]
			split.Feed(seg)
			if len(split.buf) > maxHeadBytes {
				t.Fatalf("%d bytes buffered after a %d-byte segment", len(split.buf), len(seg))
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

// Whatever its bytes, a body is framed exactly: the response behind it
// parses.
func TestPropertyRoundTripBody(t *testing.T) {
	f := func(body []byte) bool {
		var got []int
		p := &Parser{OnResponse: func(r *Response) { got = append(got, r.Status) }}
		p.Feed(AppendResponse(AppendResponse(nil, 200, body), 204, nil))
		return slices.Equal(got, []int{200, 204})
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
func serve(t *testing.T, h *host.Host, port uint16, handler func() []byte) {
	t.Helper()
	err := h.Listen(port, func(c *host.Conn) {
		p := &Parser{}
		p.OnRequest = func() {
			if resp := handler(); resp != nil {
				c.Write(resp)
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
	serve(t, server, 80, func() []byte {
		return AppendResponse(nil, 200, []byte("MZbinary"), "X-Sample-Name", "bot.exe")
	})
	var got *Response
	Get(client, server.Addr(), 80, "/bot.exe", func(resp *Response, err error) { got = resp })
	s.RunFor(time.Minute)
	if got == nil || got.Status != 200 || got.Header("X-Sample-Name") != "bot.exe" {
		t.Fatalf("got %+v", got)
	}
}

// Get writes the GET the auto-infection fetch has always sent: the path and
// the server's address as its Host, nothing else.
func TestGetWire(t *testing.T) {
	s, client, server := webPair(t)
	var saw []byte
	if err := server.Listen(80, func(c *host.Conn) {
		c.OnData = func(d []byte) { saw = append(saw, d...) }
	}); err != nil {
		t.Fatal(err)
	}
	Get(client, server.Addr(), 80, "/sample", func(*Response, error) {})
	s.RunFor(time.Second)
	if want := "GET /sample HTTP/1.1\r\nHost: 10.0.0.2\r\n\r\n"; string(saw) != want {
		t.Fatalf("Get wrote %q, want %q", saw, want)
	}
}

func TestDoConnectionRefused(t *testing.T) {
	s, client, server := webPair(t)
	var gotErr error
	called := 0
	Get(client, server.Addr(), 81, "/", func(resp *Response, err error) { called++; gotErr = err })
	s.RunFor(time.Minute)
	if called != 1 || gotErr == nil {
		t.Fatalf("called=%d err=%v", called, gotErr)
	}
}

func TestServeKeepAlive(t *testing.T) {
	s, client, server := webPair(t)
	hits := 0
	serve(t, server, 80, func() []byte {
		hits++
		return AppendResponse(nil, 200, []byte("ok"), "X-Hit", strconv.Itoa(hits))
	})
	// Raw connection sending two pipelined requests.
	c := client.Dial(server.Addr(), 80)
	var paths []string
	p := &Parser{OnResponse: func(r *Response) { paths = append(paths, r.Header("X-Hit")) }}
	c.OnConnect = func() {
		c.Write(get("/one", "h"))
		c.Write(get("/two", "h"))
	}
	c.OnData = func(d []byte) { p.Feed(d) }
	s.RunFor(time.Minute)
	if hits != 2 || !slices.Equal(paths, []string{"1", "2"}) {
		t.Fatalf("hits=%d, responses %v", hits, paths)
	}
}
