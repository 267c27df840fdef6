// Package httpx is the farm's one HTTP/1.1 codec over the simulated socket
// API. Malware C&C in the paper's era was predominantly HTTP ("in practice
// the majority of specimens we encounter still possesses readily
// distinguishable C&C protocols"), and the auto-infection server of §6.6
// answers over it. A parsed message holds what its readers read: a request
// its path, a response its status and header section; a body is framed and
// skipped. Only Content-Length framing is supported; both ends are ours.
package httpx

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// Request is an HTTP request.
type Request struct {
	Path string
}

// Response is an HTTP response.
type Response struct {
	Status int
	// head is the header section after the status line.
	head string
}

// Header returns the value of the response's last header field called
// name, compared case-insensitively, or "" if it has none.
func (r *Response) Header(name string) string {
	var v string
	for rest, more := r.head, r.head != ""; more; {
		var line string
		line, rest, more = strings.Cut(rest, "\r\n")
		if k, val, _ := strings.Cut(line, ":"); strings.EqualFold(strings.TrimSpace(k), name) {
			v = strings.TrimSpace(val)
		}
	}
	return v
}

// AppendResponse appends an HTTP/1.1 response to dst: the status line,
// Content-Length, each name, value pair of hdr in order, and body.
func AppendResponse(dst []byte, status int, body []byte, hdr ...string) []byte {
	dst = fmt.Appendf(dst, "HTTP/1.1 %d %s\r\nContent-Length: %d\r\n", status, reasonPhrase(status), len(body))
	for i := 0; i+1 < len(hdr); i += 2 {
		dst = fmt.Appendf(dst, "%s: %s\r\n", hdr[i], hdr[i+1])
	}
	return append(append(dst, "\r\n"...), body...)
}

func reasonPhrase(status int) string {
	if status == 200 {
		return "OK"
	}
	return "Unknown"
}

// The parser holds at most a header section of maxHeadBytes, or a body of
// maxBodyBytes, while it waits for a message to complete: the peer chooses
// both, and a stream past either is refused. maxBodyBytes admits any
// specimen the auto-infection server hands out.
const (
	maxHeadBytes = 64 << 10
	maxBodyBytes = 8 << 20
)

var (
	headTerm = []byte("\r\n\r\n")
	crlf     = headTerm[:2]
)

// Parser incrementally consumes a byte stream and emits complete messages.
// Set OnRequest or OnResponse depending on direction.
type Parser struct {
	OnRequest  func(*Request)
	OnResponse func(*Response)
	// OnError fires when the stream is unparseable; the parser stops.
	OnError func(error)

	buf []byte
	// scanned is how much of buf the search for the end of a header section
	// has covered. Once the section is parsed and dropped from buf, its
	// message waits in req or resp for the first need bytes of buf.
	scanned, need int
	req           *Request
	resp          *Response
	broken        bool
}

// Feed appends stream bytes and emits any complete messages.
func (p *Parser) Feed(data []byte) {
	if p.broken {
		return
	}
	p.buf = append(p.buf, data...)
	for p.tryParse() {
	}
}

func (p *Parser) fail(err error) bool {
	p.broken = true
	p.buf = nil
	if p.OnError != nil {
		p.OnError(err)
	}
	return false
}

// tryParse emits the buffered message if it is complete. Each call looks
// only at bytes no earlier call has: the end of the header section is
// searched for from where the last search stopped, and a parsed head waits
// for its body without being read again.
func (p *Parser) tryParse() bool {
	if p.req == nil && p.resp == nil {
		i := bytes.Index(p.buf[p.scanned:], headTerm)
		if i < 0 {
			if len(p.buf) > maxHeadBytes {
				return p.fail(fmt.Errorf("httpx: header section too large"))
			}
			p.scanned = max(0, len(p.buf)-len(headTerm)+1)
			return false
		}
		if !p.parseHead(p.scanned + i) {
			return false
		}
	}
	if len(p.buf) < p.need {
		return false
	}
	p.buf, p.scanned = p.buf[p.need:], 0
	if req, resp := p.req, p.resp; resp != nil {
		p.resp = nil
		if p.OnResponse != nil {
			p.OnResponse(resp)
		}
	} else {
		p.req = nil
		if p.OnRequest != nil {
			p.OnRequest(req)
		}
	}
	return true
}

// parseHead parses the header section buf[:headEnd] into p.req or p.resp,
// drops it from buf and sets the body length. Of the header lines it reads
// only Content-Length: each line must have a colon, and the last
// Content-Length line sets the body length. A request's path is a piece of
// one copy of the start line, so a kept path holds no more of the head than
// that line.
func (p *Parser) parseHead(headEnd int) bool {
	start, lines, _ := bytes.Cut(p.buf[:headEnd], crlf)
	var cl []byte
	hasCL := false
	for rest, more := lines, len(lines) > 0; more; {
		var line []byte
		line, rest, more = bytes.Cut(rest, crlf)
		name, value, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			return p.fail(fmt.Errorf("httpx: malformed header line %q", line))
		}
		if bytes.EqualFold(bytes.TrimSpace(name), []byte("Content-Length")) {
			cl, hasCL = bytes.TrimSpace(value), true
		}
	}
	p.need = 0
	if hasCL {
		n, err := strconv.Atoi(string(cl))
		if err != nil || n < 0 {
			return p.fail(fmt.Errorf("httpx: bad Content-Length %q", cl))
		}
		if n > maxBodyBytes {
			return p.fail(fmt.Errorf("httpx: Content-Length %d over the %d-byte limit", n, maxBodyBytes))
		}
		p.need = n
	}
	first, rest := field(string(start))
	second, rest := field(rest)
	if third, _ := field(rest); third == "" {
		return p.fail(fmt.Errorf("httpx: malformed start line %q", start))
	}
	if strings.HasPrefix(first, "HTTP/") {
		status, err := strconv.Atoi(second)
		if err != nil {
			return p.fail(fmt.Errorf("httpx: bad status %q", second))
		}
		p.resp = &Response{Status: status, head: string(lines)}
	} else {
		p.req = &Request{Path: second}
	}
	p.buf = p.buf[headEnd+len(headTerm):]
	return true
}

// field cuts the first of the fields strings.Fields would split s into.
func field(s string) (f, rest string) {
	s = strings.TrimLeftFunc(s, unicode.IsSpace)
	if i := strings.IndexFunc(s, unicode.IsSpace); i >= 0 {
		return s[:i], s[i:]
	}
	return s, ""
}
