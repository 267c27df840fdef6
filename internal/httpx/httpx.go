// Package httpx is the farm's one HTTP/1.1 codec over the simulated socket
// API. Malware C&C in the paper's era was predominantly HTTP ("in practice
// the majority of specimens we encounter still possesses readily
// distinguishable C&C protocols"), and the auto-infection server of §6.6
// answers over it. A parsed message holds what its readers read: a
// response its status and header section, a request nothing (its reader is
// told one is complete); a body is framed and skipped as it arrives. Only
// Content-Length framing is supported; both ends are ours.
package httpx

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

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

// The parser holds at most a header section of maxHeadBytes, terminator
// included, while it waits for one to complete: the peer chooses it, and a
// longer one is refused. A body is counted down as it arrives and never
// held; a Content-Length past maxBodyBytes is refused when its head
// arrives. maxBodyBytes admits any specimen the auto-infection server hands
// out.
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
	OnRequest  func()
	OnResponse func(*Response)
	// OnError fires when the stream is unparseable; the parser stops.
	OnError func(error)

	// buf holds the bytes of a header section not yet complete; scanned is
	// how much of it the search for the section's end has covered.
	buf     []byte
	scanned int
	// Once a header section is parsed, its message — a request, or the
	// response resp — waits until need more body bytes have gone by.
	waiting bool
	need    int
	resp    *Response
	broken  bool
}

// Feed takes stream bytes and emits any complete messages. data is read in
// place; only the bytes of a header section not yet complete are kept.
func (p *Parser) Feed(data []byte) {
	for !p.broken {
		if p.waiting {
			// The body is counted where it lies: first what came behind
			// its header section, then data.
			n := min(p.need, len(p.buf))
			p.buf, p.need = p.buf[n:], p.need-n
			n = min(p.need, len(data))
			data, p.need = data[n:], p.need-n
			if p.need > 0 {
				return
			}
			p.emit()
			continue
		}
		p.buf = append(p.buf, data...)
		data = nil
		if !p.nextHead() {
			return
		}
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

// nextHead parses the header section buf opens with, if it is complete.
// The end of the section is searched for from where the last search
// stopped, so each call looks only at bytes no earlier call has. A section
// is refused once it is known to be longer than maxHeadBytes, however the
// stream was cut.
func (p *Parser) nextHead() bool {
	i := bytes.Index(p.buf[p.scanned:], headTerm)
	if i < 0 {
		if len(p.buf) >= maxHeadBytes {
			return p.fail(fmt.Errorf("httpx: header section too large"))
		}
		p.scanned = max(0, len(p.buf)-len(headTerm)+1)
		return false
	}
	if p.scanned+i+len(headTerm) > maxHeadBytes {
		return p.fail(fmt.Errorf("httpx: header section too large"))
	}
	return p.parseHead(p.scanned + i)
}

// emit hands the waiting message to its callback.
func (p *Parser) emit() {
	resp := p.resp
	p.waiting, p.resp = false, nil
	if resp != nil {
		if p.OnResponse != nil {
			p.OnResponse(resp)
		}
	} else if p.OnRequest != nil {
		p.OnRequest()
	}
}

// parseHead parses the header section buf[:headEnd], drops it from buf and
// sets its message waiting for its body. Of the header lines it reads only
// Content-Length: each line must have a colon, and the last Content-Length
// line sets the body length.
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
	first, rest := field(start)
	second, rest := field(rest)
	if third, _ := field(rest); len(third) == 0 {
		return p.fail(fmt.Errorf("httpx: malformed start line %q", start))
	}
	if bytes.HasPrefix(first, []byte("HTTP/")) {
		status, err := strconv.Atoi(string(second))
		if err != nil {
			return p.fail(fmt.Errorf("httpx: bad status %q", second))
		}
		p.resp = &Response{Status: status, head: string(lines)}
	}
	p.buf, p.scanned, p.waiting = p.buf[headEnd+len(headTerm):], 0, true
	return true
}

// field cuts the first of the fields bytes.Fields would split b into.
func field(b []byte) (f, rest []byte) {
	b = bytes.TrimLeftFunc(b, unicode.IsSpace)
	if i := bytes.IndexFunc(b, unicode.IsSpace); i >= 0 {
		return b[:i], b[i:]
	}
	return b, nil
}
