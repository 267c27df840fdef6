// Package httpx is a minimal HTTP/1.1 engine over the simulated socket API.
// Malware C&C in the paper's era was predominantly HTTP ("in practice the
// majority of specimens we encounter still possesses readily distinguishable
// C&C protocols"), and GQ's containment policies match on method, path, and
// body — so requests and responses here are fully materialised messages.
// Only Content-Length framing is supported; both ends are ours.
package httpx

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
)

// Request is an HTTP request.
type Request struct {
	Method  string
	Path    string
	Proto   string
	Headers map[string]string // canonicalised: lower-case keys
	Body    []byte
}

// Response is an HTTP response.
type Response struct {
	Status  int
	Reason  string
	Headers map[string]string
	Body    []byte
}

// NewRequest constructs a request with a Host header; Content-Length is set
// when a body is present.
func NewRequest(method, path, hostHdr string, body []byte) *Request {
	r := &Request{
		Method: method, Path: path, Proto: "HTTP/1.1",
		Headers: map[string]string{"host": hostHdr},
		Body:    body,
	}
	if len(body) > 0 {
		r.Headers["content-length"] = strconv.Itoa(len(body))
	}
	return r
}

// NewResponse constructs a response with standard reason phrases.
func NewResponse(status int, body []byte) *Response {
	r := &Response{Status: status, Reason: reasonPhrase(status), Headers: map[string]string{}, Body: body}
	r.Headers["content-length"] = strconv.Itoa(len(body))
	return r
}

func reasonPhrase(status int) string {
	switch status {
	case 200:
		return "OK"
	case 204:
		return "No Content"
	case 302:
		return "Found"
	case 400:
		return "Bad Request"
	case 403:
		return "Forbidden"
	case 404:
		return "NOT FOUND"
	case 500:
		return "Internal Server Error"
	default:
		return "Unknown"
	}
}

// Marshal encodes the request.
func (r *Request) Marshal() []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s %s\r\n", r.Method, r.Path, r.Proto)
	writeHeaders(&b, r.Headers)
	b.WriteString("\r\n")
	return append([]byte(b.String()), r.Body...)
}

// Marshal encodes the response.
func (r *Response) Marshal() []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "HTTP/1.1 %d %s\r\n", r.Status, r.Reason)
	writeHeaders(&b, r.Headers)
	b.WriteString("\r\n")
	return append([]byte(b.String()), r.Body...)
}

func writeHeaders(b *strings.Builder, h map[string]string) {
	// Deterministic order: sorted keys. Few headers, so insertion sort via
	// simple scan is fine.
	keys := make([]string, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	for _, k := range keys {
		fmt.Fprintf(b, "%s: %s\r\n", canonical(k), h[k])
	}
}

func canonical(k string) string {
	parts := strings.Split(k, "-")
	for i, p := range parts {
		if p == "" {
			continue
		}
		parts[i] = strings.ToUpper(p[:1]) + p[1:]
	}
	return strings.Join(parts, "-")
}

// The parser holds at most a header section of maxHeadBytes, or a body of
// maxBodyBytes, while it waits for a message to complete: the peer chooses
// both, and a stream past either is refused. maxBodyBytes admits any
// specimen the auto-infection server hands out.
const (
	maxHeadBytes = 64 << 10
	maxBodyBytes = 8 << 20
)

var headTerm = []byte("\r\n\r\n")

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
	body := append([]byte(nil), p.buf[:p.need]...)
	p.buf, p.scanned = p.buf[p.need:], 0
	if req, resp := p.req, p.resp; resp != nil {
		p.resp, resp.Body = nil, body
		if p.OnResponse != nil {
			p.OnResponse(resp)
		}
	} else {
		p.req, req.Body = nil, body
		if p.OnRequest != nil {
			p.OnRequest(req)
		}
	}
	return true
}

// parseHead parses the header section buf[:headEnd] into p.req or p.resp,
// drops it from buf and sets the body length.
func (p *Parser) parseHead(headEnd int) bool {
	lines := strings.Split(string(p.buf[:headEnd]), "\r\n")
	headers := make(map[string]string)
	for _, line := range lines[1:] {
		colon := strings.IndexByte(line, ':')
		if colon < 0 {
			return p.fail(fmt.Errorf("httpx: malformed header line %q", line))
		}
		headers[strings.ToLower(strings.TrimSpace(line[:colon]))] = strings.TrimSpace(line[colon+1:])
	}
	p.need = 0
	if cl, ok := headers["content-length"]; ok {
		n, err := strconv.Atoi(cl)
		if err != nil || n < 0 {
			return p.fail(fmt.Errorf("httpx: bad Content-Length %q", cl))
		}
		if n > maxBodyBytes {
			return p.fail(fmt.Errorf("httpx: Content-Length %d over the %d-byte limit", n, maxBodyBytes))
		}
		p.need = n
	}
	first := strings.Fields(lines[0])
	if len(first) < 3 {
		return p.fail(fmt.Errorf("httpx: malformed start line %q", lines[0]))
	}
	if strings.HasPrefix(first[0], "HTTP/") {
		status, err := strconv.Atoi(first[1])
		if err != nil {
			return p.fail(fmt.Errorf("httpx: bad status %q", first[1]))
		}
		p.resp = &Response{Status: status, Reason: strings.Join(first[2:], " "), Headers: headers}
	} else {
		p.req = &Request{Method: first[0], Path: first[1], Proto: first[2], Headers: headers}
	}
	p.buf = p.buf[headEnd+len(headTerm):]
	return true
}
