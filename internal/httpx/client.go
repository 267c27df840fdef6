package httpx

import (
	"errors"

	"gq/internal/host"
	"gq/internal/netstack"
)

var errIncomplete = errors.New("httpx: connection closed before response")

// Get opens a connection from h to addr:port, sends a GET for path with
// addr as its Host, and invokes done with the first response, then closes.
// resp is nil when the connection fails or closes first.
func Get(h *host.Host, addr netstack.Addr, port uint16, path string, done func(resp *Response, err error)) {
	c := h.Dial(addr, port)
	p := &Parser{}
	finished := false
	finish := func(resp *Response, err error) {
		if finished {
			return
		}
		finished = true
		done(resp, err)
	}
	p.OnResponse = func(resp *Response) {
		finish(resp, nil)
		c.Close()
	}
	c.OnConnect = func() { c.Write([]byte("GET " + path + " HTTP/1.1\r\nHost: " + addr.String() + "\r\n\r\n")) }
	c.OnData = p.Feed
	c.OnClose = func(err error) {
		if err == nil && !finished {
			err = errIncomplete
		}
		finish(nil, err)
	}
}
