package httpx

import (
	"gq/internal/host"
	"gq/internal/netstack"
)

// Result delivers the outcome of a client request: resp is nil on
// connection failure.
type Result func(resp *Response, err error)

// Do opens a connection from h to addr:port, sends req, and invokes done
// with the first response, then closes.
func Do(h *host.Host, addr netstack.Addr, port uint16, req *Request, done Result) {
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
	c.OnConnect = func() { c.Write(req.Marshal()) }
	c.OnData = func(data []byte) { p.Feed(data) }
	c.OnClose = func(err error) {
		if err == nil && !finished {
			err = errIncomplete
		}
		finish(nil, err)
	}
}

type incompleteError struct{}

func (incompleteError) Error() string { return "httpx: connection closed before response" }

var errIncomplete = incompleteError{}
