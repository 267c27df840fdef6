package sink

import (
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"gq/internal/hostnet"
)

// TestHTTPServerSinkBoundsURLs drives more requests than the sink keeps URLs
// for through an unmodified http.Client over the blocking facade, on one
// keep-alive connection: Hits counts every request, URLs keeps the first
// maxKeptURLs targets.
func TestHTTPServerSinkBoundsURLs(t *testing.T) {
	s, bot, sinkHost, _ := net3(t, 12)
	hs, err := NewHTTPServerSink(sinkHost, 80)
	if err != nil {
		t.Fatal(err)
	}
	stack := hostnet.New(bot)
	const requests = maxKeptURLs + 10
	var done atomic.Bool
	var reqErr error
	go func() {
		defer done.Store(true)
		client := &http.Client{Transport: &http.Transport{DialContext: stack.DialContext}, Timeout: 30 * time.Second}
		for i := 0; i < requests && reqErr == nil; i++ {
			var resp *http.Response
			if resp, reqErr = client.Get("http://10.0.0.2/click?ad=" + strconv.Itoa(i)); reqErr == nil {
				_, reqErr = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
		client.CloseIdleConnections()
		hs.Close()
	}()
	if !s.Pump(time.Hour, done.Load) {
		t.Fatal("virtual hour elapsed before the requests finished")
	}
	if reqErr != nil {
		t.Fatal(reqErr)
	}
	urls := hs.URLs()
	if hs.Hits() != requests || len(urls) != maxKeptURLs ||
		urls[0] != "/click?ad=0" || urls[maxKeptURLs-1] != "/click?ad="+strconv.Itoa(maxKeptURLs-1) {
		t.Fatalf("hits %d, %d URLs kept (first %q)", hs.Hits(), len(urls), urls[:min(len(urls), 1)])
	}
}
