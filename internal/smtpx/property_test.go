package smtpx

import (
	"strings"
	"testing"
	"testing/quick"
)

// Property: the engine never panics and never emits a non-SMTP line, no
// matter what byte salad a specimen feeds it — sinks face hostile input by
// definition.
func TestPropertyEngineRobustAgainstJunk(t *testing.T) {
	f := func(chunks [][]byte, strict bool) bool {
		mode := Lenient
		if strict {
			mode = Strict
		}
		ok := true
		eng := NewEngine(mode, func(line string) {
			if replyCode([]byte(line)) == 0 {
				ok = false // every reply must carry a numeric code
			}
		}, nil)
		eng.Greet("220 sink")
		for _, c := range chunks {
			eng.Feed(c)
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: DATA is unreachable without a prior accepted RCPT, for any
// command ordering — the invariant that makes harvested envelopes
// attributable.
func TestPropertyNoDataWithoutRcpt(t *testing.T) {
	verbs := []string{
		"HELO x", "EHLO y", "MAIL FROM:<a@b.c>", "RCPT TO:<v@x.y>",
		"DATA", "RSET", "NOOP", "QUIT", "XYZZY",
	}
	f := func(seq []uint8) bool {
		var envs int
		eng := NewEngine(Lenient, func(string) {}, nil)
		eng.OnMessage = func(env *Envelope) *Reply {
			envs++
			// Every completed envelope must carry at least one recipient.
			return nil
		}
		eng.Greet("220 sink")
		sawRcptAccepted := false
		for _, i := range seq {
			verb := verbs[int(i)%len(verbs)]
			eng.Feed([]byte(verb + "\r\n"))
			if strings.HasPrefix(verb, "RCPT") {
				sawRcptAccepted = true
			}
			if eng.state == stData {
				// Feed a body and terminate so the walk continues.
				eng.Feed([]byte("body\r\n.\r\n"))
			}
		}
		if envs > 0 && !sawRcptAccepted {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: every completed envelope has a non-empty recipient list.
func TestPropertyEnvelopesHaveRecipients(t *testing.T) {
	f := func(nMsgs uint8, rcpts uint8) bool {
		n := int(nMsgs)%3 + 1
		r := int(rcpts)%3 + 1
		var bad bool
		eng := NewEngine(Lenient, func(string) {}, nil)
		eng.OnMessage = func(env *Envelope) *Reply {
			if len(env.Rcpts) != r || len(env.From) == 0 {
				bad = true
			}
			return nil
		}
		eng.Greet("220 x")
		eng.Feed([]byte("HELO h\r\n"))
		for i := 0; i < n; i++ {
			eng.Feed([]byte("MAIL FROM:<a@b.c>\r\n"))
			for j := 0; j < r; j++ {
				eng.Feed([]byte("RCPT TO:<v@x.y>\r\n"))
			}
			eng.Feed([]byte("DATA\r\nm\r\n.\r\n"))
		}
		return !bad && eng.Envelopes == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
