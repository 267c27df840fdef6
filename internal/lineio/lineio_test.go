package lineio

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// tooLongMark stands for a tooLong report in a recorded event list; no
// handed line contains an LF, so none can equal it.
const tooLongMark = "\n<too long>"

// feedAll feeds stream to a Reader of bound max in the given chunks and
// returns what it reported, in order, and what it holds at the end.
func feedAll(t *testing.T, max int, chunks [][]byte) (events []string, pending string) {
	t.Helper()
	r := Reader{Max: max}
	limit := r.max()
	for _, c := range chunks {
		r.Feed(c, func(l []byte) {
			if len(l) > limit {
				t.Fatalf("handed a %d-octet line over the %d bound", len(l), limit)
			}
			events = append(events, string(l))
		}, func() { events = append(events, tooLongMark) })
		if len(r.Pending()) > limit {
			t.Fatalf("holds %d octets over the %d bound", len(r.Pending()), limit)
		}
	}
	return events, string(r.Pending())
}

// model is the reader's contract over a whole stream: each LF-terminated
// piece within the bound is a line, each longer piece one report, and an
// unterminated rest is held if it fits (reported if not).
func model(max int, stream []byte) (events []string, pending string) {
	pieces := strings.Split(string(stream), "\n")
	for i, p := range pieces {
		last := i == len(pieces)-1
		switch {
		case len(p) > max:
			events = append(events, tooLongMark)
		case last:
			pending = p
		default:
			events = append(events, p)
		}
	}
	return events, pending
}

// Lines come without their LF and with their CRs, a split one joined; the
// unterminated rest is held.
func TestFeedHandsLinesWhereTheyLie(t *testing.T) {
	var got []string
	r := Reader{Max: 16}
	for _, seg := range []string{"HELO a\r\nMAIL", " FROM:<x>\r\n", "\n", "RCPT TO:<y"} {
		r.Feed([]byte(seg), func(l []byte) { got = append(got, string(l)) }, func() { t.Fatal("too long") })
	}
	if want := []string{"HELO a\r", "MAIL FROM:<x>\r", ""}; !slices.Equal(got, want) {
		t.Fatalf("lines %q, want %q", got, want)
	}
	if p := string(r.Pending()); p != "RCPT TO:<y" {
		t.Fatalf("pending %q", p)
	}
}

// A peer that streams a mebibyte without an LF leaves the reader holding
// nothing more than its bound, and a zero Max is DefaultMax.
func TestFeedHoldsAtMostTheBound(t *testing.T) {
	var r Reader
	reports := 0
	seg := bytes.Repeat([]byte{'x'}, 1400)
	for sent := 0; sent < 1<<20; sent += len(seg) {
		r.Feed(seg, func([]byte) { t.Fatal("a line without an LF") }, func() { reports++ })
		if len(r.Pending()) > DefaultMax {
			t.Fatalf("holds %d octets", len(r.Pending()))
		}
	}
	if reports != 1 {
		t.Fatalf("%d reports, want 1", reports)
	}
}

// FuzzLineReader cuts a stream at arbitrary points: any split gives the
// lines and over-long reports, in order, and the held rest that the model
// gives the whole stream, and no handed line or held prefix exceeds the
// bound.
func FuzzLineReader(f *testing.F) {
	f.Add([]byte("HELO a\r\nMAIL FROM:<x>\r\n"), []byte{3, 9}, uint16(1000))
	f.Add([]byte("0123456789abcdef\nok\npartial"), []byte{4, 5, 4}, uint16(8))
	f.Add(bytes.Repeat([]byte{'x'}, 600), []byte{200, 200}, uint16(512))
	f.Add([]byte("\n\n\r\n"), []byte{1}, uint16(0))
	f.Fuzz(func(t *testing.T, stream, cuts []byte, max uint16) {
		bound := int(max)
		if bound == 0 {
			bound = DefaultMax
		}
		wantEvents, wantPending := model(bound, stream)
		whole, wholePending := feedAll(t, int(max), [][]byte{stream})
		if !slices.Equal(whole, wantEvents) || wholePending != wantPending {
			t.Fatalf("whole feed %q + %q, model %q + %q", whole, wholePending, wantEvents, wantPending)
		}
		var chunks [][]byte
		rest := stream
		for _, c := range cuts {
			n := min(int(c), len(rest))
			chunks, rest = append(chunks, rest[:n]), rest[n:]
		}
		chunks = append(chunks, rest)
		split, splitPending := feedAll(t, int(max), chunks)
		if !slices.Equal(split, whole) || splitPending != wholePending {
			t.Fatalf("split %d ways: %q + %q, whole: %q + %q", len(chunks), split, splitPending, whole, wholePending)
		}
	})
}
