package obs

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"
)

// refEventJSON renders the fields TestEventEncoderMatchesStdlib sets with
// the stdlib formatters the encoder's fast paths stand in for.
func refEventJSON(e Event, epoch time.Time, verdictName func(uint32) string) string {
	var b strings.Builder
	b.WriteString(`{"t_ns":` + strconv.FormatInt(int64(e.T), 10))
	if !epoch.IsZero() {
		b.WriteString(`,"wall":"` + epoch.Add(e.T).UTC().Format("2006-01-02T15:04:05.000000Z") + `"`)
	}
	b.WriteString(`,"type":` + strconv.Quote(e.Type))
	if e.Scope != "" {
		b.WriteString(`,"scope":` + strconv.Quote(e.Scope))
	}
	if e.Flow != 0 {
		b.WriteString(`,"flow":` + strconv.FormatUint(uint64(e.Flow), 10))
	}
	if e.Inbound {
		b.WriteString(`,"inbound":true`)
	}
	if e.Verdict != 0 {
		b.WriteString(`,"verdict":` + strconv.Quote(verdictName(e.Verdict)))
	}
	if e.Detail != "" {
		b.WriteString(`,"detail":` + strconv.Quote(e.Detail))
	}
	if e.Annotation != "" {
		b.WriteString(`,"annotation":` + strconv.Quote(e.Annotation))
	}
	b.WriteString("}\n")
	return b.String()
}

// The journal line is byte for byte what time.AppendFormat and
// strconv.AppendQuote make, over random events: strings with quotes,
// backslashes, control bytes, DEL, non-ASCII text and invalid UTF-8, and
// stamps that roll over days, months, a leap day, years and past year
// 9999, with sub-microsecond parts the format truncates. The flow fields
// (id, direction, annotation) are each set on half the events, and an
// event without them renders as it did before they existed: the reference
// writes nothing for them then.
func TestEventEncoderMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pieces := []string{
		"flow.created", "Rustock", "superseded by new incarnation", `say "hi"`, `back\slash`,
		"\x00", "\t\n", "\x1f", "\x7f", " ~", "naïve", "日本語", "\xff\xfe", "\u2028", "",
	}
	str := func() string {
		var b strings.Builder
		for range rng.Intn(4) {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		return b.String()
	}
	epochs := []time.Time{
		{},
		time.Date(2011, 11, 2, 0, 0, 0, 0, time.UTC),
		time.Date(2011, 12, 31, 23, 59, 59, 999_999_999, time.UTC),
		time.Date(2012, 2, 28, 23, 59, 58, 500, time.UTC),
		time.Date(2011, 1, 31, 23, 0, 0, 0, time.FixedZone("east", 5*3600)),
		time.Date(9999, 12, 31, 23, 59, 59, 0, time.UTC),
	}
	names := map[uint32]string{}
	verdictName := func(v uint32) string { return names[v] }
	var buf []byte
	for i := range 20000 {
		epoch := epochs[i%len(epochs)]
		e := Event{
			T:      time.Duration(rng.Int63n(int64(400 * 24 * time.Hour))),
			Type:   str(),
			Scope:  str(),
			Detail: str(),
		}
		if rng.Intn(2) == 0 {
			e.T = time.Duration(rng.Int63n(int64(3 * time.Second)))
		}
		if rng.Intn(3) == 0 {
			e.Verdict = uint32(i + 1)
			names[e.Verdict] = str()
		}
		if rng.Intn(2) == 0 {
			e.Flow = rng.Uint32()
		}
		e.Inbound = rng.Intn(2) == 0
		if rng.Intn(2) == 0 {
			e.Annotation = str()
		}
		buf = appendEventJSON(buf[:0], e, epoch, verdictName)
		if want := refEventJSON(e, epoch, verdictName); string(buf) != want {
			t.Fatalf("event %+v at epoch %v:\n got %q\nwant %q", e, epoch, buf, want)
		}
	}
}
