package policy

import (
	"bytes"
	"crypto/md5"
	"encoding/hex"
	"fmt"
	"strings"

	"gq/internal/containment"
	"gq/internal/httpx"
)

// NewSample builds a Sample, computing its MD5.
func NewSample(name, family string, content []byte) *Sample {
	sum := md5.Sum(content)
	return &Sample{Name: name, Family: family, Content: content, MD5: hex.EncodeToString(sum[:])}
}

// AutoinfectHandler impersonates the auto-infection HTTP server (§6.6):
// the inmate's infection script requests a sample; the containment server
// serves it without any real server existing, which "simplifies the
// implementation substantially: the containment server observes the
// attempted HTTP connection anyway".
type AutoinfectHandler struct {
	sample *Sample
	parser httpx.Parser
}

// NewAutoinfectHandler builds the handler for one decided flow.
func NewAutoinfectHandler(sample *Sample) *AutoinfectHandler {
	return &AutoinfectHandler{sample: sample}
}

// OnClientData implements containment.StreamHandler.
func (h *AutoinfectHandler) OnClientData(s *containment.Session, data []byte) {
	if h.parser.OnRequest == nil {
		h.parser.OnRequest = func(req *httpx.Request) {
			resp := httpx.NewResponse(200, h.sample.Content)
			resp.Headers["content-type"] = "application/octet-stream"
			resp.Headers["x-sample-name"] = h.sample.Name
			resp.Headers["x-sample-family"] = h.sample.Family
			s.WriteClient(resp.Marshal())
			s.CloseClient()
		}
		h.parser.OnError = func(error) { s.AbortClient() }
	}
	h.parser.Feed(data)
}

// OnServerData implements containment.StreamHandler (never used: there is
// no server).
func (h *AutoinfectHandler) OnServerData(s *containment.Session, data []byte) {}

// OnClientClose implements containment.StreamHandler.
func (h *AutoinfectHandler) OnClientClose(s *containment.Session) {}

// OnServerClose implements containment.StreamHandler.
func (h *AutoinfectHandler) OnServerClose(s *containment.Session) {}

// CCFilterHandler performs content control on line-oriented C&C exchanges:
// requests pass through to the real C&C server; response directives that
// would cause harm (DDoS orders, proxy-relay jobs, update URLs) are
// stripped before reaching the inmate, while harmless directives (spam
// templates, target lists) pass so the specimen keeps operating.
type CCFilterHandler struct {
	// respBuf holds the C&C's unterminated last line, up to
	// maxDirectiveLine; skipping drops the rest of a longer one, whole.
	respBuf  []byte
	skipping bool
	// Dropped counts stripped directives; Passed counts forwarded ones.
	Dropped, Passed int
}

// maxDirectiveLine bounds the C&C line the filter holds for inspection; a
// directive is a verb and an argument or two.
const maxDirectiveLine = 4 << 10

// NewCCFilterHandler builds a filter for one decided flow.
func NewCCFilterHandler() *CCFilterHandler { return &CCFilterHandler{} }

// forbiddenDirectives are C&C verbs that must never reach an inmate.
var forbiddenDirectives = []string{"DDOS", "FLOOD", "PROXY", "UPDATE", "EXEC", "SCAN"}

// OnClientData implements containment.StreamHandler: bot->C&C passes.
func (h *CCFilterHandler) OnClientData(s *containment.Session, data []byte) {
	s.WriteServer(data)
}

// OnServerData implements containment.StreamHandler: C&C->bot is filtered
// line by line, and the unterminated rest is held for the next call.
func (h *CCFilterHandler) OnServerData(s *containment.Session, data []byte) {
	var out []byte
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			if !h.skipping {
				h.respBuf = append(h.respBuf, data...)
				if len(h.respBuf) > maxDirectiveLine {
					h.respBuf, h.skipping = h.respBuf[:0], true
					h.Dropped++
				}
			}
			break
		}
		line := data[:nl+1]
		data = data[nl+1:]
		if h.skipping {
			h.skipping = false
			continue
		}
		if len(h.respBuf) > 0 {
			line = append(h.respBuf, line...)
			h.respBuf = line[:0]
		}
		if h.forbidden(string(line)) {
			h.Dropped++
			continue
		}
		h.Passed++
		out = append(out, line...)
	}
	if len(out) > 0 {
		s.WriteClient(out)
	}
}

func (h *CCFilterHandler) forbidden(line string) bool {
	up := strings.ToUpper(strings.TrimSpace(line))
	for _, d := range forbiddenDirectives {
		if strings.HasPrefix(up, d+" ") || up == d {
			return true
		}
	}
	return false
}

// OnClientClose implements containment.StreamHandler.
func (h *CCFilterHandler) OnClientClose(s *containment.Session) { s.CloseServer() }

// OnServerClose implements containment.StreamHandler: flush any unfiltered
// tail (a trailing line without newline is held back unless benign).
func (h *CCFilterHandler) OnServerClose(s *containment.Session) {
	if len(h.respBuf) > 0 && !h.forbidden(string(h.respBuf)) {
		s.WriteClient(h.respBuf)
		h.respBuf = nil
	}
	s.CloseClient()
}

// BatchProvider is the standard SampleProvider: per-VLAN sample queues
// served sequentially, then repeating the last batch entry for reinfection
// ("instead of serving the same sample repeatedly, we maintain the batch
// as a list of files and serve them sequentially", §6.6).
type BatchProvider struct {
	batches map[uint16][]*Sample
	next    map[uint16]int
	// Repeat controls behaviour at batch end: repeat the final sample
	// (long-running deployments) or stop (classification runs).
	Repeat bool
}

// NewBatchProvider creates an empty provider.
func NewBatchProvider(repeat bool) *BatchProvider {
	return &BatchProvider{
		batches: make(map[uint16][]*Sample),
		next:    make(map[uint16]int),
		Repeat:  repeat,
	}
}

// Assign sets the sample batch for a VLAN.
func (b *BatchProvider) Assign(vlan uint16, samples []*Sample) {
	b.batches[vlan] = samples
	b.next[vlan] = 0
}

// AssignMatching assigns every sample in library whose name matches the
// Infection glob, preserving library order.
func (b *BatchProvider) AssignMatching(vlan uint16, glob string, library []*Sample) int {
	var batch []*Sample
	for _, s := range library {
		if MatchSample(glob, s.Name) {
			batch = append(batch, s)
		}
	}
	b.Assign(vlan, batch)
	return len(batch)
}

// NextSample implements SampleProvider.
func (b *BatchProvider) NextSample(vlan uint16) (*Sample, bool) {
	batch := b.batches[vlan]
	if len(batch) == 0 {
		return nil, false
	}
	i := b.next[vlan]
	if i >= len(batch) {
		if !b.Repeat {
			return nil, false
		}
		i = len(batch) - 1
	} else {
		b.next[vlan] = i + 1
	}
	return batch[i], true
}

// Remaining reports how many unserved samples a VLAN's batch holds.
func (b *BatchProvider) Remaining(vlan uint16) int {
	n := len(b.batches[vlan]) - b.next[vlan]
	if n < 0 {
		return 0
	}
	return n
}

// String summarises the provider.
func (b *BatchProvider) String() string {
	total := 0
	for _, batch := range b.batches {
		total += len(batch)
	}
	return fmt.Sprintf("policy.BatchProvider{%d VLANs, %d samples}", len(b.batches), total)
}
