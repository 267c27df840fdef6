package trace

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
	"time"

	"gq/internal/netstack"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	ts := time.Date(2011, 11, 2, 12, 0, 0, 123456000, time.UTC)
	frames := [][]byte{
		[]byte("frame-one"),
		[]byte("frame-two-longer"),
	}
	for i, f := range frames {
		if err := w.WritePacket(ts.Add(time.Duration(i)*time.Second), f); err != nil {
			t.Fatal(err)
		}
	}
	if w.Packets != 2 {
		t.Fatalf("packets %d", w.Packets)
	}
	if want := uint64(len(frames[0]) + len(frames[1])); w.Bytes != want {
		t.Fatalf("bytes %d want %d", w.Bytes, want)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	orig := origLens(buf.Bytes())
	recs, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("%d records", len(recs))
	}
	if !bytes.Equal(recs[0].Frame, frames[0]) || !bytes.Equal(recs[1].Frame, frames[1]) {
		t.Fatal("frames corrupted")
	}
	if !recs[0].Time.Equal(ts.Truncate(time.Microsecond)) {
		t.Fatalf("timestamp %v want %v", recs[0].Time, ts)
	}
	if len(orig) != 2 || orig[1] != len(frames[1]) {
		t.Fatalf("orig lens %v", orig)
	}
}

// origLens reads each record's on-wire length from a pcap stream: the field
// Read skips.
func origLens(stream []byte) []int {
	var out []int
	for rest := stream[24:]; len(rest) >= 16; {
		incl := binary.LittleEndian.Uint32(rest[8:12])
		out = append(out, int(binary.LittleEndian.Uint32(rest[12:16])))
		rest = rest[min(16+int(incl), len(rest)):]
	}
	return out
}

func TestHeaderOnlyOnce(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.WriteHeader()
	w.WriteHeader()
	w.WritePacket(time.Unix(0, 0), []byte("x"))
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 24+16+1 {
		t.Fatalf("stream length %d", buf.Len())
	}
}

// TestReadNanosecondPcap: Read takes the nanosecond-precision format other
// tools write (magic 0xa1b23c4d), here a hand-built header and one record.
func TestReadNanosecondPcap(t *testing.T) {
	ts := time.Date(2011, 11, 2, 12, 0, 0, 123456789, time.UTC)
	frame := []byte("nanoframe")
	var buf bytes.Buffer
	hdr := make([]byte, 24)
	binary.LittleEndian.PutUint32(hdr[0:4], 0xa1b23c4d)
	binary.LittleEndian.PutUint16(hdr[4:6], 2)
	binary.LittleEndian.PutUint16(hdr[6:8], 4)
	binary.LittleEndian.PutUint32(hdr[16:20], 65535)
	binary.LittleEndian.PutUint32(hdr[20:24], LinkTypeEthernet)
	rec := make([]byte, 16)
	binary.LittleEndian.PutUint32(rec[0:4], uint32(ts.Unix()))
	binary.LittleEndian.PutUint32(rec[4:8], uint32(ts.Nanosecond()))
	binary.LittleEndian.PutUint32(rec[8:12], uint32(len(frame)))
	binary.LittleEndian.PutUint32(rec[12:16], uint32(len(frame)))
	buf.Write(hdr)
	buf.Write(rec)
	buf.Write(frame)
	recs, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || string(recs[0].Frame) != "nanoframe" {
		t.Fatalf("records %+v", recs)
	}
	if !recs[0].Time.Equal(ts) {
		t.Fatalf("timestamp %v want %v (nanosecond precision lost)", recs[0].Time, ts)
	}
}

func TestFlushEmptyTraceIsValidPcap(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("%d records in empty trace", len(recs))
	}
}

func TestBytesCountsOriginalLength(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	big := make([]byte, pcapSnaplen+500)
	if err := w.WritePacket(time.Unix(0, 0), big); err != nil {
		t.Fatal(err)
	}
	if w.Bytes != uint64(len(big)) {
		t.Fatalf("Bytes %d want original length %d", w.Bytes, len(big))
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	orig := origLens(buf.Bytes())
	recs, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs[0].Frame) != pcapSnaplen || len(orig) != 1 || orig[0] != len(big) {
		t.Fatalf("capture %d orig %v", len(recs[0].Frame), orig)
	}
}

func TestReadRejectsJunk(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not a pcap"))); err == nil {
		t.Fatal("junk accepted")
	}
	var hdr [24]byte
	hdr[0] = 0xd4 // wrong endianness magic
	if _, err := Read(bytes.NewReader(hdr[:])); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestRealFrameRoundTrip(t *testing.T) {
	p := &netstack.Packet{
		Eth: netstack.Ethernet{
			Dst: netstack.MAC{2, 0, 0, 0, 0, 1}, Src: netstack.MAC{2, 0, 0, 0, 0, 2},
			VLAN: 16, EtherType: netstack.EtherTypeIPv4,
		},
		IP:      &netstack.IPv4{TTL: 64, Protocol: netstack.ProtoTCP, Src: 1, Dst: 2},
		TCP:     &netstack.TCP{SrcPort: 1234, DstPort: 80, Flags: netstack.FlagSYN},
		Payload: nil,
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.WritePacket(time.Unix(100, 0), p.Marshal())
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	q, err := netstack.ParseFrame(recs[0].Frame)
	if err != nil {
		t.Fatal(err)
	}
	if q.Eth.VLAN != 16 || q.TCP == nil || q.TCP.DstPort != 80 {
		t.Fatalf("decoded %+v", q)
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	f := func(payloads [][]byte, secs []uint32) bool {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.WriteHeader(); err != nil {
			return false
		}
		n := len(payloads)
		if len(secs) < n {
			n = len(secs)
		}
		for i := 0; i < n; i++ {
			if err := w.WritePacket(time.Unix(int64(secs[i]), 0), payloads[i]); err != nil {
				return false
			}
		}
		if err := w.Flush(); err != nil {
			return false
		}
		recs, err := Read(&buf)
		if err != nil || len(recs) != n {
			return false
		}
		for i := 0; i < n; i++ {
			if !bytes.Equal(recs[i].Frame, payloads[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
