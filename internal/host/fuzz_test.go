package host

import (
	"bytes"
	"testing"
	"time"

	"gq/internal/netstack"
)

// refRecv is the receive side a script of peer segments implies, derived
// apart from the host's code: the next sequence number the app gets, the
// out-of-order runs held (start -> end, at most maxOOOSegments starts, the
// longest run per start, none starting at or beyond the window's right
// edge), where a FIN beyond nxt sits, and the stream the app must have
// been handed. A FIN on a segment that reaches nxt is consumed at nxt,
// once; a FIN beyond nxt is consumed when nxt reaches it.
type refRecv struct {
	nxt             uint32
	stash           map[uint32]uint32
	finAt           uint32
	oooFin, finRcvd bool
	stream          []byte
}

// streamByte is the peer's byte at sequence number seq: every segment that
// covers seq carries the same byte there.
func streamByte(seq uint32) byte { return byte((seq * 2654435761) >> 24) }

func (r *refRecv) apply(seq, n uint32, fin bool) {
	if n == 0 && !fin {
		return
	}
	if seqLT(r.nxt, seq) {
		if !seqLT(seq, r.nxt+DefaultWindow) {
			return
		}
		if end, ok := r.stash[seq]; n > 0 && (ok && seqLT(end, seq+n) || !ok && len(r.stash) < maxOOOSegments) {
			r.stash[seq] = seq + n
		}
		if fin {
			r.oooFin, r.finAt = true, seq+n
		}
		return
	}
	if end := seq + n; seqLT(r.nxt, end) {
		r.take(end)
		for again := true; again; {
			again = false
			for s, e := range r.stash {
				if seqLEQ(s, r.nxt) {
					delete(r.stash, s)
					if seqLT(r.nxt, e) {
						r.take(e)
					}
					again = true
				}
			}
		}
		if r.oooFin && r.nxt == r.finAt {
			r.consumeFIN()
		}
	}
	if fin {
		r.consumeFIN()
	}
}

func (r *refRecv) take(end uint32) {
	for ; r.nxt != end; r.nxt++ {
		r.stream = append(r.stream, streamByte(r.nxt))
	}
}

func (r *refRecv) consumeFIN() {
	if !r.finRcvd {
		r.finRcvd, r.oooFin = true, false
		r.nxt++
	}
}

// owedACK is a delivery the host still owes an ACK for: when the app got
// the bytes, and the acknowledgment number that covers them.
type owedACK struct {
	at   time.Duration
	upTo uint32
}

// FuzzConnSegments feeds one conn a script of peer segments and app
// actions at chosen times. Four bytes an operation:
//
//	op&3 == 0, 1: after (op>>2) ms the peer sends a segment. With op&3 == 1
//	  and a next op that sends a segment after 0 ms (op byte 0 or 1), the
//	  script goes on before it lands: the next segment lands at the same
//	  instant (a burst), and its base "the next byte the app expects" is
//	  the end of this one; any other op&3 == 1 is op&3 == 0. Byte 1 holds
//	  its flags (any of FIN, SYN, RST, PSH, ACK) in its low five bits and
//	  in its top two which ACK it carries: all the host's bytes the peer
//	  has seen, half of what is outstanding, the host's first byte, or
//	  1000 past anything sent. Byte 2 places it: its top two bits pick a
//	  base (the next byte the app expects, the window's right edge, the
//	  stream's start, two segments ahead), its low six a signed distance
//	  d*|d| from there. Byte 3 sizes the payload: 6 bytes a step up to
//	  1460, and 250-255 land around MSS.
//	op&3 == 2: after (op>>2) ms the app acts, by byte 1 mod 4: write
//	  byte 2 * 8 bytes; Close; from now on reply to every OnData with byte
//	  2 bytes (0: stay silent); write byte 3 bytes.
//	op&3 == 3: time passes: (op>>2)/4 s plus byte 1 ms.
//
// The conn is accepted on port 80, unless the first op has op&3 == 1: then
// the host dials the peer, the peer answers the SYN with a SYN-ACK 100 +
// (op>>2) ms after the dial, and the conn's OnConnect, by byte 1 mod 4, writes
// byte 2 * 8 bytes, closes, aborts or does nothing; the script goes on
// from the next op.
//
// Then a further two minutes pass. Whatever the script: nothing panics;
// the app is handed exactly the stream refRecv derives from the segments
// the conn processed; no stash holds more than maxOOOSegments; no segment
// the conn sends acknowledges a byte it has not received; once data is
// delivered or the peer's FIN consumed, a segment acknowledging it leaves
// within delayedACK, unless the conn is gone first; the conn never times
// out while the peer has acknowledged every byte the host sent; a dialled
// conn acknowledges the SYN-ACK at its arrival, with the first segment it
// sends then, which is no reset, and with a pure ACK only if nothing else
// it sends then but a reset carries the ACK; at an instant when only
// in-order data of the ESTABLISHED conn lands (checkBurst), no pure ACK
// leaves while more of it is still to land, and once 2*MSS has arrived
// since the conn's last ACK, exactly one pure ACK or a segment of the
// conn's own acknowledges all of it at that instant; and every change of
// the conn's state is an edge of RFC 793's diagram (rfc793Edges).
func FuzzConnSegments(f *testing.F) {
	const (
		seg     = 0
		app     = 2
		wait    = 3
		fin     = netstack.FlagFIN
		syn     = netstack.FlagSYN
		rst     = netstack.FlagRST
		psh     = netstack.FlagPSH
		ack     = netstack.FlagACK
		ackAll  = 0 << 6
		ackOld  = 2 << 6
		atNxt   = 0 << 6
		atEdge  = 1 << 6
		atZero  = 2 << 6
		ahead   = 3 << 6
		d0      = 32 // distance 0 from the base
		mss     = 250
		ms      = 4 // one millisecond in a segment's or app action's op byte
		quarter = 4 // a quarter second in a wait's op byte
	)
	// The host's table tests as scripts: a silent receiver's ACK at the
	// delay, a bare FIN and its retransmission, a second full segment, a
	// FIN behind held data, a gap filled in two parts, a reply
	// acknowledged by the next request, a write inside the delay.
	f.Add([]byte{
		seg, psh | ack, atNxt | d0, 1,
		wait, 39, 0, 0,
		wait, 2, 0, 0,
	})
	f.Add([]byte{
		seg, fin | ack, atNxt | d0, 0,
		seg | 5*ms, fin | ack, atZero | d0, 0,
	})
	f.Add([]byte{
		seg, psh | ack, atNxt | d0, mss + 2,
		seg | 10*ms, psh | ack, atNxt | d0, mss + 2,
		seg | 10*ms, psh | ack, atNxt | d0, 100,
		seg | 10*ms, fin | ack, atNxt | d0, 0,
		app, 1, 0, 0,
		seg | 5*ms, ackAll | ack, atNxt | d0, 0,
	})
	f.Add([]byte{
		seg, psh | ack, atNxt | d0, 1,
		seg, psh | ack, atNxt | d0 + 3, 1, // 9 bytes beyond
		seg, psh | ack, atNxt | d0, 1,
		seg, psh | ack, atNxt | d0, 2,
		seg | 50*ms, psh | ack, atEdge | d0, 1, // at the right edge: refused
		seg, psh | ack, atEdge | d0 - 1, 1, // one byte inside
		seg, psh | ack, atZero | d0, 3, // old bytes: a duplicate
	})
	f.Add([]byte{
		app, 2, 4, 0, // reply 4 bytes to every request
		seg, psh | ack, atNxt | d0, 2,
		seg | 2*ms, ackAll | psh | ack, atNxt | d0, 2,
		seg | 2*ms, ackOld | psh | ack, atNxt | d0, 2,
		app, 2, 0, 0,
		seg | 2*ms, ackAll | psh | ack, atNxt | d0, 2,
		wait, 160, 0, 0,
		seg, ackAll | ack, atNxt | d0, 0,
	})
	f.Add([]byte{
		seg, psh | ack, atNxt | d0, 2,
		app | 20*ms, 0, 3, 0, // write 24 bytes inside the delay
		seg | 30*ms, ackAll | ack, atNxt | d0, 0,
		seg | 1*ms, syn | psh | ack, ahead | d0, 10,
		seg, rst, atNxt | d0, 0,
		seg | 5*ms, syn, atZero | d0, 0, // a new incarnation
		wait | 8*quarter, 40, 0, 0, // 2.04 s
	})
	// Four full segments at one instant, drawing one ACK; two small ones at
	// one instant while the host's write is in flight and the peer
	// acknowledges none of it; a close answered by one segment that
	// acknowledges the FIN and carries the peer's (FIN_WAIT_1 to
	// TIME_WAIT), then TIME_WAIT's end.
	const burst = 1
	f.Add([]byte{
		wait, 0, 0, 0, // a first op other than a dial
		burst, psh | ack, atNxt | d0, mss + 2,
		burst, psh | ack, atNxt | d0, mss + 2,
		burst, psh | ack, atNxt | d0, mss + 2,
		seg, psh | ack, atNxt | d0, mss + 2,
		wait, 0, 100, 0,
	})
	f.Add([]byte{
		app, 0, 3, 0, // write 24 bytes
		burst | 1*ms, ackOld | psh | ack, atNxt | d0, 2,
		seg, ackOld | psh | ack, atNxt | d0, 2,
		wait | 8*quarter, 0, 0, 0, // past the RTO
		seg, ackAll | ack, atNxt | d0, 0,
	})
	f.Add([]byte{
		app, 1, 0, 0, // Close
		seg | 5*ms, ackAll | fin | ack, atNxt | d0, 0,
		wait | 60*quarter, 0, 0, 0, // 15 s
	})
	// A dialled conn whose OnConnect writes, closes, aborts or does
	// nothing; the peer then sends data, a FIN and the ACK of the host's.
	const dial = 1
	for _, onConnect := range [][2]byte{{0, 3}, {1, 0}, {2, 0}, {3, 0}} {
		f.Add([]byte{
			dial | 2*ms, onConnect[0], onConnect[1], 0,
			seg | 5*ms, psh | ack, atNxt | d0, 2,
			seg | 5*ms, ackAll | fin | ack, atNxt | d0, 0,
			app | 50*ms, 1, 0, 0,
			seg | 5*ms, ackAll | ack, atNxt | d0, 0,
		})
	}

	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 256 {
			script = script[:256]
		}
		s, h, peer := rawSetup(t)
		var (
			first     *Conn
			port      = uint16(80) // the conn's local port
			got       []byte
			reply     int
			ref       = refRecv{stash: map[uint32]uint32{}}
			refDead   bool
			hostEnd   uint32 // the end of the host's bytes the peer has seen
			peerAcked uint32 // the highest of them the peer acknowledged
			owed      []owedACK
			checkOwed func(now time.Duration)
			serverISN uint32
			next      uint32        // the peer's first data sequence number
			synAckAt  time.Duration // when a dialled conn's SYN-ACK arrived
			answer    []*netstack.TCP
			sent      []hostSeg // what the host sent, as the peer got it
			bursts    []burstAt // instants where segments landed, oldest first
			state     = StateSynRcvd
			inBurst   bool   // the last op sent a segment still to land
			burstEnd  uint32 // and this is where it ends
		)
		// observe holds the conn's every state change, seen wherever the
		// test gets control, to an edge of the diagram.
		observe := func() {
			if first == nil || first.state == state {
				return
			}
			if !rfc793Edges[[2]TCPState{state, first.state}] {
				t.Fatalf("at %v: the conn went from %v to %v, no edge of RFC 793's diagram", s.Now(), state, first.state)
			}
			state = first.state
		}
		watch := func(c *Conn) {
			c.OnData = func(d []byte) {
				observe()
				got = append(got, d...)
				owed = append(owed, owedACK{s.Now(), c.rcvNxt})
				if reply > 0 {
					c.Write(make([]byte, reply))
				}
			}
			c.OnPeerClose = func() {
				observe()
				owed = append(owed, owedACK{s.Now(), c.rcvNxt})
			}
			c.OnClose = func(err error) {
				observe()
				checkOwed(s.Now() - oneWay)
				owed = nil
				if err == ErrTimeout && peerAcked == hostEnd {
					t.Fatalf("timed out with every byte sent acknowledged (end %d)", hostEnd)
				}
			}
		}
		checkOwed = func(now time.Duration) {
			if len(owed) > 0 && now-owed[0].at > delayedACK {
				t.Fatalf("at %v: what the conn took at %v (ack %d) is still unacknowledged", now, owed[0].at, owed[0].upTo)
			}
		}
		dialled := len(script) >= 4 && script[0]&3 == 1
		var onConnect byte
		if dialled {
			dialOp, size := script[0], int(script[2])*8
			onConnect = script[1]
			script = script[4:]
			first = h.Dial(peer.addr, 5555)
			watch(first)
			state = StateSynSent
			first.OnConnect = func() {
				observe()
				switch onConnect % 4 {
				case 0:
					first.Write(make([]byte, size))
				case 1:
					first.Close()
				case 2:
					first.Abort()
				}
			}
			port = first.LocalPort()
			s.RunFor(100*time.Millisecond + time.Duration(dialOp>>2)*time.Millisecond)
			syn := peer.lastTCP()
			if syn == nil || syn.TCP.Flags != netstack.FlagSYN {
				t.Fatal("the host sent no SYN")
			}
			serverISN, next = syn.TCP.Seq, 1001
		} else {
			h.Listen(80, func(c *Conn) {
				if first == nil { // a later incarnation: only its failures count
					first = c
					watch(c)
					observe()
				}
			})
			serverISN, next = rawHandshake(t, s, h, peer, 80)
		}
		ref.nxt = next
		hostEnd, peerAcked = serverISN+1, serverISN+1
		h.AddRxHook(func(p *netstack.Packet) {
			tcp := p.TCP
			if tcp == nil || tcp.DstPort != port || tcp.SrcPort != 5555 || refDead {
				return
			}
			c := first
			observe()
			if len(bursts) == 0 || bursts[len(bursts)-1].at != s.Now() {
				bursts = append(bursts, burstAt{at: s.Now(), plain: true, before: ref.nxt})
			}
			b := &bursts[len(bursts)-1]
			b.plain = b.plain && !c.is(connClosed) && c.state == StateEstablished &&
				tcp.Flags&(netstack.FlagFIN|netstack.FlagSYN|netstack.FlagRST) == 0 && len(p.Payload) > 0 &&
				tcp.Seq == ref.nxt && len(ref.stash) == 0 && !ref.oooFin
			switch {
			case c.is(connClosed):
				refDead = true
			case tcp.Flags&netstack.FlagRST != 0:
				refDead = c.state != StateTimeWait
			case tcp.Flags&netstack.FlagACK != 0 && c.state == StateLastAck && c.is(finSent) &&
				tcp.Ack == c.sndNxt && c.sndUna != c.sndNxt:
				refDead = true // the ACK of the FIN ends the conn before its data
			default:
				ref.apply(tcp.Seq, uint32(len(p.Payload)), tcp.Flags&netstack.FlagFIN != 0)
			}
			b.after = ref.nxt
		})
		peer.onRx = func(p *netstack.Packet) {
			tcp := p.TCP
			if tcp == nil || refDead {
				return
			}
			observe()
			sent = append(sent, hostSeg{s.Now() - oneWay, tcp.Flags, tcp.Ack, len(p.Payload)})
			if tcp.Flags&netstack.FlagACK != 0 && tcp.Flags&netstack.FlagRST == 0 {
				if seqLT(ref.nxt, tcp.Ack) {
					t.Fatalf("host acknowledged %d, past the %d it can have received", tcp.Ack, ref.nxt)
				}
				sent := s.Now() - oneWay
				for len(owed) > 0 && seqLEQ(owed[0].upTo, tcp.Ack) {
					if sent-owed[0].at > delayedACK {
						t.Fatalf("what the conn took at %v was acknowledged at %v", owed[0].at, sent)
					}
					owed = owed[1:]
				}
			}
			if end := tcp.Seq + segLen(tcp, len(p.Payload)); seqLT(hostEnd, end) {
				hostEnd = end
			}
			if dialled && s.Now()-oneWay == synAckAt {
				answer = append(answer, tcp)
			}
		}
		peer.rx = nil
		if dialled {
			synAckAt = s.Now() + oneWay
			peer.send(h.MAC(), h.Addr(), &netstack.TCP{
				SrcPort: 5555, DstPort: port, Seq: next - 1, Ack: serverISN + 1,
				Flags: syn | ack, Window: DefaultWindow,
			}, nil)
			s.RunFor(2 * oneWay)
			checkHandshakeACK(t, answer, next, onConnect)
		}

		checkBursts := func() {
			for len(bursts) > 0 && bursts[0].at+oneWay <= s.Now() {
				if !refDead {
					checkBurst(t, bursts[0], sent, next)
				}
				bursts = bursts[1:]
			}
		}
		for ; len(script) >= 4; script = script[4:] {
			op, a, b, c := script[0], script[1], script[2], script[3]
			s.RunFor(time.Duration(op>>2) * time.Millisecond)
			switch op & 3 {
			case 0, 1:
				var ackNo uint32
				switch a >> 6 {
				case 0:
					ackNo = hostEnd
				case 1:
					ackNo = peerAcked + (hostEnd-peerAcked)/2
				case 2:
					ackNo = serverISN + 1
				case 3:
					ackNo = hostEnd + 1000
				}
				flags := a & (fin | syn | rst | psh | ack)
				if flags&ack != 0 && seqLT(peerAcked, ackNo) && seqLEQ(ackNo, hostEnd) {
					peerAcked = ackNo
				}
				nxt := ref.nxt
				if inBurst {
					nxt = burstEnd
				}
				base := [4]uint32{nxt, ref.nxt + DefaultWindow, next, ref.nxt + 2*MSS}[b>>6]
				d := int32(b&0x3f) - d0
				n := min(int(c)*6, 1460)
				if c >= mss {
					n = MSS - mss - 2 + int(c)
				}
				payload := make([]byte, n)
				seq := base + uint32(d*max(d, -d))
				for i := range payload {
					payload[i] = streamByte(seq + uint32(i))
				}
				peer.send(h.MAC(), h.Addr(), &netstack.TCP{
					SrcPort: 5555, DstPort: port, Seq: seq, Ack: ackNo, Flags: flags, Window: DefaultWindow,
				}, payload)
				// A burst only if the next op sends a segment at once: a
				// script that waits keeps the segment's own round trip.
				inBurst = op&3 == 1 && len(script) >= 8 && script[4] <= 1
				if burstEnd = seq + uint32(n); !inBurst {
					s.RunFor(oneWay)
				}
			case app:
				switch a % 4 {
				case 0:
					first.Write(make([]byte, int(b)*8))
				case 1:
					first.Close()
				case 2:
					reply = int(b)
				case 3:
					first.Write(make([]byte, c))
				}
			case wait:
				s.RunFor(time.Duration(op>>2)*time.Second/4 + time.Duration(a)*time.Millisecond)
			}
			checkStream(t, h, got, ref.stream)
			if !first.is(connClosed) {
				checkOwed(s.Now() - oneWay)
			}
			observe()
			checkBursts()
		}
		s.RunFor(2 * time.Minute)
		checkStream(t, h, got, ref.stream)
		if !first.is(connClosed) {
			checkOwed(s.Now() - oneWay)
		}
		observe()
		checkBursts()
	})
}

// hostSeg is a segment the host sent: when, its flags, its ACK and how many
// bytes it carried.
type hostSeg struct {
	at    time.Duration
	flags uint8
	ack   uint32
	n     int
}

// burstAt is an instant at which segments of the conn landed: whether all
// of them were in-order data reaching an ESTABLISHED conn with nothing
// stashed, and where the peer's stream the conn has taken stood before the
// first and after the last.
type burstAt struct {
	at            time.Duration
	plain         bool
	before, after uint32
}

// checkBurst holds the pure ACKs the host sent at a plain burst's instant:
// none acknowledges part of the burst only, which would mean it left while
// more of the burst was still to land; at most one acknowledges all of it;
// and if 2*MSS has arrived since the last ACK the host sent before the
// burst (or beside it, on a segment of its own), exactly one does, unless
// a segment of the host's own does. next is the peer's first data byte,
// which the handshake acknowledged.
func checkBurst(t *testing.T, b burstAt, sent []hostSeg, next uint32) {
	t.Helper()
	if !b.plain {
		return
	}
	acked, pure, carried := next, 0, false
	for _, sg := range sent {
		if sg.at > b.at || sg.flags&netstack.FlagACK == 0 || sg.flags&netstack.FlagRST != 0 {
			continue
		}
		isPure := sg.flags == netstack.FlagACK && sg.n == 0
		if sg.at == b.at && isPure && seqLT(b.before, sg.ack) {
			if sg.ack != b.after {
				t.Fatalf("at %v: a pure ACK of %d left while the burst to %d was still landing", b.at, sg.ack, b.after)
			}
			pure++
			continue
		}
		if sg.at == b.at && sg.ack == b.after {
			carried = true
		}
		if seqLT(acked, sg.ack) {
			acked = sg.ack
		}
	}
	if pure > 1 {
		t.Fatalf("at %v: %d pure ACKs of the burst to %d", b.at, pure, b.after)
	}
	if b.after-acked >= 2*MSS && pure == 0 && !carried {
		t.Fatalf("at %v: the burst took the conn from %d to %d, %d past its last ACK, and nothing acknowledged it then", b.at, b.before, b.after, b.after-acked)
	}
}

// rfc793Edges are the state changes of RFC 793's diagram (3.2, Figure 6),
// plus those its event processing (3.9) adds: FIN_WAIT_1 to TIME_WAIT when
// one segment acknowledges the FIN and carries the peer's, and any state to
// CLOSED on a reset, an abort or a timeout.
var rfc793Edges = func() map[[2]TCPState]bool {
	m := map[[2]TCPState]bool{}
	for _, e := range [][2]TCPState{
		{StateSynSent, StateEstablished},
		{StateSynRcvd, StateEstablished},
		{StateEstablished, StateFinWait1},
		{StateEstablished, StateCloseWait},
		{StateFinWait1, StateFinWait2},
		{StateFinWait1, StateClosing},
		{StateFinWait1, StateTimeWait},
		{StateFinWait2, StateTimeWait},
		{StateClosing, StateTimeWait},
		{StateCloseWait, StateLastAck},
	} {
		m[e] = true
	}
	for st := StateSynSent; st <= StateTimeWait; st++ {
		m[[2]TCPState{st, StateClosed}] = true
	}
	return m
}()

// checkHandshakeACK holds what a dialled conn sent at its SYN-ACK's
// arrival: the first segment acknowledges the SYN-ACK (irs+1 is next) and
// is no reset, which a peer in SYN_RCVD drops unaccepted, and a pure ACK
// goes out only if no other segment then but a reset carries the ACK.
func checkHandshakeACK(t *testing.T, answer []*netstack.TCP, next uint32, onConnect byte) {
	t.Helper()
	if len(answer) == 0 || answer[0].Flags&(netstack.FlagACK|netstack.FlagRST) != netstack.FlagACK || answer[0].Ack != next {
		t.Fatalf("OnConnect %d: at the SYN-ACK's arrival the host sent %+v, want its first segment to acknowledge %d and reset nothing", onConnect%4, answer, next)
	}
	pure, carrying := 0, 0
	for _, tcp := range answer {
		switch {
		case tcp.Flags&netstack.FlagRST != 0 || tcp.Ack != next:
		case tcp.Flags == netstack.FlagACK:
			pure++
		default:
			carrying++
		}
	}
	if pure > 1 || pure == 1 && carrying > 0 {
		t.Fatalf("OnConnect %d: at the SYN-ACK's arrival the host sent %d pure ACKs beside %d segments carrying the ACK", onConnect%4, pure, carrying)
	}
}

// checkStream holds the app's stream to the reference's and every conn's
// stash to its bound.
func checkStream(t *testing.T, h *Host, got, want []byte) {
	t.Helper()
	if !bytes.Equal(got, want) {
		t.Fatalf("app got %d bytes, reference %d; first difference at %d",
			len(got), len(want), firstDiff(got, want))
	}
	for _, c := range h.conns {
		if n := c.stashed(); n > maxOOOSegments {
			t.Fatalf("stash holds %d segments, bound %d", n, maxOOOSegments)
		}
	}
}
