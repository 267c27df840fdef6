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
//	op&3 == 0, 1: after (op>>2) ms the peer sends a segment. Byte 1 holds
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
// out while the peer has acknowledged every byte the host sent; and a
// dialled conn acknowledges the SYN-ACK at its arrival, with the first
// segment it sends then, which is no reset, and with a pure ACK only if
// nothing else it sends then but a reset carries the ACK.
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
		)
		watch := func(c *Conn) {
			c.OnData = func(d []byte) {
				got = append(got, d...)
				owed = append(owed, owedACK{s.Now(), c.rcvNxt})
				if reply > 0 {
					c.Write(make([]byte, reply))
				}
			}
			c.OnPeerClose = func() { owed = append(owed, owedACK{s.Now(), c.rcvNxt}) }
			c.OnClose = func(err error) {
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
			first.OnConnect = func() {
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
		})
		peer.onRx = func(p *netstack.Packet) {
			tcp := p.TCP
			if tcp == nil || refDead {
				return
			}
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
				base := [4]uint32{ref.nxt, ref.nxt + DefaultWindow, next, ref.nxt + 2*MSS}[b>>6]
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
				s.RunFor(oneWay)
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
		}
		s.RunFor(2 * time.Minute)
		checkStream(t, h, got, ref.stream)
		if !first.is(connClosed) {
			checkOwed(s.Now() - oneWay)
		}
	})
}

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
