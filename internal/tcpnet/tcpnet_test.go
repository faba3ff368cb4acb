package tcpnet

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"atum/internal/actor"
	"atum/internal/ids"
	"atum/internal/wire"
)

// testMsg has no wire codec: stubCodec cannot encode it, like an
// unregistered application type under core.MessageCodec.
type testMsg struct {
	Seq  int
	Body string
}

// sink collects delivered envelopes.
type sink struct {
	mu  sync.Mutex
	got []Envelope
	ch  chan Envelope
}

func newSink() *sink { return &sink{ch: make(chan Envelope, 4096)} }

func (s *sink) Deliver(from, to ids.NodeID, msg actor.Message) {
	env := Envelope{From: from, To: to, Msg: msg}
	s.mu.Lock()
	s.got = append(s.got, env)
	s.mu.Unlock()
	s.ch <- env
}

func (s *sink) wait(t *testing.T, n int, timeout time.Duration) []Envelope {
	t.Helper()
	deadline := time.After(timeout)
	for {
		s.mu.Lock()
		if len(s.got) >= n {
			out := append([]Envelope(nil), s.got...)
			s.mu.Unlock()
			return out
		}
		s.mu.Unlock()
		select {
		case <-deadline:
			s.mu.Lock()
			defer s.mu.Unlock()
			t.Fatalf("timed out: got %d envelopes, want %d", len(s.got), n)
			return nil
		case <-s.ch:
		}
	}
}

func newTestTransport(t *testing.T, self ids.NodeID, d Deliverer) *Transport {
	t.Helper()
	tr, err := New(self, d, Options{ListenAddr: "127.0.0.1:0", Codec: stubCodec{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := newFrameWriter(&buf)
	if err := w.writeHello(hello{From: 9, Addr: "a:1"}); err != nil {
		t.Fatal(err)
	}
	if buf.Bytes()[4] != frameHello {
		t.Fatalf("hello not 'H'-framed (tag %#x)", buf.Bytes()[4])
	}
	want := Envelope{From: 1, To: 2, Msg: wireMsg{Seq: 7, Body: "hi"}}
	if err := w.writeEnvelope(want, stubCodec{}); err != nil {
		t.Fatal(err)
	}

	r := newFrameReader(&buf, 1<<20, stubCodec{})
	h, err := r.readHello()
	if err != nil {
		t.Fatal(err)
	}
	if h.From != 9 || h.Addr != "a:1" {
		t.Fatalf("got %+v", h)
	}
	env, err := r.readEnvelope()
	if err != nil {
		t.Fatal(err)
	}
	if env != want {
		t.Fatalf("got %+v", env)
	}
}

func TestFrameRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	w := newFrameWriter(&buf)
	if err := w.writeEnvelope(Envelope{Msg: wireMsg{Body: string(make([]byte, 4096))}}, stubCodec{}); err != nil {
		t.Fatal(err)
	}
	r := newFrameReader(&buf, 16, stubCodec{})
	if _, err := r.readEnvelope(); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestFrameTypeMismatch(t *testing.T) {
	var buf bytes.Buffer
	w := newFrameWriter(&buf)
	if err := w.writeHello(hello{From: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.writeEnvelope(Envelope{Msg: wireMsg{Seq: 1}}, stubCodec{}); err != nil {
		t.Fatal(err)
	}
	r := newFrameReader(&buf, 1<<20, stubCodec{})
	if _, err := r.readEnvelope(); err == nil {
		t.Fatal("hello decoded as envelope")
	}
	if _, err := r.readHello(); err == nil {
		t.Fatal("wire frame decoded as hello")
	}
}

func TestSendBetweenTransports(t *testing.T) {
	sa, sb := newSink(), newSink()
	ta := newTestTransport(t, 1, sa)
	tb := newTestTransport(t, 2, sb)

	ta.LearnAddr(2, tb.Addr())
	ta.Send(1, 2, wireMsg{Seq: 1, Body: "over tcp"})
	got := sb.wait(t, 1, 10*time.Second)
	if got[0].From != 1 || got[0].To != 2 || got[0].Msg != (wireMsg{Seq: 1, Body: "over tcp"}) {
		t.Fatalf("got %+v", got[0])
	}
}

func TestDialBackViaHello(t *testing.T) {
	sa, sb := newSink(), newSink()
	ta := newTestTransport(t, 1, sa)
	tb := newTestTransport(t, 2, sb)

	// Only A knows B. After A's first message, B learns A's address from the
	// hello frame and can reply without any manual LearnAddr.
	ta.LearnAddr(2, tb.Addr())
	ta.Send(1, 2, wireMsg{Seq: 1})
	sb.wait(t, 1, 10*time.Second)

	if _, ok := tb.LookupAddr(1); !ok {
		t.Fatal("B did not learn A's address from hello")
	}
	tb.Send(2, 1, wireMsg{Seq: 2})
	got := sa.wait(t, 1, 10*time.Second)
	if got[0].Msg != (wireMsg{Seq: 2}) {
		t.Fatalf("got %+v", got[0])
	}
}

func TestUnknownDestinationDropped(t *testing.T) {
	sa := newSink()
	ta := newTestTransport(t, 1, sa)
	ta.Send(1, 42, wireMsg{})
	waitStat(t, func() bool { return ta.Stats().DroppedAddr == 1 })
}

func TestManyMessagesInOrder(t *testing.T) {
	sa, sb := newSink(), newSink()
	ta := newTestTransport(t, 1, sa)
	tb := newTestTransport(t, 2, sb)
	ta.LearnAddr(2, tb.Addr())

	const total = 500
	for i := 0; i < total; i++ {
		ta.Send(1, 2, wireMsg{Seq: i})
	}
	got := sb.wait(t, total, 30*time.Second)
	for i, env := range got {
		if env.Msg.(wireMsg).Seq != i {
			t.Fatalf("message %d out of order: %+v", i, env)
		}
	}
}

func TestReconnectAfterPeerRestart(t *testing.T) {
	sa, sb := newSink(), newSink()
	ta := newTestTransport(t, 1, sa)

	tb, err := New(2, sb, Options{ListenAddr: "127.0.0.1:0", Codec: stubCodec{}})
	if err != nil {
		t.Fatal(err)
	}
	addrB := tb.Addr()
	ta.LearnAddr(2, addrB)
	ta.Send(1, 2, wireMsg{Seq: 1})
	sb.wait(t, 1, 10*time.Second)

	// Restart B on the same address.
	if err := tb.Close(); err != nil {
		t.Fatal(err)
	}
	sb2 := newSink()
	tb2, err := New(2, sb2, Options{ListenAddr: addrB, Codec: stubCodec{}})
	if err != nil {
		t.Fatal(err)
	}
	defer tb2.Close()

	// A's cached connection is dead; sends redial until B answers. Some
	// messages may be lost in between — that is the transport contract.
	deadline := time.Now().Add(20 * time.Second)
	for {
		ta.Send(1, 2, wireMsg{Seq: 2})
		select {
		case <-sb2.ch:
			return
		case <-time.After(100 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("no delivery after peer restart")
		}
	}
}

func TestCloseIdempotent(t *testing.T) {
	sa := newSink()
	tr, err := New(1, sa, Options{ListenAddr: "127.0.0.1:0", Codec: stubCodec{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	// Sends after close are silently dropped.
	tr.Send(1, 2, wireMsg{})
}

// stubCodec wire-frames wireMsg values only; everything else reports false
// and is dropped, like unregistered application types under
// core.MessageCodec.
type stubCodec struct{}

type wireMsg struct {
	Seq  int
	Body string
}

func (stubCodec) EncodeMessage(msg actor.Message) ([]byte, bool) {
	m, ok := msg.(wireMsg)
	if !ok {
		return nil, false
	}
	var e wire.Encoder
	e.Int64(int64(m.Seq))
	e.String(m.Body)
	return e.Bytes(), true
}

func (stubCodec) DecodeMessage(b []byte) (actor.Message, error) {
	d := wire.NewDecoder(b)
	m := wireMsg{Seq: int(d.Int64()), Body: d.String()}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return m, nil
}

func TestWireFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := newFrameWriter(&buf)
	want := Envelope{From: 3, To: 4, Msg: wireMsg{Seq: 11, Body: "wire"}}
	if err := w.writeEnvelope(want, stubCodec{}); err != nil {
		t.Fatal(err)
	}
	if buf.Bytes()[4] != frameWire {
		t.Fatalf("codec-covered message not wire-framed (tag %#x)", buf.Bytes()[4])
	}
	r := newFrameReader(&buf, 1<<20, stubCodec{})
	env, err := r.readEnvelope()
	if err != nil {
		t.Fatal(err)
	}
	if env.From != 3 || env.To != 4 || env.Msg != (wireMsg{Seq: 11, Body: "wire"}) {
		t.Fatalf("got %+v", env)
	}
}

// TestWireFrameUnencodableMessageRejected: a message outside the codec's
// set is refused before anything is written, so the stream stays in sync.
func TestWireFrameUnencodableMessageRejected(t *testing.T) {
	var buf bytes.Buffer
	w := newFrameWriter(&buf)
	err := w.writeEnvelope(Envelope{From: 3, To: 4, Msg: testMsg{Seq: 1, Body: "raw"}}, stubCodec{})
	if !errors.Is(err, errUnencodable) {
		t.Fatalf("unencodable message returned %v, want errUnencodable", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("unencodable message wrote %d bytes", buf.Len())
	}
}

// TestNewRequiresCodec: there is no codec-less transport mode.
func TestNewRequiresCodec(t *testing.T) {
	tr, err := New(1, newSink(), Options{ListenAddr: "127.0.0.1:0"})
	if err == nil {
		tr.Close()
		t.Fatal("New accepted a nil Codec")
	}
}

// TestSendBetweenTransportsWithCodec: an unencodable message is dropped and
// counted, and the connection survives it — the next wire message on the
// same connection is still delivered.
func TestSendBetweenTransportsWithCodec(t *testing.T) {
	sa, sb := newSink(), newSink()
	ta := newTestTransport(t, 1, sa)
	tb := newTestTransport(t, 2, sb)

	ta.LearnAddr(2, tb.Addr())
	ta.Send(1, 2, wireMsg{Seq: 1, Body: "wire over tcp"})
	ta.Send(1, 2, testMsg{Seq: 2, Body: "no codec"}) // dropped on the same conn
	ta.Send(1, 2, wireMsg{Seq: 3, Body: "still up"})
	got := sb.wait(t, 2, 10*time.Second)
	if got[0].Msg != (wireMsg{Seq: 1, Body: "wire over tcp"}) {
		t.Fatalf("got %+v", got[0])
	}
	if got[1].Msg != (wireMsg{Seq: 3, Body: "still up"}) {
		t.Fatalf("got %+v", got[1])
	}
	if st := ta.Stats(); st.DroppedCodec != 1 || st.Dials != 1 {
		t.Fatalf("stats %+v, want DroppedCodec=1 on one connection", st)
	}
	if st := tb.Stats(); st.Accepts != 1 {
		t.Fatalf("receiver accepted %d connections, want 1", st.Accepts)
	}
}

func waitStat(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("stat condition not reached")
}

// TestFrameReaderReusesBufferSafely pins the reusable-body contract: many
// frames decoded back to back through one reader must come out intact even
// though they all pass through the same buffer — every decode path copies
// what it keeps, so an earlier message must not be corrupted when a later
// frame overwrites the buffer.
func TestFrameReaderReusesBufferSafely(t *testing.T) {
	var buf bytes.Buffer
	w := newFrameWriter(&buf)
	const frames = 32
	for i := 0; i < frames; i++ {
		env := Envelope{From: ids.NodeID(i + 1), To: 99,
			Msg: wireMsg{Seq: i, Body: strings.Repeat(string(rune('a'+i%26)), 64)}}
		if err := w.writeEnvelope(env, stubCodec{}); err != nil {
			t.Fatal(err)
		}
	}
	r := newFrameReader(&buf, 1<<20, stubCodec{})
	var got []Envelope
	for i := 0; i < frames; i++ {
		env, err := r.readEnvelope()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		got = append(got, env)
	}
	for i, env := range got {
		want := wireMsg{Seq: i, Body: strings.Repeat(string(rune('a'+i%26)), 64)}
		if env.From != ids.NodeID(i+1) || env.Msg != want {
			t.Fatalf("frame %d corrupted by buffer reuse: %+v", i, env)
		}
	}
}
