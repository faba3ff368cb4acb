package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"atum/internal/actor"
	"atum/internal/core"
	"atum/internal/crypto"
	"atum/internal/group"
	"atum/internal/ids"
)

// class is the layer boundary a span was recorded at.
type class uint8

const (
	clsRecvGroupMsg class = iota
	clsRecvSMR
	clsRecvHeartbeat
	clsRecvJoin
	clsRecvOther
	clsTimerTick
	clsTimerEgress
	clsTimerSMR
	clsTimerOther
	clsStart
	clsSign
	clsVerify
	clsHook
	clsAPIBroadcast
	clsAPISendRaw
	clsAPIJoin
	numClasses
)

var classNames = [numClasses]string{
	"core.recv.GroupMsg", "core.recv.SMREnvelope", "core.recv.Heartbeat",
	"core.recv.join", "core.recv.other",
	"core.timer.tick", "core.timer.egress", "core.timer.smr", "core.timer.other",
	"core.start", "crypto.sign", "crypto.verify", "harness.hook",
	"api.broadcast", "api.send_raw", "api.join",
}

// isCallback reports whether spans of c are simulator callbacks into a node.
func (c class) isCallback() bool { return c <= clsStart }

// Phases of a traced run: the growth/settle/fault-injection set-up, and the
// measured window.
const (
	phaseGrow = iota
	phaseWindow
	numPhases
)

// batchKind is core's kindBatch, the egress carrier's group.Kind. Kind values
// are an append-only wire contract (docs/WIRE.md), so the number is stable.
const batchKind group.Kind = 15

// maxSpans bounds the span log of each phase (about 40 bytes a span), so
// growth cannot crowd the window out; aggregates keep counting after it
// fills.
const maxSpans = 1 << 18

// Carrier capture for the UnpackBatch replay: every carrierStride-th carrier
// received in the window, up to maxCarriers of them.
const (
	carrierStride = 8
	maxCarriers   = 8192
)

type agg struct {
	calls int64
	total time.Duration
	self  time.Duration
}

// span is one recorded call across a layer boundary. Times are nanoseconds
// since the tracer started; Parent indexes the enclosing recorded span or is
// -1.
type span struct {
	Class  class
	Phase  uint8
	Type   uint16
	Node   uint32
	Start  int64
	End    int64
	Parent int32
}

type openSpan struct {
	cls   class
	start int64
	child int64
	rec   int32
}

// tracer keeps spans and per-layer counters for one traced cluster. The
// simulator is single-threaded, so nothing here needs a lock.
type tracer struct {
	base  time.Time
	phase int
	agg   [numPhases][numClasses]agg
	// topCallbacks sums callback spans with no enclosing span; runWall sums
	// the wall time of simnet.Network.Run calls. Their difference is the
	// simulator's own time.
	topCallbacks [numPhases]time.Duration
	runWall      [numPhases]time.Duration

	stack        []openSpan
	spans        []span
	spansKept    [numPhases]int
	spansDropped int64
	types        []string
	typeIdx      map[reflect.Type]uint16

	verifyFailed [numPhases]int64
	smrBytes     int64 // SMREnvelope bytes delivered in the window
	carriers     int64
	captured     []group.GroupMsg
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), typeIdx: make(map[reflect.Type]uint16), types: []string{""}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// typeID interns the %T name of v (0 for nil).
func (t *tracer) typeID(v any) uint16 {
	if v == nil {
		return 0
	}
	rt := reflect.TypeOf(v)
	if id, ok := t.typeIdx[rt]; ok {
		return id
	}
	id := uint16(len(t.types))
	t.types = append(t.types, rt.String())
	t.typeIdx[rt] = id
	return id
}

func (t *tracer) begin(cls class, node ids.NodeID, typ uint16) {
	rec := int32(-1)
	start := t.now()
	if t.spansKept[t.phase] < maxSpans {
		t.spansKept[t.phase]++
		parent := int32(-1)
		if k := len(t.stack); k > 0 {
			parent = t.stack[k-1].rec
		}
		rec = int32(len(t.spans))
		t.spans = append(t.spans, span{Class: cls, Phase: uint8(t.phase), Type: typ, Node: uint32(node), Start: start, Parent: parent})
	} else {
		t.spansDropped++
	}
	t.stack = append(t.stack, openSpan{cls: cls, start: start, rec: rec})
}

func (t *tracer) end() {
	k := len(t.stack) - 1
	o := t.stack[k]
	t.stack = t.stack[:k]
	end := t.now()
	dur := end - o.start
	if o.rec >= 0 {
		t.spans[o.rec].End = end
	}
	a := &t.agg[t.phase][o.cls]
	a.calls++
	a.total += time.Duration(dur)
	a.self += time.Duration(dur - o.child)
	if k > 0 {
		t.stack[k-1].child += dur
	} else if o.cls.isCallback() {
		t.topCallbacks[t.phase] += time.Duration(dur)
	}
}

// recvClass maps a received message to its span class.
func recvClass(msg actor.Message) class {
	switch msg.(type) {
	case group.GroupMsg:
		return clsRecvGroupMsg
	case core.SMREnvelope:
		return clsRecvSMR
	case core.Heartbeat:
		return clsRecvHeartbeat
	case core.JoinContact, core.ContactInfo, core.JoinRequest, core.Renounce:
		return clsRecvJoin
	}
	return clsRecvOther
}

// timerClass maps a timer payload (core's unexported timer types) to its
// span class by type name.
func (t *tracer) timerClass(typ uint16) class {
	switch t.types[typ] {
	case "core.tickTimer":
		return clsTimerTick
	case "core.egressFlushTimer":
		return clsTimerEgress
	case "core.smrTimer":
		return clsTimerSMR
	}
	return clsTimerOther
}

// tracedNode wraps a node where the benchmark registers it with
// simnet.Network.Add. It times each callback and passes every argument
// through unchanged.
type tracedNode struct {
	inner actor.Node
	t     *tracer
	id    ids.NodeID
}

func (n *tracedNode) Start(env actor.Env) {
	n.t.begin(clsStart, n.id, 0)
	n.inner.Start(env)
	n.t.end()
}

func (n *tracedNode) Receive(from ids.NodeID, msg actor.Message) {
	cls := recvClass(msg)
	if n.t.phase == phaseWindow {
		switch m := msg.(type) {
		case group.GroupMsg:
			if m.Kind == batchKind {
				if n.t.carriers%carrierStride == 0 && len(n.t.captured) < maxCarriers {
					n.t.captured = append(n.t.captured, m)
				}
				n.t.carriers++
			}
		case core.SMREnvelope:
			n.t.smrBytes += int64(actor.SizeOf(m))
		}
	}
	n.t.begin(cls, n.id, n.t.typeID(msg))
	n.inner.Receive(from, msg)
	n.t.end()
}

func (n *tracedNode) Timer(id actor.TimerID, data any) {
	typ := n.t.typeID(data)
	n.t.begin(n.t.timerClass(typ), n.id, typ)
	n.inner.Timer(id, data)
	n.t.end()
}

func (n *tracedNode) Stop() { n.inner.Stop() }

// tracedScheme times signature verification and hands out timed signers.
type tracedScheme struct {
	crypto.Scheme
	t *tracer
}

func (s tracedScheme) NewSigner(seed []byte) crypto.Signer {
	return tracedSigner{Signer: s.Scheme.NewSigner(seed), t: s.t}
}

func (s tracedScheme) Verify(pub, msg, sig []byte) bool {
	s.t.begin(clsVerify, 0, 0)
	ok := s.Scheme.Verify(pub, msg, sig)
	s.t.end()
	if !ok {
		s.t.verifyFailed[s.t.phase]++
	}
	return ok
}

type tracedSigner struct {
	crypto.Signer
	t *tracer
}

func (s tracedSigner) Sign(msg []byte) []byte {
	s.t.begin(clsSign, 0, 0)
	sig := s.Signer.Sign(msg)
	s.t.end()
	return sig
}

// replayUnpack decodes every captured carrier with group.UnpackBatch and
// returns items per carrier, the digest-only share of items, and decode
// nanoseconds per item (best of three passes).
func (t *tracer) replayUnpack() (itemsPerCarrier, digestOnlyShare, nsPerItem float64) {
	if len(t.captured) == 0 {
		return 0, 0, 0
	}
	var items, digestOnly int
	for _, m := range t.captured {
		inner, err := group.UnpackBatch(m)
		if err != nil {
			continue
		}
		items += len(inner)
		for _, it := range inner {
			if it.Payload == nil {
				digestOnly++
			}
		}
	}
	if items == 0 {
		return 0, 0, 0
	}
	best := time.Duration(1<<63 - 1)
	for pass := 0; pass < 3; pass++ {
		start := time.Now()
		for _, m := range t.captured {
			_, _ = group.UnpackBatch(m) // decode cost only; errors counted above
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return float64(items) / float64(len(t.captured)),
		float64(digestOnly) / float64(items),
		float64(best.Nanoseconds()) / float64(items)
}

// writeSpans writes the span log as gzip'd JSON lines.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	phases := [numPhases]string{"grow", "window"}
	for _, s := range t.spans {
		rec := struct {
			Name    string `json:"name"`
			Phase   string `json:"phase"`
			StartNS int64  `json:"start_ns"`
			EndNS   int64  `json:"end_ns"`
			Parent  int32  `json:"parent"`
			Node    uint32 `json:"node"`
			Type    string `json:"type,omitempty"`
		}{classNames[s.Class], phases[s.Phase], s.Start, s.End, s.Parent, s.Node, t.types[s.Type]}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	return nil
}
