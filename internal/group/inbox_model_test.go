package group

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"atum/internal/crypto"
	"atum/internal/ids"
)

// modelInbox is the reference the differential test holds Inbox to: the
// acceptance rule written as plainly as possible, with one map entry per
// (source, MsgID), a fresh hash for every full copy, and no recycling.
type modelInbox struct {
	lookup  func(Key) (Composition, bool)
	entries map[modelKey]*modelEntry
	// Event counts, so the test can check its sequences reach every case.
	accepted, flushed, mismatched, overflowed int
}

type modelKey struct {
	src   Key
	msgID crypto.Digest
}

type modelEntry struct {
	firstAt  time.Duration
	accepted bool
	kind     Kind
	votes    []vote
	payloads []heldCopy
}

func newModelInbox(lookup func(Key) (Composition, bool)) *modelInbox {
	return &modelInbox{lookup: lookup, entries: make(map[modelKey]*modelEntry)}
}

func (m *modelInbox) observe(now time.Duration, from ids.NodeID, msg GroupMsg) (Accepted, bool) {
	k := modelKey{src: Key{GroupID: msg.SrcGroup, Epoch: msg.SrcEpoch}, msgID: msg.MsgID}
	e := m.entries[k]
	if e != nil && e.accepted {
		return Accepted{}, false
	}
	digest := msg.PayloadDigest
	if msg.Payload != nil {
		d := crypto.Hash(msg.Payload)
		if !digest.IsZero() && d != digest {
			m.mismatched++
			return Accepted{}, false
		}
		digest = d
	}
	if e == nil {
		perSrc := 0
		for other := range m.entries {
			if other.src == k.src {
				perSrc++
			}
		}
		if perSrc >= maxEntriesPerKey {
			m.overflowed++
			return Accepted{}, false
		}
		e = &modelEntry{firstAt: now, kind: msg.Kind}
		m.entries[k] = e
	}
	voted := false
	for _, v := range e.votes {
		voted = voted || v.from == from
	}
	if !voted {
		e.votes = append(e.votes, vote{from: from, digest: digest, attach: msg.Attach})
	}
	if msg.Payload != nil {
		held := false
		for _, h := range e.payloads {
			held = held || h.digest == digest
		}
		if !held {
			e.payloads = append(e.payloads, heldCopy{digest: digest, payload: msg.Payload})
		}
	}
	return m.check(now, k, e)
}

func (m *modelInbox) check(now time.Duration, k modelKey, e *modelEntry) (Accepted, bool) {
	comp, known := m.lookup(k.src)
	if !known {
		return Accepted{}, false
	}
	for _, h := range e.payloads {
		var winners []vote
		for _, v := range e.votes {
			if v.digest == h.digest && comp.Contains(v.from) {
				winners = append(winners, v)
			}
		}
		if len(winners) < comp.Majority() {
			continue
		}
		var attachments map[ids.NodeID][]byte
		for _, v := range winners {
			if v.attach != nil {
				if attachments == nil {
					attachments = make(map[ids.NodeID][]byte)
				}
				attachments[v.from] = v.attach
			}
		}
		e.accepted, e.votes, e.payloads = true, nil, nil
		m.accepted++
		return Accepted{Src: k.src, Kind: e.kind, MsgID: k.msgID, Payload: h.payload,
			Attachments: attachments, At: now}, true
	}
	return Accepted{}, false
}

func (m *modelInbox) flushKey(now time.Duration, src Key) []Accepted {
	var out []Accepted
	for k, e := range m.entries {
		if k.src == src && !e.accepted {
			if acc, ok := m.check(now, k, e); ok {
				m.flushed++
				out = append(out, acc)
			}
		}
	}
	return out
}

func (m *modelInbox) prune(before time.Duration) {
	for k, e := range m.entries {
		if e.firstAt < before {
			delete(m.entries, k)
		}
	}
}

// sortAccepted orders FlushKey results, which both inboxes return in map
// order, by MsgID.
func sortAccepted(a []Accepted) {
	sort.Slice(a, func(i, j int) bool { return bytes.Compare(a[i].MsgID[:], a[j].MsgID[:]) < 0 })
}

// TestInboxMatchesReferenceModel drives Inbox and modelInbox with the same
// random sequences of Observe, FlushKey and Prune and requires identical
// results and Len after every step. The sequences mix full and
// digest-only copies, copies whose claimed digest disagrees with their
// bytes, outsiders, Byzantine members that vote twice with different
// payloads, attachments, a source composition that is unknown until a
// FlushKey announces it, and a flooding source that overflows
// maxEntriesPerKey.
func TestInboxMatchesReferenceModel(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			m := runInboxDifferential(t, rand.New(rand.NewSource(seed)), 8000)
			t.Logf("accepted %d, by FlushKey %d, mismatched %d, overflowed %d", m.accepted, m.flushed, m.mismatched, m.overflowed)
			if m.accepted == 0 || m.flushed == 0 || m.mismatched == 0 || m.overflowed == 0 {
				t.Fatal("the sequence missed a case")
			}
		})
	}
}

func runInboxDifferential(t *testing.T, rng *rand.Rand, steps int) *modelInbox {
	comps := []Composition{
		comp(1, 1, 1, 2, 3),
		comp(2, 4, 1, 2, 3, 4, 5),
		comp(3, 2, 6, 7, 8, 9),     // unknown until announced
		comp(4, 1, 10, 11, 12, 13), // the flooding source
	}
	announced := false
	lookup := func(k Key) (Composition, bool) {
		for _, c := range comps {
			if c.Key() == k {
				return c, c.GroupID != 3 || announced
			}
		}
		return Composition{}, false
	}
	ib, model := NewInbox(lookup), newModelInbox(lookup)
	payloads := [][]byte{[]byte("good"), []byte("evil"), []byte("other"), bytes.Repeat([]byte("long"), 40)}
	now := time.Duration(0)
	for step := 0; step < steps; step++ {
		now += time.Duration(rng.Intn(3)) * time.Millisecond
		switch r := rng.Intn(100); {
		case r < 1:
			before := now - time.Duration(2000+rng.Intn(2000))*time.Millisecond
			ib.Prune(before)
			model.prune(before)
		case r < 3 || step == steps/2:
			// The unknown composition is announced half-way through.
			announced = step >= steps/2
			src := comps[rng.Intn(len(comps))].Key()
			if step == steps/2 {
				src = comps[2].Key()
			}
			got, want := ib.FlushKey(now, src), model.flushKey(now, src)
			sortAccepted(got)
			sortAccepted(want)
			if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("step %d: FlushKey(%v) = %+v, model %+v", step, src, got, want)
			}
		default:
			c := comps[rng.Intn(len(comps))]
			if rng.Intn(2) == 0 {
				c = comps[3]
			}
			var msgID crypto.Digest
			if c.GroupID == 4 {
				msgID = crypto.HashUint64(crypto.Digest{4}, uint64(rng.Intn(8*maxEntriesPerKey)))
			} else {
				msgID = crypto.HashUint64(crypto.Digest{byte(c.GroupID)}, uint64(rng.Intn(24)))
			}
			from := c.Members[rng.Intn(c.N())].ID
			if rng.Intn(10) == 0 {
				from = ids.NodeID(100 + rng.Intn(3)) // outsider
			}
			// Mostly the honest payload; members 1 and 6 are Byzantine and
			// ship a different payload on every copy.
			p := payloads[0]
			if from == 1 || from == 6 || rng.Intn(8) == 0 {
				p = payloads[rng.Intn(len(payloads))]
			}
			msg := GroupMsg{SrcGroup: c.GroupID, SrcEpoch: c.Epoch, Kind: Kind(1 + rng.Intn(2)), MsgID: msgID}
			switch rng.Intn(4) {
			case 0: // digest-only copy
				msg.PayloadDigest = crypto.Hash(p)
			case 1: // full copy with a claimed digest, sometimes a wrong one
				msg.Payload = p
				msg.PayloadDigest = crypto.Hash(p)
				if rng.Intn(4) == 0 {
					msg.PayloadDigest = crypto.Hash(payloads[rng.Intn(len(payloads))])
				}
			default: // batch-style full copy: no claimed digest
				msg.Payload = p
			}
			if rng.Intn(3) == 0 {
				msg.Attach = []byte(fmt.Sprintf("att-%d-%d", from, rng.Intn(2)))
			}
			got, gotOK := ib.Observe(now, from, msg)
			want, wantOK := model.observe(now, from, msg)
			if gotOK != wantOK || !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: Observe(%d, %x) = %v %+v, model %v %+v", step, from, msgID[:4], gotOK, got, wantOK, want)
			}
		}
		if ib.Len() != len(model.entries) {
			t.Fatalf("step %d: Len = %d, model %d", step, ib.Len(), len(model.entries))
		}
	}
	return model
}

// TestInboxPruneShrinksFloodedSlab: a flood of entries that never reach a
// majority grows the vote-table slab; once they are pruned, the slab
// shrinks back to the few entries still live, and those keep working.
func TestInboxPruneShrinksFloodedSlab(t *testing.T) {
	srcs := []Composition{comp(1, 1, 1, 2, 3), comp(2, 1, 4, 5, 6), comp(3, 1, 7, 8, 9)}
	ib := NewInbox(func(k Key) (Composition, bool) {
		for _, c := range srcs {
			if c.Key() == k {
				return c, true
			}
		}
		return Composition{}, false
	})
	vote := func(at time.Duration, c Composition, from ids.NodeID, i int) (Accepted, bool) {
		return ib.Observe(at, from, GroupMsg{SrcGroup: c.GroupID, SrcEpoch: c.Epoch,
			MsgID: crypto.HashUint64(crypto.Digest{}, uint64(i)), Payload: []byte("p")})
	}
	for _, c := range srcs {
		for i := 0; i < maxEntriesPerKey; i++ {
			vote(0, c, c.Members[0].ID, i)
		}
	}
	if len(ib.slab) < len(srcs)*maxEntriesPerKey {
		t.Fatalf("flood left %d vote tables, want %d", len(ib.slab), len(srcs)*maxEntriesPerKey)
	}
	// Survivors: a few entries observed after the prune deadline. Their
	// composition budget is full, so they go to a fresh source key.
	survivor := comp(9, 1, 1, 2, 3)
	srcs = append(srcs, survivor)
	for i := 0; i < 5; i++ {
		vote(time.Minute, survivor, 1, i)
	}
	ib.Prune(time.Second)
	if ib.Len() != 5 {
		t.Fatalf("Len after prune = %d, want the 5 survivors", ib.Len())
	}
	if len(ib.slab) > minSlabShrink || cap(ib.slab) > minSlabShrink {
		t.Fatalf("slab len %d cap %d after prune, want at most %d", len(ib.slab), cap(ib.slab), minSlabShrink)
	}
	for i := 0; i < 5; i++ {
		acc, ok := vote(time.Minute, survivor, 2, i)
		if !ok || acc.MsgID != crypto.HashUint64(crypto.Digest{}, uint64(i)) || string(acc.Payload) != "p" {
			t.Fatalf("survivor %d not accepted after compaction: ok=%v acc=%+v", i, ok, acc)
		}
	}
}
