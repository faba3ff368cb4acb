package group

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"atum/internal/actor"
	"atum/internal/crypto"
	"atum/internal/ids"
)

func comp(gid ids.GroupID, epoch uint64, members ...uint64) Composition {
	c := Composition{GroupID: gid, Epoch: epoch}
	for _, m := range members {
		c.Members = append(c.Members, ids.Identity{ID: ids.NodeID(m), Addr: fmt.Sprintf("h:%d", m), PubKey: []byte{byte(m)}})
	}
	ids.SortIdentities(c.Members)
	return c
}

func TestCompositionBasics(t *testing.T) {
	c := comp(5, 2, 1, 2, 3, 4)
	if c.N() != 4 || c.Majority() != 3 {
		t.Errorf("N=%d Majority=%d, want 4 and 3", c.N(), c.Majority())
	}
	if !c.Contains(3) || c.Contains(9) {
		t.Error("Contains wrong")
	}
	if c.Index(2) != 1 {
		t.Errorf("Index(2) = %d, want 1", c.Index(2))
	}
	if c.IsZero() {
		t.Error("non-zero composition reported zero")
	}
	if !(Composition{}).IsZero() {
		t.Error("zero composition not reported zero")
	}
}

func TestCompositionDigestCanonical(t *testing.T) {
	a := comp(1, 1, 3, 1, 2)
	b := comp(1, 1, 2, 3, 1)
	if a.Digest() != b.Digest() {
		t.Error("digest must not depend on member insertion order")
	}
	c := comp(1, 2, 1, 2, 3)
	if a.Digest() == c.Digest() {
		t.Error("digest must depend on epoch")
	}
	if !a.Equal(b) {
		t.Error("Equal should hold for same members")
	}
}

func TestCompositionWireRoundTrip(t *testing.T) {
	a := comp(7, 3, 10, 20, 30)
	bytes := encodeComp(a)
	var b Composition
	decodeComp(bytes, &b)
	if !a.Equal(b) {
		t.Fatalf("round trip mismatch: %+v vs %+v", a, b)
	}
}

func TestCompositionCloneIsDeep(t *testing.T) {
	a := comp(1, 1, 1, 2)
	b := a.Clone()
	b.Members[0].PubKey[0] = 99
	if a.Members[0].PubKey[0] == 99 {
		t.Error("Clone did not deep-copy")
	}
}

// --- group message send/receive ---

type sentRec struct {
	to  ids.NodeID
	msg GroupMsg
}

func collectSends() (*[]sentRec, SendFn) {
	var recs []sentRec
	p := &recs
	return p, func(to ids.NodeID, msg actor.Message) {
		*p = append(*p, sentRec{to: to, msg: msg.(GroupMsg)})
	}
}

func TestSendDigestOptimization(t *testing.T) {
	src := comp(1, 1, 1, 2, 3, 4, 5) // majority = 3
	dst := comp(2, 1, 10, 11, 12)
	payload := []byte("data")
	msgID := crypto.Hash([]byte("m1"))
	rng := rand.New(rand.NewSource(1))

	fullSenders := 0
	for _, m := range src.Members {
		recs, send := collectSends()
		Send(send, rng, src, m.ID, dst, 1, msgID, payload)
		if len(*recs) != dst.N() {
			t.Fatalf("sent %d copies, want %d", len(*recs), dst.N())
		}
		if (*recs)[0].msg.Payload != nil {
			fullSenders++
		}
		for _, r := range *recs {
			if r.msg.PayloadDigest != crypto.Hash(payload) {
				t.Error("wrong payload digest")
			}
		}
	}
	if fullSenders != src.Majority() {
		t.Errorf("%d members sent full payloads, want exactly majority %d", fullSenders, src.Majority())
	}
}

func TestInboxAcceptsAtMajority(t *testing.T) {
	src := comp(1, 1, 1, 2, 3, 4, 5)
	known := map[Key]Composition{src.Key(): src}
	ib := NewInbox(func(k Key) (Composition, bool) { c, ok := known[k]; return c, ok })

	payload := []byte("hello")
	mk := func(full bool) GroupMsg {
		m := GroupMsg{SrcGroup: 1, SrcEpoch: 1, Kind: 2,
			MsgID: crypto.Hash([]byte("id")), PayloadDigest: crypto.Hash(payload)}
		if full {
			m.Payload = payload
		}
		return m
	}
	if _, ok := ib.Observe(0, 1, mk(true)); ok {
		t.Fatal("accepted after 1 vote")
	}
	if _, ok := ib.Observe(0, 2, mk(false)); ok {
		t.Fatal("accepted after 2 votes")
	}
	acc, ok := ib.Observe(time.Second, 3, mk(false))
	if !ok {
		t.Fatal("not accepted at majority")
	}
	if string(acc.Payload) != "hello" || acc.Kind != 2 {
		t.Errorf("accepted = %+v", acc)
	}
	// Further copies must not re-accept.
	if _, ok := ib.Observe(2*time.Second, 4, mk(true)); ok {
		t.Error("duplicate acceptance")
	}
}

func TestInboxWaitsForFullPayload(t *testing.T) {
	src := comp(1, 1, 1, 2, 3)
	ib := NewInbox(func(k Key) (Composition, bool) { return src, k == src.Key() })
	payload := []byte("p")
	digestOnly := GroupMsg{SrcGroup: 1, SrcEpoch: 1, MsgID: crypto.Hash([]byte("x")), PayloadDigest: crypto.Hash(payload)}
	if _, ok := ib.Observe(0, 1, digestOnly); ok {
		t.Fatal("accepted without payload")
	}
	if _, ok := ib.Observe(0, 2, digestOnly); ok {
		t.Fatal("accepted without payload at majority votes")
	}
	full := digestOnly
	full.Payload = payload
	acc, ok := ib.Observe(0, 3, full)
	if !ok || string(acc.Payload) != "p" {
		t.Fatal("full payload arrival should complete acceptance")
	}
}

func TestInboxNonMemberVotesIgnored(t *testing.T) {
	src := comp(1, 1, 1, 2, 3)
	ib := NewInbox(func(k Key) (Composition, bool) { return src, k == src.Key() })
	payload := []byte("p")
	m := GroupMsg{SrcGroup: 1, SrcEpoch: 1, MsgID: crypto.Hash([]byte("x")),
		PayloadDigest: crypto.Hash(payload), Payload: payload}
	if _, ok := ib.Observe(0, 77, m); ok {
		t.Fatal("outsider vote accepted")
	}
	if _, ok := ib.Observe(0, 78, m); ok {
		t.Fatal("outsider votes accepted")
	}
	if _, ok := ib.Observe(0, 1, m); ok {
		t.Fatal("1 member + outsiders accepted")
	}
	if _, ok := ib.Observe(0, 2, m); !ok {
		t.Fatal("2 members (majority of 3) should accept")
	}
}

func TestInboxByzantineCannotFlipVote(t *testing.T) {
	src := comp(1, 1, 1, 2, 3)
	ib := NewInbox(func(k Key) (Composition, bool) { return src, k == src.Key() })
	good := []byte("good")
	evil := []byte("evil")
	msgID := crypto.Hash([]byte("x"))
	// Byzantine member 1 votes evil first, then tries to also vote good.
	ib.Observe(0, 1, GroupMsg{SrcGroup: 1, SrcEpoch: 1, MsgID: msgID, PayloadDigest: crypto.Hash(evil), Payload: evil})
	ib.Observe(0, 1, GroupMsg{SrcGroup: 1, SrcEpoch: 1, MsgID: msgID, PayloadDigest: crypto.Hash(good), Payload: good})
	// One correct vote: good has 1 valid vote (member 2), evil has 1 (member 1).
	if _, ok := ib.Observe(0, 2, GroupMsg{SrcGroup: 1, SrcEpoch: 1, MsgID: msgID, PayloadDigest: crypto.Hash(good), Payload: good}); ok {
		t.Fatal("accepted with one correct vote")
	}
	acc, ok := ib.Observe(0, 3, GroupMsg{SrcGroup: 1, SrcEpoch: 1, MsgID: msgID, PayloadDigest: crypto.Hash(good), Payload: good})
	if !ok || string(acc.Payload) != "good" {
		t.Fatal("majority of correct votes should accept the good payload")
	}
}

func TestInboxCorruptPayloadDropped(t *testing.T) {
	src := comp(1, 1, 1, 2, 3)
	ib := NewInbox(func(k Key) (Composition, bool) { return src, k == src.Key() })
	m := GroupMsg{SrcGroup: 1, SrcEpoch: 1, MsgID: crypto.Hash([]byte("x")),
		PayloadDigest: crypto.Hash([]byte("claimed")), Payload: []byte("actual")}
	if _, ok := ib.Observe(0, 1, m); ok {
		t.Fatal("corrupt copy accepted")
	}
	if ib.Len() != 0 {
		t.Error("corrupt copy should not create entries")
	}
}

func TestInboxUnknownCompositionBuffersAndFlushes(t *testing.T) {
	src := comp(9, 4, 1, 2, 3)
	known := map[Key]Composition{}
	ib := NewInbox(func(k Key) (Composition, bool) { c, ok := known[k]; return c, ok })
	payload := []byte("later")
	m := GroupMsg{SrcGroup: 9, SrcEpoch: 4, MsgID: crypto.Hash([]byte("x")),
		PayloadDigest: crypto.Hash(payload), Payload: payload}
	ib.Observe(0, 1, m)
	ib.Observe(0, 2, m)
	if got := ib.FlushKey(0, src.Key()); len(got) != 0 {
		t.Fatal("flush before composition known should yield nothing")
	}
	known[src.Key()] = src
	got := ib.FlushKey(time.Second, src.Key())
	if len(got) != 1 || string(got[0].Payload) != "later" {
		t.Fatalf("flush = %v, want the buffered message", got)
	}
}

func TestInboxPrune(t *testing.T) {
	src := comp(1, 1, 1, 2, 3)
	ib := NewInbox(func(k Key) (Composition, bool) { return src, k == src.Key() })
	m := GroupMsg{SrcGroup: 1, SrcEpoch: 1, MsgID: crypto.Hash([]byte("x")),
		PayloadDigest: crypto.Hash([]byte("p")), Payload: []byte("p")}
	ib.Observe(time.Second, 1, m)
	if ib.Len() != 1 {
		t.Fatal("entry not created")
	}
	ib.Prune(500 * time.Millisecond)
	if ib.Len() != 1 {
		t.Fatal("entry pruned too early")
	}
	ib.Prune(2 * time.Second)
	if ib.Len() != 0 {
		t.Fatal("entry not pruned")
	}
}

func TestInboxFloodBounded(t *testing.T) {
	src := comp(1, 1, 1, 2, 3)
	ib := NewInbox(func(k Key) (Composition, bool) { return src, k == src.Key() })
	for i := 0; i < 3*maxEntriesPerKey; i++ {
		m := GroupMsg{SrcGroup: 1, SrcEpoch: 1,
			MsgID:         crypto.Hash([]byte(fmt.Sprintf("flood-%d", i))),
			PayloadDigest: crypto.Hash(nil)}
		ib.Observe(0, 1, m)
	}
	if ib.Len() > maxEntriesPerKey {
		t.Errorf("inbox grew to %d entries, cap is %d", ib.Len(), maxEntriesPerKey)
	}
}

// helpers for wire round trip

func encodeComp(c Composition) []byte {
	return compEncode(c)
}

func decodeComp(b []byte, c *Composition) {
	compDecode(b, c)
}

// --- inbox: full copies derive their own digest ---

// inboxFor returns an inbox that knows exactly the given composition.
func inboxFor(src Composition) *Inbox {
	return NewInbox(func(k Key) (Composition, bool) { return src, k == src.Key() })
}

// batchCopy returns the inner item a batch frame from a full sender yields
// for one payload: a full copy with no claimed digest.
func batchCopy(t *testing.T, src, dst Composition, self ids.NodeID, msgID crypto.Digest, payload []byte) GroupMsg {
	t.Helper()
	var sent []GroupMsg
	send := func(_ ids.NodeID, m actor.Message) { sent = append(sent, m.(GroupMsg)) }
	items := []BatchItem{{Kind: 2, MsgID: msgID, Payload: payload}, {Kind: 2, MsgID: crypto.Hash([]byte("pad")), Payload: []byte("pad")}}
	SendBatch(send, rand.New(rand.NewSource(1)), src, self, dst, Kind(99), crypto.Hash([]byte("carrier")), items)
	inner, err := UnpackBatch(sent[0])
	if err != nil {
		t.Fatalf("unpack: %v", err)
	}
	if inner[0].Payload == nil || !inner[0].PayloadDigest.IsZero() {
		t.Fatal("a full sender's batch item should be a full copy with no claimed digest")
	}
	return inner[0]
}

// TestInboxDigestReuseRequiresEqualBytes: a held, verified payload lends its
// digest only to a copy with identical bytes. A copy with different bytes
// that claims the held digest is dropped — it neither votes nor stores its
// payload — and the sender's later honest copy still counts.
func TestInboxDigestReuseRequiresEqualBytes(t *testing.T) {
	src := comp(1, 1, 1, 2, 3)
	ib := inboxFor(src)
	good, evil := []byte("good-payload"), []byte("evil-payload")
	msgID := crypto.Hash([]byte("x"))
	mk := func(p []byte) GroupMsg {
		return GroupMsg{SrcGroup: 1, SrcEpoch: 1, MsgID: msgID, PayloadDigest: crypto.Hash(good), Payload: p}
	}
	if _, ok := ib.Observe(0, 1, mk(good)); ok {
		t.Fatal("accepted after one vote")
	}
	if _, ok := ib.Observe(0, 2, mk(evil)); ok {
		t.Fatal("a copy whose bytes disagree with the held digest counted as a vote")
	}
	acc, ok := ib.Observe(0, 2, mk(good))
	if !ok || string(acc.Payload) != "good-payload" {
		t.Fatalf("the dropped copy must not have used up member 2's vote: ok=%v acc=%+v", ok, acc)
	}
}

// TestInboxBatchFullCopyVotesForItsBytes: a full copy from a batch frame
// carries no claimed digest, so its vote is the digest of its own bytes. A
// Byzantine sender cannot attach its vote to the honest digest while
// shipping other bytes.
func TestInboxBatchFullCopyVotesForItsBytes(t *testing.T) {
	src := comp(1, 1, 1, 2, 3)
	dst := comp(2, 1, 10)
	good, evil := []byte("good-payload"), []byte("evil-payload")
	msgID := crypto.Hash([]byte("x"))
	digestOnly := func(p []byte) GroupMsg {
		return GroupMsg{SrcGroup: 1, SrcEpoch: 1, Kind: 2, MsgID: msgID, PayloadDigest: crypto.Hash(p)}
	}

	// Member 1 ships evil bytes; its vote goes to Hash(evil), so a correct
	// digest-only vote for good does not complete a majority with it.
	ib := inboxFor(src)
	ib.Observe(0, 1, batchCopy(t, src, dst, 1, msgID, evil))
	if _, ok := ib.Observe(0, 3, digestOnly(good)); ok {
		t.Fatal("Byzantine bytes counted towards the honest digest")
	}
	acc, ok := ib.Observe(0, 2, batchCopy(t, src, dst, 2, msgID, good))
	if !ok || string(acc.Payload) != "good-payload" {
		t.Fatalf("two correct votes for good should accept it: ok=%v acc=%+v", ok, acc)
	}

	// The same copy does complete a majority for the digest of its bytes.
	ib = inboxFor(src)
	ib.Observe(0, 1, batchCopy(t, src, dst, 1, msgID, evil))
	acc, ok = ib.Observe(0, 3, digestOnly(evil))
	if !ok || string(acc.Payload) != "evil-payload" {
		t.Fatalf("the batch copy should vote for the digest of its own bytes: ok=%v acc=%+v", ok, acc)
	}
}

// TestInboxFirstVotePerSenderWinsForBatchCopies: once a sender voted, its
// later copies — full or digest-only, claimed or derived — add no vote.
func TestInboxFirstVotePerSenderWinsForBatchCopies(t *testing.T) {
	src := comp(1, 1, 1, 2, 3, 4, 5)
	dst := comp(2, 1, 10)
	good, evil := []byte("good-payload"), []byte("evil-payload")
	msgID := crypto.Hash([]byte("x"))
	digestOnly := GroupMsg{SrcGroup: 1, SrcEpoch: 1, MsgID: msgID, PayloadDigest: crypto.Hash(good)}
	ib := inboxFor(src)
	ib.Observe(0, 1, batchCopy(t, src, dst, 1, msgID, evil))
	for i := 0; i < 3; i++ {
		ib.Observe(0, 1, batchCopy(t, src, dst, 1, msgID, good))
		ib.Observe(0, 1, digestOnly)
	}
	if _, ok := ib.Observe(0, 2, batchCopy(t, src, dst, 2, msgID, good)); ok {
		t.Fatal("accepted with one vote for good")
	}
	if _, ok := ib.Observe(0, 3, batchCopy(t, src, dst, 3, msgID, good)); ok {
		t.Fatal("member 1's repeated copies were counted: accepted with two votes for good")
	}
	acc, ok := ib.Observe(0, 4, digestOnly)
	if !ok || string(acc.Payload) != "good-payload" {
		t.Fatalf("three votes for good (majority of 5) should accept: ok=%v acc=%+v", ok, acc)
	}
}

// TestInboxAttachmentsFromWinningMembersOnly: the accepted message carries
// the attachments of composition members that voted for the winning digest
// — not of outsiders, not of members that voted for another digest.
func TestInboxAttachmentsFromWinningMembersOnly(t *testing.T) {
	src := comp(1, 1, 1, 2, 3, 4, 5)
	ib := inboxFor(src)
	good, evil := []byte("good"), []byte("evil")
	msgID := crypto.Hash([]byte("x"))
	mk := func(p []byte, full bool, attach string) GroupMsg {
		m := GroupMsg{SrcGroup: 1, SrcEpoch: 1, MsgID: msgID, PayloadDigest: crypto.Hash(p)}
		if full {
			m.Payload = p
		}
		if attach != "" {
			m.Attach = []byte(attach)
		}
		return m
	}
	ib.Observe(0, 1, mk(good, true, "a1"))
	ib.Observe(0, 77, mk(good, true, "outsider"))
	ib.Observe(0, 4, mk(evil, true, "a4"))
	ib.Observe(0, 2, mk(good, false, "a2"))
	acc, ok := ib.Observe(0, 3, mk(good, false, ""))
	if !ok {
		t.Fatal("three member votes for good should accept")
	}
	if len(acc.Attachments) != 2 || string(acc.Attachments[1]) != "a1" || string(acc.Attachments[2]) != "a2" {
		t.Fatalf("attachments = %q, want exactly members 1 and 2", acc.Attachments)
	}
}

// TestInboxStragglerToAcceptedEntryDoesNotAllocate: once accepted, an entry
// is a tombstone, and further copies cost one lookup — no allocation, and
// no re-acceptance.
func TestInboxStragglerToAcceptedEntryDoesNotAllocate(t *testing.T) {
	src := comp(1, 1, 1, 2, 3)
	ib := inboxFor(src)
	payload := bytes.Repeat([]byte("p"), 128)
	full := GroupMsg{SrcGroup: 1, SrcEpoch: 1, MsgID: crypto.Hash([]byte("x")), Payload: payload}
	digestOnly := GroupMsg{SrcGroup: 1, SrcEpoch: 1, MsgID: full.MsgID, PayloadDigest: crypto.Hash(payload)}
	ib.Observe(0, 1, full)
	if _, ok := ib.Observe(0, 2, full); !ok {
		t.Fatal("not accepted at majority")
	}
	reaccepted := false
	allocs := testing.AllocsPerRun(100, func() {
		_, ok1 := ib.Observe(0, 3, full)
		_, ok2 := ib.Observe(0, 3, digestOnly)
		reaccepted = reaccepted || ok1 || ok2
	})
	if reaccepted {
		t.Fatal("straggler re-accepted an accepted message")
	}
	if allocs != 0 {
		t.Errorf("stragglers to an accepted entry: %.1f allocs/op, want 0", allocs)
	}
	if ib.Len() != 1 {
		t.Errorf("tombstone must stay until pruned, Len = %d", ib.Len())
	}
}

// TestInboxFlushKeyAcceptsBufferedBatchVotes: votes that arrive while the
// source composition is unknown — including full batch copies whose digest
// the inbox derived — are accepted by FlushKey once it becomes known, once.
func TestInboxFlushKeyAcceptsBufferedBatchVotes(t *testing.T) {
	src := comp(9, 4, 1, 2, 3)
	dst := comp(2, 1, 10)
	known := false
	ib := NewInbox(func(k Key) (Composition, bool) { return src, known && k == src.Key() })
	payload := []byte("buffered")
	msgID := crypto.Hash([]byte("x"))
	if _, ok := ib.Observe(0, 1, batchCopy(t, src, dst, 1, msgID, payload)); ok {
		t.Fatal("accepted with unknown composition")
	}
	if _, ok := ib.Observe(0, 3, GroupMsg{SrcGroup: 9, SrcEpoch: 4, MsgID: msgID, PayloadDigest: crypto.Hash(payload)}); ok {
		t.Fatal("accepted with unknown composition")
	}
	known = true
	got := ib.FlushKey(time.Second, src.Key())
	if len(got) != 1 || string(got[0].Payload) != "buffered" || got[0].MsgID != msgID || got[0].At != time.Second {
		t.Fatalf("flush = %+v, want the buffered message", got)
	}
	if again := ib.FlushKey(2*time.Second, src.Key()); len(again) != 0 {
		t.Fatalf("second flush re-accepted: %+v", again)
	}
}

// BenchmarkInboxObserve measures the receive path of one logical message.
// "accept": 8 senders, 5 full batch copies (no claimed digest) and 3
// digest-only copies, drive a fresh entry to acceptance; arrival order
// interleaves full and digest-only copies as randomized sends do.
// "straggler": one more copy reaches an accepted entry. The batch-bench CI
// job gates both allocs/op (bench/inbox_allocs_baseline.json).
func BenchmarkInboxObserve(b *testing.B) {
	src := comp(1, 1, 1, 2, 3, 4, 5, 6, 7, 8)
	payload := bytes.Repeat([]byte("b"), 128)
	digest := crypto.Hash(payload)
	order := []ids.NodeID{6, 1, 2, 7, 3, 8, 4, 5} // members 1-5 send full copies
	copyFrom := func(from ids.NodeID, msgID crypto.Digest) GroupMsg {
		m := GroupMsg{SrcGroup: 1, SrcEpoch: 1, Kind: 2, MsgID: msgID}
		if src.Index(from) < src.Majority() {
			m.Payload = payload
		} else {
			m.PayloadDigest = digest
		}
		return m
	}
	b.Run("accept", func(b *testing.B) {
		ib := inboxFor(src)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var msgID crypto.Digest
			binary.BigEndian.PutUint64(msgID[:], uint64(i))
			now := time.Duration(i)
			accepted := 0
			for _, from := range order {
				if _, ok := ib.Observe(now, from, copyFrom(from, msgID)); ok {
					accepted++
				}
			}
			if accepted != 1 {
				b.Fatalf("message %d accepted %d times", i, accepted)
			}
			if i%256 == 255 {
				ib.Prune(now - 256) // stay well below maxEntriesPerKey
			}
		}
	})
	b.Run("straggler", func(b *testing.B) {
		ib := inboxFor(src)
		var msgID crypto.Digest
		for _, from := range order {
			ib.Observe(0, from, copyFrom(from, msgID))
		}
		straggler := copyFrom(1, msgID)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := ib.Observe(0, 1, straggler); ok {
				b.Fatal("straggler re-accepted")
			}
		}
	})
}
