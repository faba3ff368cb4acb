package group

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"atum/internal/actor"
	"atum/internal/crypto"
	"atum/internal/ids"
	"atum/internal/wire"
)

func batchItems(payloads ...string) []BatchItem {
	items := make([]BatchItem, 0, len(payloads))
	for i, p := range payloads {
		items = append(items, BatchItem{
			Kind:    Kind(1),
			MsgID:   crypto.HashUint64(crypto.Hash([]byte("item")), uint64(i)),
			Payload: []byte(p),
		})
	}
	return items
}

// encodeBatchFrameV1Test reproduces the removed v1 writer byte-for-byte: a
// flat item list, every item paying a kind byte, a 32-byte MsgID, and a
// full/digest flag. The production writer is gone; the test copy keeps the
// explicit-rejection test honest (a real v1 frame, not a guess at one) and
// keeps the size-comparison pins measuring v2 against what it replaced.
func encodeBatchFrameV1Test(items []BatchItem, full bool) []byte {
	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	e.ListLen(len(items))
	for _, it := range items {
		e.Byte(byte(it.Kind))
		e.Bytes32(it.MsgID)
		e.Bool(full)
		if full {
			e.VarBytes(it.Payload)
		} else {
			e.Bytes32(crypto.Hash(it.Payload))
		}
	}
	return e.Detach()
}

func TestBatchFrameRoundTripFull(t *testing.T) {
	items := batchItems("alpha", "", "gamma-gamma")
	frame := encodeBatchFrameV2(items, true)
	got, err := decodeBatchFrame(frame)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != len(items) {
		t.Fatalf("items = %d, want %d", len(got), len(items))
	}
	for i, it := range got {
		if it.kind != items[i].Kind || it.msgID != items[i].MsgID {
			t.Errorf("item %d header mismatch", i)
		}
		if it.payload == nil || !bytes.Equal(it.payload, items[i].Payload) {
			t.Errorf("item %d payload = %q, want %q", i, it.payload, items[i].Payload)
		}
		// A full item with its MsgID on the wire carries no digest: the
		// decoder must not hash it (Inbox.Observe derives it if needed).
		if !it.digest.IsZero() {
			t.Errorf("item %d: decoder hashed a full non-derived payload", i)
		}
	}
}

func TestBatchFrameRoundTripDigestOnly(t *testing.T) {
	items := batchItems("alpha", "beta")
	frame := encodeBatchFrameV2(items, false)
	got, err := decodeBatchFrame(frame)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	for i, it := range got {
		if it.payload != nil {
			t.Errorf("digest-only item %d carries a payload", i)
		}
		if it.digest != crypto.Hash(items[i].Payload) {
			t.Errorf("item %d digest mismatch", i)
		}
		if it.msgID != items[i].MsgID {
			t.Errorf("item %d MsgID mismatch", i)
		}
	}
}

// TestBatchFrameRejectsLegacyV1 pins the post-migration contract: a
// well-formed v1 frame (0x00 first byte) is recognized and rejected with
// the explicit legacy error, not decoded and not mistaken for corruption.
func TestBatchFrameRejectsLegacyV1(t *testing.T) {
	for _, full := range []bool{true, false} {
		frame := encodeBatchFrameV1Test(batchItems("alpha", "beta"), full)
		if frame[0] != 0x00 {
			t.Fatalf("v1 frame must start 0x00, got %#x", frame[0])
		}
		_, err := decodeBatchFrame(frame)
		if err == nil {
			t.Fatalf("full=%v: v1 frame accepted after writer removal", full)
		}
		if !bytes.Contains([]byte(err.Error()), []byte("legacy v1")) {
			t.Errorf("full=%v: rejection %q does not name the legacy v1 layout", full, err)
		}
	}
}

// TestBatchFrameV2MixedKindsRoundTrip exercises the run-length kind groups:
// interleaved kinds produce several runs, repeated kinds collapse into one.
func TestBatchFrameV2MixedKindsRoundTrip(t *testing.T) {
	var items []BatchItem
	kinds := []Kind{3, 3, 3, 7, 1, 1, 9}
	for i, k := range kinds {
		items = append(items, BatchItem{
			Kind:    k,
			MsgID:   crypto.HashUint64(crypto.Hash([]byte("mixed")), uint64(i)),
			Payload: []byte(fmt.Sprintf("payload-%d", i)),
		})
	}
	for _, full := range []bool{true, false} {
		frame := encodeBatchFrameV2(items, full)
		got, err := decodeBatchFrame(frame)
		if err != nil {
			t.Fatalf("full=%v decode: %v", full, err)
		}
		for i, it := range got {
			if it.kind != items[i].Kind {
				t.Errorf("full=%v item %d kind = %d, want %d", full, i, it.kind, items[i].Kind)
			}
			if it.msgID != items[i].MsgID {
				t.Errorf("full=%v item %d MsgID mismatch", full, i)
			}
		}
	}
	// A single-kind frame spends one run header; v1 spent a kind byte per
	// item. 64 same-kind items must come out smaller in v2.
	uniform := batchItems(make([]string, 64)...)
	for i := range uniform {
		uniform[i].Payload = []byte(fmt.Sprintf("u-%02d-%s", i, string(rune('a'+i%26))))
	}
	v1 := encodeBatchFrameV1Test(uniform, true)
	v2 := encodeBatchFrameV2(uniform, true)
	if len(v2) >= len(v1) {
		t.Errorf("uniform-kind v2 frame %dB not smaller than v1 %dB", len(v2), len(v1))
	}
}

// TestBatchFrameV2DerivedIDDropsMsgID pins the raw-item compact form: items
// whose MsgID is the payload digest omit the 32-byte MsgID on the wire and
// the receiver re-derives it.
func TestBatchFrameV2DerivedIDDropsMsgID(t *testing.T) {
	var plain, derived []BatchItem
	for i := 0; i < 8; i++ {
		p := []byte(fmt.Sprintf("raw-chunk-%d-%s", i, string(make([]byte, 40))))
		plain = append(plain, BatchItem{Kind: 16, MsgID: crypto.Hash(p), Payload: p})
		derived = append(derived, BatchItem{Kind: 16, MsgID: crypto.Hash(p), Payload: p, DerivedID: true})
	}
	fp := encodeBatchFrameV2(plain, true)
	fd := encodeBatchFrameV2(derived, true)
	if want := len(plain) * crypto.DigestSize; len(fp)-len(fd) != want {
		t.Errorf("derived frame saves %d bytes, want %d (one MsgID per item)", len(fp)-len(fd), want)
	}
	got, err := decodeBatchFrame(fd)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	for i, it := range got {
		if it.msgID != derived[i].MsgID {
			t.Errorf("item %d derived MsgID = %x, want %x", i, it.msgID[:4], derived[i].MsgID[:4])
		}
		if !bytes.Equal(it.payload, derived[i].Payload) {
			t.Errorf("item %d payload mismatch", i)
		}
	}
}

// TestBatchFrameV2CompressesSiblingPayloads pins the dictionary scheme on
// its target workload: concurrent sibling payloads that differ only in a
// small field (sequence numbers, IDs) collapse to back-references.
func TestBatchFrameV2CompressesSiblingPayloads(t *testing.T) {
	body := bytes.Repeat([]byte("stream-data."), 24) // 288 shared bytes
	var items []BatchItem
	for i := 0; i < 16; i++ {
		p := append([]byte(fmt.Sprintf("seq=%08d|", i)), body...)
		items = append(items, BatchItem{Kind: 16, MsgID: crypto.Hash(p), Payload: p, DerivedID: true})
	}
	v1 := encodeBatchFrameV1Test(items, true)
	v2 := encodeBatchFrameV2(items, true)
	if len(v2) > len(v1)/3 {
		t.Errorf("sibling payloads: v2 frame %dB, want under a third of v1's %dB", len(v2), len(v1))
	}
	got, err := decodeBatchFrame(v2)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	for i, it := range got {
		if !bytes.Equal(it.payload, items[i].Payload) {
			t.Fatalf("item %d payload corrupted by compression round trip", i)
		}
		if it.digest != crypto.Hash(items[i].Payload) {
			t.Fatalf("item %d digest mismatch", i)
		}
	}
}

// TestBatchFrameV2LiteralPayloadsAliasFrame pins the zero-copy decode path:
// literal payloads are sub-slices of the frame, not copies.
func TestBatchFrameV2LiteralPayloadsAliasFrame(t *testing.T) {
	items := batchItems("alias-check-payload")
	frame := encodeBatchFrameV2(items, true)
	got, err := decodeBatchFrame(frame)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	p := got[0].payload
	// Mutating the frame must show through the payload view.
	idx := bytes.Index(frame, []byte("alias-check-payload"))
	if idx < 0 {
		t.Fatal("literal payload bytes not found in frame")
	}
	frame[idx] ^= 0xFF
	if p[0] == 'a' {
		t.Error("decoded literal payload does not alias the frame")
	}
}

func TestBatchFrameRejectsGarbage(t *testing.T) {
	hostile := [][]byte{
		{0xFF},                               // unknown version byte
		{0x01, 0x00, 0x00, 0x00, 0x01},       // version-byte confusion
		{0x00, 0xFF, 0xFF, 0xFF},             // absurd v1 count, truncated
		{0x00, 0x00, 0x00, 0x00, 0x02, 0x01}, // truncated v1 items
		append(encodeBatchFrameV1Test(batchItems("x"), true), 0xAA), // v1: rejected outright
		append(encodeBatchFrameV2(batchItems("x"), true), 0xAA),     // v2 trailing bytes
		{batchFrameV2, 0xFF, 0xFF, 0xFF, 0xFF},                      // absurd v2 count
		{batchFrameV2, 0x00, 0x00, 0x00, 0x02, 0x03},                // truncated v2 bitmaps
	}
	// Truncated run header: count says 2 items, bitmaps fine, run cut short.
	e := wire.GetEncoder()
	e.Byte(batchFrameV2)
	e.ListLen(2)
	e.Byte(0x00) // full bitmap: digest-only
	e.Byte(0x00) // derived bitmap
	e.Byte(5)    // kind
	hostile = append(hostile, e.Detach())
	wire.PutEncoder(e)

	// Run overflow: one run claims more items than the frame count.
	e = wire.GetEncoder()
	e.Byte(batchFrameV2)
	e.ListLen(1)
	e.Byte(0x00)
	e.Byte(0x00)
	e.Byte(5)
	e.ListLen(2)
	e.Bytes32(crypto.Digest{})
	e.Bytes32(crypto.Digest{})
	e.Bytes32(crypto.Digest{})
	e.Bytes32(crypto.Digest{})
	hostile = append(hostile, e.Detach())
	wire.PutEncoder(e)

	// Nonzero bitmap padding bits beyond the item count.
	e = wire.GetEncoder()
	e.Byte(batchFrameV2)
	e.ListLen(1)
	e.Byte(0x03) // item 0 full + a padding bit
	e.Byte(0x00)
	e.Byte(5)
	e.ListLen(1)
	e.Bytes32(crypto.Digest{})
	e.Byte(payloadLiteral)
	e.VarBytes([]byte("x"))
	hostile = append(hostile, e.Detach())
	wire.PutEncoder(e)

	// Back-reference with no dictionary entry yet.
	e = wire.GetEncoder()
	e.Byte(batchFrameV2)
	e.ListLen(1)
	e.Byte(0x01)
	e.Byte(0x00)
	e.Byte(5)
	e.ListLen(1)
	e.Bytes32(crypto.Digest{})
	e.Byte(payloadBackref)
	e.Byte(1)
	e.Uint32(4)
	e.Uint32(0)
	e.VarBytes(nil)
	hostile = append(hostile, e.Detach())
	wire.PutEncoder(e)

	// Back-reference whose prefix+suffix exceeds the candidate length.
	e = wire.GetEncoder()
	e.Byte(batchFrameV2)
	e.ListLen(2)
	e.Byte(0x03)
	e.Byte(0x03) // derived: no MsgIDs on the wire
	e.Byte(5)
	e.ListLen(2)
	e.Byte(payloadLiteral)
	e.VarBytes([]byte("shortcand"))
	e.Byte(payloadBackref)
	e.Byte(1)
	e.Uint32(8)
	e.Uint32(8)
	e.VarBytes(nil)
	hostile = append(hostile, e.Detach())
	wire.PutEncoder(e)

	// Back-reference whose prefix would overflow int on 32-bit platforms
	// (and exceeds the decompression budget everywhere): must be rejected
	// by the bound check, never reach slicing.
	e = wire.GetEncoder()
	e.Byte(batchFrameV2)
	e.ListLen(2)
	e.Byte(0x03)
	e.Byte(0x03)
	e.Byte(5)
	e.ListLen(2)
	e.Byte(payloadLiteral)
	e.VarBytes([]byte("cand"))
	e.Byte(payloadBackref)
	e.Byte(1)
	e.Uint32(0x80000000)
	e.Uint32(0)
	e.VarBytes(nil)
	hostile = append(hostile, e.Detach())
	wire.PutEncoder(e)

	// Unknown payload form tag.
	e = wire.GetEncoder()
	e.Byte(batchFrameV2)
	e.ListLen(1)
	e.Byte(0x01)
	e.Byte(0x01)
	e.Byte(5)
	e.ListLen(1)
	e.Byte(0x7E)
	hostile = append(hostile, e.Detach())
	wire.PutEncoder(e)

	for _, b := range hostile {
		if _, err := decodeBatchFrame(b); err == nil {
			t.Errorf("decode(%x) accepted hostile frame", b)
		}
	}
	if _, err := decodeBatchFrame(nil); err == nil {
		t.Error("empty frame must fail (missing version/count)")
	}
}

// TestBatchFrameV2DecompressionBudget pins the amplification bound: a frame
// whose back-references reconstruct more than maxBatchDecodedBytes in total
// is rejected, however valid each individual reference is.
func TestBatchFrameV2DecompressionBudget(t *testing.T) {
	const candBytes = 64 << 10
	n := maxBatchDecodedBytes/candBytes + 2 // enough full-copy refs to bust the budget
	if n > MaxBatchItems {
		t.Fatalf("test needs %d items > MaxBatchItems", n)
	}
	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	e.Byte(batchFrameV2)
	e.ListLen(n)
	for i := 0; i < (n+7)/8; i++ {
		b := byte(0xFF)
		if i == (n+7)/8-1 && n%8 != 0 {
			b = byte(1<<(n%8)) - 1
		}
		e.Byte(b) // all full
	}
	for i := 0; i < (n+7)/8; i++ {
		b := byte(0xFF)
		if i == (n+7)/8-1 && n%8 != 0 {
			b = byte(1<<(n%8)) - 1
		}
		e.Byte(b) // all derived: no MsgIDs
	}
	e.Byte(5)
	e.ListLen(n)
	e.Byte(payloadLiteral)
	e.VarBytes(make([]byte, candBytes))
	for i := 1; i < n; i++ {
		e.Byte(payloadBackref)
		e.Byte(1)
		e.Uint32(candBytes)
		e.Uint32(0)
		e.VarBytes(nil)
	}
	if _, err := decodeBatchFrame(e.Bytes()); err == nil {
		t.Fatal("decoder accepted a frame reconstructing past the decompression budget")
	}
}

// TestSendBatchDigestOptimization mirrors TestSendDigestOptimization for the
// batch path: members with the lowest ⌊N/2⌋+1 indices send full payloads,
// the rest digest-only copies.
func TestSendBatchDigestOptimization(t *testing.T) {
	src := comp(1, 1, 1, 2, 3, 4, 5)
	dst := comp(2, 1, 10, 11, 12)
	items := batchItems("payload-a", "payload-b")
	rng := rand.New(rand.NewSource(1))
	batchID := crypto.Hash([]byte("batch"))

	countFull := func(self ids.NodeID) (full, digest int) {
		var sent []GroupMsg
		send := func(_ ids.NodeID, msg actor.Message) { sent = append(sent, msg.(GroupMsg)) }
		SendBatch(send, rng, src, self, dst, Kind(99), batchID, items)
		if len(sent) != dst.N() {
			t.Fatalf("sent %d copies, want %d", len(sent), dst.N())
		}
		inner, err := UnpackBatch(sent[0])
		if err != nil {
			t.Fatalf("unpack: %v", err)
		}
		for _, im := range inner {
			if im.Payload != nil {
				full++
			} else {
				digest++
			}
			if im.SrcGroup != src.GroupID || im.DstGroup != dst.GroupID {
				t.Error("inner item did not inherit carrier headers")
			}
		}
		return full, digest
	}

	if full, _ := countFull(1); full != len(items) {
		t.Errorf("low-index member sent %d full payloads, want %d", full, len(items))
	}
	if _, digest := countFull(5); digest != len(items) {
		t.Errorf("high-index member must send digest-only items, got %d", digest)
	}
}

// TestBatchVotesConvergeAcrossDifferentGroupings is the core safety property
// of send-side batching: members that grouped the same logical messages
// differently — or batch with different frame versions, or did not batch at
// all — still drive the receiver's inbox to acceptance, because votes tally
// under the inner MsgIDs.
func TestBatchVotesConvergeAcrossDifferentGroupings(t *testing.T) {
	src := comp(1, 1, 1, 2, 3)
	dst := comp(2, 1, 10)
	items := batchItems("msg-one", "msg-two")
	rng := rand.New(rand.NewSource(2))
	known := map[Key]Composition{src.Key(): src}
	ib := NewInbox(func(k Key) (Composition, bool) { c, ok := known[k]; return c, ok })

	observe := func(from ids.NodeID, msg GroupMsg) []Accepted {
		var accepted []Accepted
		if msg.Kind == Kind(99) {
			inner, err := UnpackBatch(msg)
			if err != nil {
				t.Fatalf("unpack: %v", err)
			}
			for _, im := range inner {
				if acc, ok := ib.Observe(time.Second, from, im); ok {
					accepted = append(accepted, acc)
				}
			}
			return accepted
		}
		if acc, ok := ib.Observe(time.Second, from, msg); ok {
			accepted = append(accepted, acc)
		}
		return accepted
	}

	var all []Accepted
	// Member 1 batches both messages together as a v2 frame.
	SendBatch(func(_ ids.NodeID, m actor.Message) {
		all = append(all, observe(1, m.(GroupMsg))...)
	}, rng, src, 1, dst, Kind(99), crypto.Hash([]byte("b1")), items)
	// Member 2 sends them unbatched (as if its flush window cut between them).
	for _, it := range items {
		Send(func(_ ids.NodeID, m actor.Message) {
			all = append(all, observe(2, m.(GroupMsg))...)
		}, rng, src, 2, dst, it.Kind, it.MsgID, it.Payload)
	}

	if len(all) != len(items) {
		t.Fatalf("accepted %d logical messages, want %d (one per inner MsgID)", len(all), len(items))
	}
	seen := map[crypto.Digest]bool{}
	for _, acc := range all {
		seen[acc.MsgID] = true
	}
	for _, it := range items {
		if !seen[it.MsgID] {
			t.Errorf("logical message %x never accepted", it.MsgID[:4])
		}
	}

	// The same property across carrier identities: two batchers wrapping the
	// same logical messages under different batchIDs still vote them to
	// acceptance — the carrier takes no part in majority matching.
	// (batchItems derives MsgIDs from the index alone; these need fresh ones
	// or the inbox dedups them against the messages accepted above.)
	items2 := batchItems("mixed-carrier-one", "mixed-carrier-two")
	for i := range items2 {
		items2[i].MsgID = crypto.Hash(items2[i].Payload)
	}
	var all2 []Accepted
	SendBatch(func(_ ids.NodeID, m actor.Message) {
		all2 = append(all2, observe(1, m.(GroupMsg))...)
	}, rng, src, 1, dst, Kind(99), crypto.Hash([]byte("b2-member1")), items2)
	SendBatch(func(_ ids.NodeID, m actor.Message) {
		all2 = append(all2, observe(2, m.(GroupMsg))...)
	}, rng, src, 2, dst, Kind(99), crypto.Hash([]byte("b2-member2")), items2)
	if len(all2) != len(items2) {
		t.Fatalf("mixed-carrier batching accepted %d logical messages, want %d", len(all2), len(items2))
	}
}

func FuzzDecodeBatchFrame(f *testing.F) {
	// v1 seeds exercise the explicit-rejection path.
	f.Add(encodeBatchFrameV1Test(batchItems("a", "bb", "ccc"), true))
	f.Add(encodeBatchFrameV1Test(batchItems("x"), false))
	f.Add(encodeBatchFrameV2(batchItems("a", "bb", "ccc"), true))
	f.Add(encodeBatchFrameV2(batchItems("x"), false))
	sibs := batchItems("prefix-AAAA-suffix", "prefix-BBBB-suffix", "prefix-CCCC-suffix")
	for i := range sibs {
		sibs[i].DerivedID = true
		sibs[i].MsgID = crypto.Hash(sibs[i].Payload)
	}
	f.Add(encodeBatchFrameV2(sibs, true))
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00, 0x10, 0x00})
	f.Add([]byte{batchFrameV2, 0x00, 0x00, 0x10, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		items, err := decodeBatchFrame(data)
		if err != nil {
			return
		}
		// Whatever decodes must be self-consistent: a full item either
		// carries no digest (its MsgID was on the wire) or is a derived
		// item, whose digest is its payload's and doubles as its MsgID
		// (digest-only items lack the payload, so only the decoded
		// structure is checkable).
		for _, it := range items {
			if it.payload != nil && !it.digest.IsZero() &&
				(crypto.Hash(it.payload) != it.digest || it.msgID != it.digest) {
				t.Fatal("derived item digest not derived from payload")
			}
		}
	})
}

// benchFrameItems builds the 64-item mixed-kind frame the encode/decode
// benchmark and the CI allocation guard run against: gossip-like items with
// distinct payloads, raw sibling chunks differing only in a sequence field
// (the dictionary target), and a few churn-style control items.
func benchFrameItems() []BatchItem {
	var items []BatchItem
	gossipBody := bytes.Repeat([]byte("g"), 120)
	for i := 0; i < 16; i++ {
		p := append([]byte(fmt.Sprintf("gossip-%02d|", i)), gossipBody...)
		items = append(items, BatchItem{Kind: 1, MsgID: crypto.HashUint64(crypto.Hash([]byte("g")), uint64(i)), Payload: p})
	}
	rawBody := bytes.Repeat([]byte("chunk-data."), 24)
	for i := 0; i < 40; i++ {
		p := append([]byte(fmt.Sprintf("seq=%08d|", i)), rawBody...)
		items = append(items, BatchItem{Kind: 16, MsgID: crypto.Hash(p), Payload: p, DerivedID: true})
	}
	for i := 0; i < 8; i++ {
		p := []byte(fmt.Sprintf("nbr-update-%02d", i))
		items = append(items, BatchItem{Kind: 5, MsgID: crypto.HashUint64(crypto.Hash([]byte("n")), uint64(i)), Payload: p})
	}
	return items
}

// BenchmarkBatchEncodeDecode measures the frame codec on a 64-item
// mixed-kind batch: allocs/op and bytes/op per direction, plus the encoded
// frame size as a custom metric. The CI job feeds its -benchmem output to
// cmd/benchguard against bench/batch_allocs_baseline.json. (The v1 rows
// disappeared with the v1 writer; the baseline shrank with them.)
func BenchmarkBatchEncodeDecode(b *testing.B) {
	items := benchFrameItems()
	frame := encodeBatchFrameV2(items, true)
	b.Run("v2/encode", func(b *testing.B) {
		b.ReportAllocs()
		b.ReportMetric(float64(len(frame)), "frame-bytes")
		for i := 0; i < b.N; i++ {
			_ = encodeBatchFrameV2(items, true)
		}
	})
	b.Run("v2/decode", func(b *testing.B) {
		b.ReportAllocs()
		b.ReportMetric(float64(len(frame)), "frame-bytes")
		for i := 0; i < b.N; i++ {
			if _, err := decodeBatchFrame(frame); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestPrecomputedItemDigestIsWireIdentical: a sender that supplies
// BatchItem.Digest produces the same bytes as one that lets the framing
// code hash the payload, on both the batch and the single-message path.
func TestPrecomputedItemDigestIsWireIdentical(t *testing.T) {
	items := batchItems("alpha", "beta-beta")
	withDigest := append([]BatchItem(nil), items...)
	for i := range withDigest {
		withDigest[i].Digest = crypto.Hash(withDigest[i].Payload)
	}
	for _, full := range []bool{true, false} {
		if !bytes.Equal(encodeBatchFrameV2(items, full), encodeBatchFrameV2(withDigest, full)) {
			t.Errorf("full=%v: precomputed digests changed the frame", full)
		}
	}
	src := comp(1, 1, 1, 2, 3)
	dst := comp(2, 1, 10, 11)
	for _, self := range []ids.NodeID{1, 3} { // a full sender and a digest-only sender
		var plain, reused []GroupMsg
		Send(func(_ ids.NodeID, m actor.Message) { plain = append(plain, m.(GroupMsg)) },
			rand.New(rand.NewSource(1)), src, self, dst, items[0].Kind, items[0].MsgID, items[0].Payload)
		SendItem(func(_ ids.NodeID, m actor.Message) { reused = append(reused, m.(GroupMsg)) },
			rand.New(rand.NewSource(1)), src, self, dst, withDigest[0])
		if len(plain) != len(reused) {
			t.Fatalf("sender %d: %d vs %d copies", self, len(plain), len(reused))
		}
		for i := range plain {
			if !bytes.Equal(wire.Encode(plain[i]), wire.Encode(reused[i])) {
				t.Errorf("sender %d copy %d: SendItem differs from Send on the wire", self, i)
			}
		}
	}
}
