package group

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"

	"atum/internal/crypto"
	"atum/internal/ids"
	"atum/internal/wire"
)

// Batching folds several logical group messages bound for the same
// destination composition into one wire message. Crucially, the batch itself
// carries no majority-matched identity: the receiver unpacks it and feeds
// every inner item into its inbox as an ordinary per-sender vote for that
// item's own MsgID. Votes therefore converge across senders even when each
// member of the source vgroup grouped the items differently (flush windows
// are member-local and may cut anywhere), which is what makes send-side
// batching safe without any cross-member batch agreement.
//
// One frame layout exists on the wire (byte-level spec: docs/WIRE.md): v2 —
// run-length kind groups, frame-level full/derived-MsgID bitmaps, per-item
// compact forms (derived-MsgID items omit the 32-byte MsgID entirely), and
// cross-item dictionary compression — later payloads that share a
// prefix/suffix with an earlier payload in the same frame encode a
// back-reference instead of the bytes.
//
// The v1 layout (a flat item list, every item paying a kind byte, a 32-byte
// MsgID, and a full/digest flag) had its writer removed after its
// one-release migration window, mirroring the gob→wire envelope migration.
// Receivers still dispatch on the first frame byte and reject a v1 frame
// (which always starts 0x00: its item count was a big-endian uint32 bounded
// by MaxBatchItems < 2^16) with an explicit error rather than a generic
// version complaint, so a stale sender produces a diagnosable failure.

// BatchItem is one logical group message folded into a batch.
type BatchItem struct {
	Kind    Kind
	MsgID   crypto.Digest
	Payload []byte
	// DerivedID marks an item whose MsgID is, by construction, the payload
	// digest (node-addressed raw items: core sets MsgID = Hash(Payload)).
	// The v2 frame omits such MsgIDs entirely — the receiver re-derives them
	// from the payload digest it computes anyway. Setting it on an item
	// whose MsgID is NOT the payload digest silently rewrites the MsgID at
	// the receiver; only senders that construct the MsgID that way may set
	// it.
	DerivedID bool
	// Digest is the payload digest when the sender has already computed it
	// (a gossip forward hashes its payload once for all of its links); zero
	// means "not computed" and the frame writer hashes the payload itself.
	// A non-zero Digest must be crypto.Hash(Payload).
	Digest crypto.Digest
}

// payloadDigest returns the item's payload digest, hashing only when the
// sender did not supply one.
func (it BatchItem) payloadDigest() crypto.Digest {
	if !it.Digest.IsZero() {
		return it.Digest
	}
	return crypto.Hash(it.Payload)
}

// MaxBatchItems bounds how many inner items one batch frame may carry,
// protecting receivers from hostile amplification. Send-side batch caps must
// stay at or below it — receivers reject larger frames outright.
const MaxBatchItems = 4096

// batchFrameV2 is the v2 frame version byte. v1 frames begin 0x00; any
// other leading byte is an unknown future version and is rejected.
const batchFrameV2 = 0x02

// dictWindow is how far back (in full-payload items) a v2 dictionary
// back-reference may point. Both ends maintain the same window: every
// full payload enters it in item order.
const dictWindow = 16

// backrefMinGain is the minimum matched byte count (prefix+suffix) before
// the encoder prefers a back-reference over a literal: a back-reference
// costs 9 bytes more framing than a literal, so short matches are not worth
// encoding.
const backrefMinGain = 16

// decodeBudget returns the cumulative bytes a frame's back-references may
// reconstruct: 64× the frame size, floored at minBatchDecodedBytes and
// capped at maxBatchDecodedBytes. Chained references legitimately expand
// (that is the compression), but unchecked they amplify exponentially — a
// hostile kilobyte frame must not buy gigabytes of receiver allocation, so
// the budget scales with what the sender actually paid in bandwidth.
// Honest traffic sits far below both limits: egress batches cap payload
// bytes at 256 KiB, and a frame of maximally identical payloads expands
// ~50× (one literal plus ~15-byte references).
func decodeBudget(frameLen int) int {
	b := 64 * frameLen
	if b < minBatchDecodedBytes {
		return minBatchDecodedBytes
	}
	if b > maxBatchDecodedBytes {
		return maxBatchDecodedBytes
	}
	return b
}

// Decompression-budget bounds (see decodeBudget).
const (
	minBatchDecodedBytes = 1 << 20
	maxBatchDecodedBytes = 1 << 26
)

// Payload form tags inside a v2 frame.
const (
	payloadLiteral = 0x00
	payloadBackref = 0x01
)

// encodeBatchFrameV2 serializes the items as a v2 frame:
//
//	Byte    version (0x02)
//	ListLen item count n
//	RawView ceil(n/8) bytes: full bitmap (bit i → item i carries payload)
//	RawView ceil(n/8) bytes: derived bitmap (bit i → MsgID omitted, equals
//	                         the payload digest)
//	runs until n items are consumed:
//	  Byte    kind
//	  ListLen run length
//	  per item: [Bytes32 MsgID unless derived]
//	            full:        Byte form, then literal VarBytes payload or
//	                         back-reference (Byte delta · Uint32 prefix ·
//	                         Uint32 suffix · VarBytes middle)
//	            digest-only: Bytes32 payload digest
func encodeBatchFrameV2(items []BatchItem, full bool) []byte {
	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	e.Byte(batchFrameV2)
	e.ListLen(len(items))
	for base := 0; base < len(items); base += 8 {
		var b byte
		if full {
			for bit := 0; bit < 8 && base+bit < len(items); bit++ {
				b |= 1 << bit
			}
		}
		e.Byte(b)
	}
	for base := 0; base < len(items); base += 8 {
		var b byte
		for bit := 0; bit < 8 && base+bit < len(items); bit++ {
			if items[base+bit].DerivedID {
				b |= 1 << bit
			}
		}
		e.Byte(b)
	}
	var fulls [][]byte // dictionary window source, in item order
	for i := 0; i < len(items); {
		run := 1
		for i+run < len(items) && items[i+run].Kind == items[i].Kind {
			run++
		}
		e.Byte(byte(items[i].Kind))
		e.ListLen(run)
		for _, it := range items[i : i+run] {
			if !it.DerivedID {
				e.Bytes32(it.MsgID)
			}
			if full {
				encodePayloadForm(e, it.Payload, fulls)
				fulls = append(fulls, it.Payload)
			} else {
				e.Bytes32(it.payloadDigest())
			}
		}
		i += run
	}
	return e.Detach()
}

// encodePayloadForm writes one full payload, as a back-reference against the
// best dictionary-window match when that is cheaper than the literal bytes.
// The window scans most-recent-first (siblings usually follow each other)
// and stops at the first near-perfect match, so the common case — a run of
// payloads differing only in a sequence field — costs one comparison.
func encodePayloadForm(e *wire.Encoder, p []byte, fulls [][]byte) {
	bestDelta, bestPrefix, bestSuffix, bestGain := 0, 0, 0, 0
	lo := len(fulls) - dictWindow
	if lo < 0 {
		lo = 0
	}
	for j := len(fulls) - 1; j >= lo; j-- {
		if len(fulls[j]) <= bestGain {
			continue // gain is bounded by the candidate length
		}
		prefix, suffix := matchEnds(p, fulls[j])
		if gain := prefix + suffix; gain > bestGain {
			bestDelta, bestPrefix, bestSuffix, bestGain = len(fulls)-j, prefix, suffix, gain
			if bestGain >= len(p)-backrefMinGain {
				break // near-perfect; scanning further can save little
			}
		}
	}
	if bestGain < backrefMinGain {
		e.Byte(payloadLiteral)
		e.VarBytes(p)
		return
	}
	e.Byte(payloadBackref)
	e.Byte(byte(bestDelta))
	e.Uint32(uint32(bestPrefix))
	e.Uint32(uint32(bestSuffix))
	e.VarBytes(p[bestPrefix : len(p)-bestSuffix])
}

// matchEnds returns the longest common prefix of p and cand, and the longest
// common suffix of what remains (prefix+suffix never exceeds either length,
// so the middle literal is well-defined on both sides). Comparisons run a
// word at a time: this is the encode hot path's inner loop.
func matchEnds(p, cand []byte) (prefix, suffix int) {
	n := len(p)
	if len(cand) < n {
		n = len(cand)
	}
	prefix = commonPrefixLen(p, cand, n)
	suffix = commonSuffixLen(p, cand, n-prefix)
	return prefix, suffix
}

// commonPrefixLen returns the length of the longest common prefix of a and
// b, capped at max.
func commonPrefixLen(a, b []byte, max int) int {
	i := 0
	for ; i+8 <= max; i += 8 {
		x := binary.BigEndian.Uint64(a[i:]) ^ binary.BigEndian.Uint64(b[i:])
		if x != 0 {
			return i + bits.LeadingZeros64(x)/8
		}
	}
	for ; i < max && a[i] == b[i]; i++ {
	}
	return i
}

// commonSuffixLen returns the length of the longest common suffix of a and
// b, capped at max.
func commonSuffixLen(a, b []byte, max int) int {
	la, lb := len(a), len(b)
	i := 0
	for ; i+8 <= max; i += 8 {
		x := binary.BigEndian.Uint64(a[la-i-8:]) ^ binary.BigEndian.Uint64(b[lb-i-8:])
		if x != 0 {
			return i + bits.TrailingZeros64(x)/8
		}
	}
	for ; i < max && a[la-1-i] == b[lb-1-i]; i++ {
	}
	return i
}

// decodedBatchItem is one inner item recovered from a batch frame. Payload is
// nil on digest-only copies. Literal payloads alias the frame buffer (the
// zero-copy decode path); back-referenced payloads are reconstructed into
// the frame's shared arena. digest is the claimed digest of a digest-only
// item and the computed digest of a derived-MsgID item; a full item with a
// MsgID on the wire leaves it zero — the frame carries no digest for it, and
// the inbox derives one from the bytes only if the copy still needs a vote.
type decodedBatchItem struct {
	kind    Kind
	msgID   crypto.Digest
	digest  crypto.Digest
	payload []byte
}

// decodeBatchFrame dispatches on the first frame byte. Hostile frames (bad
// lengths, truncation, trailing bytes, oversized item counts, out-of-window
// back-references, nonzero bitmap padding) return an error. A v1 frame —
// recognizable by its 0x00 first byte — is rejected explicitly: the v1
// writer was removed after its migration window, so reaching that case
// means a peer is running a pre-v2 build, not that the frame is corrupt.
func decodeBatchFrame(b []byte) ([]decodedBatchItem, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("group: empty batch frame")
	}
	switch b[0] {
	case 0x00:
		return nil, fmt.Errorf("group: legacy v1 batch frame; the v1 writer was removed after its migration window — upgrade the sending node")
	case batchFrameV2:
		return decodeBatchFrameV2(b[1:])
	default:
		return nil, fmt.Errorf("group: unsupported batch frame version %#x", b[0])
	}
}

// decodeBatchFrameV2 reverses encodeBatchFrameV2; b starts after the version
// byte.
func decodeBatchFrameV2(b []byte) ([]decodedBatchItem, error) {
	d := wire.NewDecoder(b)
	n := d.ListLen()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if n > MaxBatchItems {
		return nil, fmt.Errorf("group: batch of %d items exceeds limit %d", n, MaxBatchItems)
	}
	nb := (n + 7) / 8
	fullBits := d.RawView(nb)
	derivedBits := d.RawView(nb)
	if d.Err() != nil {
		return nil, d.Err()
	}
	if pad := n % 8; pad != 0 && nb > 0 {
		// Padding bits beyond the item count must be zero: one logical frame,
		// one encoding.
		mask := byte(0xFF) << pad
		if fullBits[nb-1]&mask != 0 || derivedBits[nb-1]&mask != 0 {
			return nil, fmt.Errorf("group: batch frame bitmap has nonzero padding bits")
		}
	}
	bit := func(bm []byte, i int) bool { return bm[i/8]&(1<<(i%8)) != 0 }

	items := make([]decodedBatchItem, 0, n)
	st := batchDecodeState{budget: decodeBudget(len(b)), frameLen: len(b)}
	for len(items) < n {
		kind := Kind(d.Byte())
		run := d.ListLen()
		if d.Err() != nil {
			return nil, d.Err()
		}
		if run <= 0 || len(items)+run > n {
			return nil, fmt.Errorf("group: batch frame run of %d items overflows count %d", run, n)
		}
		for r := 0; r < run; r++ {
			i := len(items)
			it := decodedBatchItem{kind: kind}
			derived := bit(derivedBits, i)
			if !derived {
				it.msgID = d.Bytes32()
			}
			if bit(fullBits, i) {
				p, err := st.decodePayloadForm(d)
				if err != nil {
					return nil, err
				}
				it.payload = p
				if derived {
					// The MsgID is the payload digest by construction and
					// the frame omits it, so it can only come from here.
					it.digest = crypto.Hash(p)
				}
				st.fulls = append(st.fulls, p)
			} else {
				it.digest = d.Bytes32()
			}
			if derived {
				it.msgID = it.digest
			}
			if d.Err() != nil {
				return nil, d.Err()
			}
			items = append(items, it)
		}
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return items, nil
}

// batchDecodeState carries the v2 decoder's cross-item state: the dictionary
// window, the cumulative decompression budget, and one shared reconstruction
// arena — back-referenced payloads are appended to it and handed out as
// sub-slices, so a frame pays O(1) reconstruction allocations instead of one
// per compressed item.
type batchDecodeState struct {
	fulls    [][]byte
	arena    []byte
	budget   int
	frameLen int // sizes the arena at the first back-reference
}

// decodePayloadForm reads one full payload (literal or back-reference).
// Literals alias the frame; back-references reconstruct into the arena.
func (st *batchDecodeState) decodePayloadForm(d *wire.Decoder) ([]byte, error) {
	switch form := d.Byte(); form {
	case payloadLiteral:
		p := d.VarBytesView()
		if d.Err() != nil {
			return nil, d.Err()
		}
		if p == nil {
			p = []byte{}
		}
		return p, nil
	case payloadBackref:
		delta := int(d.Byte())
		prefix32 := d.Uint32()
		suffix32 := d.Uint32()
		middle := d.VarBytesView()
		if d.Err() != nil {
			return nil, d.Err()
		}
		// Bound BEFORE converting to int: on 32-bit platforms a hostile
		// prefix/suffix ≥ 2^31 would convert negative and slip past every
		// check below into a slice-bounds panic. The budget is a sound cap —
		// a legitimate value can never exceed it.
		if prefix32 > maxBatchDecodedBytes || suffix32 > maxBatchDecodedBytes {
			return nil, fmt.Errorf("group: batch back-reference match %d+%d exceeds decompression budget", prefix32, suffix32)
		}
		prefix, suffix := int(prefix32), int(suffix32)
		if delta < 1 || delta > dictWindow || delta > len(st.fulls) {
			return nil, fmt.Errorf("group: batch back-reference %d outside dictionary window (%d full items)", delta, len(st.fulls))
		}
		cand := st.fulls[len(st.fulls)-delta]
		if prefix+suffix > len(cand) {
			return nil, fmt.Errorf("group: batch back-reference match %d+%d exceeds candidate length %d", prefix, suffix, len(cand))
		}
		total := prefix + suffix + len(middle)
		if total > st.budget {
			return nil, fmt.Errorf("group: batch frame exceeds its decompression budget")
		}
		st.budget -= total
		if total == 0 {
			return []byte{}, nil
		}
		if st.arena == nil {
			// Allocate the arena at the first back-reference, sized so an
			// honest frame (which expands a few-fold at most: references
			// replace shared bytes, middles stay literal) never regrows it;
			// the cap keeps a hostile frame from buying a large allocation
			// up front. Frames without back-references allocate nothing.
			guess := 4 * st.frameLen
			if guess > 1<<16 {
				guess = 1 << 16
			}
			st.arena = make([]byte, 0, guess)
		}
		// Appends never overlap cand even when cand aliases the arena: cand
		// ends at or before the current length, writes start at it. The
		// 3-index sub-slice pins the capacity so later arena appends cannot
		// scribble into an already-returned payload.
		start := len(st.arena)
		st.arena = append(st.arena, cand[:prefix]...)
		st.arena = append(st.arena, middle...)
		st.arena = append(st.arena, cand[len(cand)-suffix:]...)
		return st.arena[start:len(st.arena):len(st.arena)], nil
	default:
		return nil, fmt.Errorf("group: unknown batch payload form %#x", form)
	}
}

// SendBatch transmits one batch of logical group messages from self (a member
// of src) to every member of dst. As in Send, members with the lowest
// ⌊N/2⌋+1 indices transmit the full payloads and the rest transmit
// digest-only copies, and destination order is randomized against incast
// (§5.1). batchID identifies the carrier message only; it takes no part in
// inbox majority matching — the inner MsgIDs do.
func SendBatch(send SendFn, rng *rand.Rand, src Composition, self ids.NodeID, dst Composition, kind Kind, batchID crypto.Digest, items []BatchItem) {
	if len(items) == 0 {
		return
	}
	if len(items) > MaxBatchItems {
		// Receivers reject larger frames outright; as with the wire encoder,
		// fail at the send site, where the bug is.
		panic(fmt.Sprintf("group: batch of %d items exceeds limit %d", len(items), MaxBatchItems))
	}
	full := false
	if idx := src.Index(self); idx >= 0 && idx < src.Majority() {
		full = true
	}
	frame := encodeBatchFrameV2(items, full)
	msg := GroupMsg{
		SrcGroup:      src.GroupID,
		SrcEpoch:      src.Epoch,
		DstGroup:      dst.GroupID,
		DstEpoch:      dst.Epoch,
		Kind:          kind,
		MsgID:         batchID,
		PayloadDigest: crypto.Hash(frame),
		Payload:       frame,
	}
	order := rng.Perm(len(dst.Members))
	for _, i := range order {
		send(dst.Members[i].ID, msg)
	}
}

// SendBatchToNode transmits one batch of logical messages from self to a
// single node, with every payload carried in full — node-addressed batches
// (application raw-message floods) are link-authenticated, not majority-
// matched, so there is no digest optimization to apply.
func SendBatchToNode(send SendFn, src Composition, self ids.NodeID, to ids.NodeID, kind Kind, batchID crypto.Digest, items []BatchItem) {
	if len(items) == 0 {
		return
	}
	if len(items) > MaxBatchItems {
		panic(fmt.Sprintf("group: batch of %d items exceeds limit %d", len(items), MaxBatchItems))
	}
	frame := encodeBatchFrameV2(items, true)
	send(to, GroupMsg{
		SrcGroup:      src.GroupID,
		SrcEpoch:      src.Epoch,
		Kind:          kind,
		MsgID:         batchID,
		PayloadDigest: crypto.Hash(frame),
		Payload:       frame,
	})
}

// UnpackBatch recovers the inner logical messages of a batch carrier. Each
// returned GroupMsg inherits the carrier's source and destination headers and
// is ready for Inbox.Observe under the same link-authenticated sender.
//
// Fields filled per item: SrcGroup, SrcEpoch, DstGroup and DstEpoch from the
// carrier; Kind and MsgID always (a derived-MsgID item's MsgID is the digest
// of its payload); Payload on full copies only (nil on digest-only copies).
// PayloadDigest is the claimed digest on digest-only copies and the payload
// digest on derived-MsgID items, but zero on other full copies: the frame
// carries no digest for them and the decoder does not hash them, so
// Inbox.Observe derives the digest from the bytes (see there). Attach is
// never set. Payloads may alias m.Payload (the zero-copy decode path): treat
// them as read-only, and note that retaining one retains the whole frame.
func UnpackBatch(m GroupMsg) ([]GroupMsg, error) {
	items, err := decodeBatchFrame(m.Payload)
	if err != nil {
		return nil, err
	}
	out := make([]GroupMsg, 0, len(items))
	for _, it := range items {
		out = append(out, GroupMsg{
			SrcGroup:      m.SrcGroup,
			SrcEpoch:      m.SrcEpoch,
			DstGroup:      m.DstGroup,
			DstEpoch:      m.DstEpoch,
			Kind:          it.kind,
			MsgID:         it.msgID,
			PayloadDigest: it.digest,
			Payload:       it.payload,
		})
	}
	return out, nil
}

// BatchWireOverhead is the worst-case framing cost one full-payload item adds
// to a batch beyond its payload bytes, across both frame versions. v1 items
// cost exactly 38 (kind byte + MsgID + flag + length prefix). A v2 item
// usually costs less (run-shared kind, bitmap bits, omitted MsgIDs), but in
// the worst case — a non-derived item opening its own single-item run — it
// costs a 5-byte run header + 32-byte MsgID + form byte + length prefix +
// 2 bitmap bits, and the 7-byte fixed frame header (version + count + the
// bitmaps' first bytes) amortizes worst at one item per frame: 49 covers
// even that degenerate single-item frame. Send-side aggregators budget
// batch bytes with it, so the constant must be an upper bound or frames
// could exceed the configured byte cap.
const BatchWireOverhead = 7 + 5 + crypto.DigestSize + 1 + 4
