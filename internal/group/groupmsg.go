package group

import (
	"math/rand"
	"time"

	"atum/internal/actor"
	"atum/internal/crypto"
	"atum/internal/ids"
	"atum/internal/wire"
)

// Kind tags the payload of a group message so the overlay layer can dispatch
// it without decoding. Kinds are defined by the core engine; the group layer
// treats them opaquely.
type Kind uint8

// GroupMsg is the inter-node carrier of one logical group→group (or
// group→node) message. Every sending member transmits either the full
// payload or — under the digest optimization of §5.1 — only the payload
// digest; the receiver accepts once a majority of the source composition
// delivered matching digests and at least one full payload arrived.
type GroupMsg struct {
	SrcGroup ids.GroupID
	SrcEpoch uint64
	DstGroup ids.GroupID // 0 when addressed to a single node
	// DstEpoch is the epoch of the destination composition the sender used;
	// receivers on a newer epoch reply with a freshness update so neighbor
	// views never drift far (see core).
	DstEpoch uint64
	Kind     Kind
	// MsgID distinguishes logical messages; senders derive it
	// deterministically from the SMR operation that caused the send, so
	// all members of the source group produce the same MsgID.
	MsgID crypto.Digest
	// PayloadDigest is the digest of Payload. Every sender puts it on the
	// wire, and a digest-only copy votes with it alone. For a full copy the
	// inbox trusts the bytes, not the claim: Inbox.Observe derives the
	// digest from the payload and drops a copy whose non-zero claim
	// disagrees. Inner items unpacked from a batch frame leave it zero on
	// full copies, because the frame carries no digest for them
	// (UnpackBatch).
	PayloadDigest crypto.Digest
	// Payload is nil on digest-only copies.
	Payload []byte
	// Attach carries sender-specific data excluded from the digest match
	// (e.g. each member's share of a random-walk certificate chain, §5.1).
	// The inbox hands the attachments of the accepting majority to the
	// caller.
	Attach []byte
}

// WireSize implements actor.Sizer.
func (m GroupMsg) WireSize() int { return 96 + len(m.Payload) + len(m.Attach) }

// MarshalWire implements wire.Marshaler (byte-level transport framing).
// Payload and Attach nil-ness is preserved: a nil payload marks a digest-only
// copy and a nil attach marks "no attachment" — both are semantically
// distinct from empty (see Inbox.Observe).
func (m GroupMsg) MarshalWire(e *wire.Encoder) {
	e.Uint64(uint64(m.SrcGroup))
	e.Uint64(m.SrcEpoch)
	e.Uint64(uint64(m.DstGroup))
	e.Uint64(m.DstEpoch)
	e.Byte(byte(m.Kind))
	e.Bytes32(m.MsgID)
	e.Bytes32(m.PayloadDigest)
	e.Bool(m.Payload != nil)
	if m.Payload != nil {
		e.VarBytes(m.Payload)
	}
	e.Bool(m.Attach != nil)
	if m.Attach != nil {
		e.VarBytes(m.Attach)
	}
}

// UnmarshalWire decodes a GroupMsg encoded by MarshalWire.
func (m *GroupMsg) UnmarshalWire(d *wire.Decoder) {
	m.SrcGroup = ids.GroupID(d.Uint64())
	m.SrcEpoch = d.Uint64()
	m.DstGroup = ids.GroupID(d.Uint64())
	m.DstEpoch = d.Uint64()
	m.Kind = Kind(d.Byte())
	m.MsgID = d.Bytes32()
	m.PayloadDigest = d.Bytes32()
	m.Payload = nil
	if d.Bool() {
		m.Payload = d.VarBytes()
	}
	m.Attach = nil
	if d.Bool() {
		m.Attach = d.VarBytes()
	}
}

// SendFn abstracts the node-layer send (the core engine quantizes sends to
// round boundaries in synchronous mode).
type SendFn func(to ids.NodeID, msg actor.Message)

// Send transmits one logical group message from self (a member of src) to
// every member of dst. Members with the lowest ⌊N/2⌋+1 indices send the full
// payload, the rest send digest-only copies (§5.1: since a majority of the
// source is correct, at least one correct member always sends the full
// payload). Destination order is randomized to avoid incast bursts (§5.1).
func Send(send SendFn, rng *rand.Rand, src Composition, self ids.NodeID, dst Composition, kind Kind, msgID crypto.Digest, payload []byte) {
	SendAttach(send, rng, src, self, dst, kind, msgID, payload, nil)
}

// SendAttach is Send with a sender-specific attachment.
func SendAttach(send SendFn, rng *rand.Rand, src Composition, self ids.NodeID, dst Composition, kind Kind, msgID crypto.Digest, payload, attach []byte) {
	sendCopies(send, rng, src, self, dst, GroupMsg{
		Kind:          kind,
		MsgID:         msgID,
		PayloadDigest: crypto.Hash(payload),
		Attach:        attach,
	}, payload)
}

// SendItem is Send for one queued egress item. It reuses the item's payload
// digest when the sender already computed it (BatchItem.Digest).
func SendItem(send SendFn, rng *rand.Rand, src Composition, self ids.NodeID, dst Composition, it BatchItem) {
	sendCopies(send, rng, src, self, dst, GroupMsg{
		Kind:          it.Kind,
		MsgID:         it.MsgID,
		PayloadDigest: it.payloadDigest(),
	}, it.Payload)
}

// sendCopies stamps msg with the source and destination headers, attaches
// the payload if self is among the majority of full senders, and transmits
// one copy to every member of dst in random order.
func sendCopies(send SendFn, rng *rand.Rand, src Composition, self ids.NodeID, dst Composition, msg GroupMsg, payload []byte) {
	msg.SrcGroup, msg.SrcEpoch = src.GroupID, src.Epoch
	msg.DstGroup, msg.DstEpoch = dst.GroupID, dst.Epoch
	if idx := src.Index(self); idx >= 0 && idx < src.Majority() {
		msg.Payload = payload
	}
	order := rng.Perm(len(dst.Members))
	for _, i := range order {
		send(dst.Members[i].ID, msg)
	}
}

// SendOrdered is Send without the §5.1 destination-order randomization:
// every sender transmits to destination members in composition order. Only
// the ablation benchmarks use it — with per-node ingress bandwidth limits,
// synchronized senders all hit the first destination member at once and its
// ingress queue serializes the whole group message (TCP-incast-like
// collapse, the behaviour §5.1's randomization avoids).
func SendOrdered(send SendFn, src Composition, self ids.NodeID, dst Composition, kind Kind, msgID crypto.Digest, payload []byte) {
	msg := GroupMsg{
		SrcGroup:      src.GroupID,
		SrcEpoch:      src.Epoch,
		DstGroup:      dst.GroupID,
		DstEpoch:      dst.Epoch,
		Kind:          kind,
		MsgID:         msgID,
		PayloadDigest: crypto.Hash(payload),
	}
	if idx := src.Index(self); idx >= 0 && idx < src.Majority() {
		msg.Payload = payload
	}
	for _, m := range dst.Members {
		send(m.ID, msg)
	}
}

// SendToNode transmits one logical group message from self to a single node
// (used for join redirects and state snapshots).
func SendToNode(send SendFn, src Composition, self ids.NodeID, to ids.NodeID, kind Kind, msgID crypto.Digest, payload []byte) {
	msg := GroupMsg{
		SrcGroup:      src.GroupID,
		SrcEpoch:      src.Epoch,
		Kind:          kind,
		MsgID:         msgID,
		PayloadDigest: crypto.Hash(payload),
	}
	if idx := src.Index(self); idx >= 0 && idx < src.Majority() {
		msg.Payload = payload
	}
	send(to, msg)
}

// Accepted is a group message that crossed the majority threshold.
type Accepted struct {
	Src     Key
	Kind    Kind
	MsgID   crypto.Digest
	Payload []byte
	// Attachments maps each voting sender to its sender-specific attachment
	// (composition members that voted for the winning digest only; nil when
	// none of them attached anything).
	Attachments map[ids.NodeID][]byte
	// At is the local arrival time of the vote that crossed the threshold.
	At time.Duration
}
