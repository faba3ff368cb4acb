package group

import (
	"bytes"
	"time"

	"atum/internal/crypto"
	"atum/internal/ids"
)

// maxEntriesPerKey bounds the number of buffered logical messages per source
// composition, protecting receivers from hostile floods.
const maxEntriesPerKey = 1024

// maxDigestReuse bounds how many held payloads a full copy's bytes are
// compared against before the inbox hashes them instead. Honest traffic
// holds one payload per entry; the bound keeps a Byzantine sender that
// floods distinct payloads from making every later copy scan all of them.
const maxDigestReuse = 4

// Vote-table recycling bounds: the free list's length, and the capacities
// past which a table (grown by a hostile flood of senders or payloads) is
// dropped instead of reused.
const (
	maxFreeEntries      = 256
	maxRecycledVotes    = 64
	maxRecycledPayloads = maxDigestReuse
)

// Inbox is the receive side of the group-message primitive. One Inbox per
// node accumulates per-sender votes for each logical message and reports
// acceptance when a majority of the source composition delivered matching
// content and a full payload is available.
//
// Messages may arrive before their source composition is known (e.g. a
// neighbor reconfigured and its update is still in flight); such votes are
// buffered and re-evaluated via FlushKey once the composition is learned.
//
// Votes and payloads live in small per-entry slices, recycled through a free
// list, so counting a vote allocates nothing. An accepted entry becomes a
// tombstone: it drops its votes and payloads but stays in the map (and in
// its key's maxEntriesPerKey budget) until pruned, so stragglers are
// recognised as duplicates with one map lookup and no hashing.
type Inbox struct {
	lookup  func(Key) (Composition, bool)
	entries map[entryKey]entry
	byKey   map[Key]map[crypto.Digest]bool // src → msgIDs with entries, tombstones included
	free    []*votes
}

type entryKey struct {
	src   Key
	msgID crypto.Digest
}

// entry is one logical message. live is nil once the message was accepted.
type entry struct {
	firstAt time.Duration
	live    *votes
}

// votes is the vote table of one not-yet-accepted logical message.
type votes struct {
	kind     Kind
	votes    []vote     // first copy per sender, in arrival order
	payloads []heldCopy // one full payload per distinct digest
}

// vote is one sender's first copy of a logical message.
type vote struct {
	from   ids.NodeID
	digest crypto.Digest
	attach []byte
}

// heldCopy is a full payload with the digest the inbox derived from its
// bytes.
type heldCopy struct {
	digest  crypto.Digest
	payload []byte
}

// NewInbox creates an inbox; lookup resolves known compositions.
func NewInbox(lookup func(Key) (Composition, bool)) *Inbox {
	return &Inbox{
		lookup:  lookup,
		entries: make(map[entryKey]entry),
		byKey:   make(map[Key]map[crypto.Digest]bool),
	}
}

// Observe records the arrival of one GroupMsg copy from a link-authenticated
// sender. It returns the accepted logical message the first time the
// acceptance threshold is crossed.
//
// A full copy votes for the digest of its own bytes: Observe derives it,
// reusing the digest of an already-held payload when the bytes are equal
// and hashing otherwise, and drops the copy if its claimed PayloadDigest is
// non-zero and disagrees. A digest-only copy votes for its claimed digest.
// Copies of an accepted message return at once.
func (ib *Inbox) Observe(now time.Duration, from ids.NodeID, msg GroupMsg) (Accepted, bool) {
	ek := entryKey{src: Key{GroupID: msg.SrcGroup, Epoch: msg.SrcEpoch}, msgID: msg.MsgID}
	ent, exists := ib.entries[ek]
	if exists && ent.live == nil {
		return Accepted{}, false // straggler to an accepted message
	}
	digest := msg.PayloadDigest
	if msg.Payload != nil {
		d := ent.live.digestOf(msg.Payload)
		if !digest.IsZero() && d != digest {
			return Accepted{}, false // inconsistent copy; drop the vote entirely
		}
		digest = d
	}
	if !exists {
		set := ib.byKey[ek.src]
		if len(set) >= maxEntriesPerKey {
			return Accepted{}, false
		}
		if set == nil {
			set = make(map[crypto.Digest]bool)
			ib.byKey[ek.src] = set
		}
		set[ek.msgID] = true
		ent = entry{firstAt: now, live: ib.newVotes(msg.Kind)}
		ib.entries[ek] = ent
	}
	ent.live.add(from, digest, msg.Payload, msg.Attach)
	return ib.check(now, ek, ent)
}

// digestOf returns the digest of a full copy's bytes. A held payload's
// digest was derived from its bytes on arrival, so equal bytes reuse it.
func (v *votes) digestOf(p []byte) crypto.Digest {
	if v != nil {
		for i, h := range v.payloads {
			if i == maxDigestReuse {
				break
			}
			if bytes.Equal(h.payload, p) {
				return h.digest
			}
		}
	}
	return crypto.Hash(p)
}

// add records a copy: the sender's first vote wins (a Byzantine sender
// cannot flip its vote), and a full payload is held if no payload with its
// digest is held yet.
func (v *votes) add(from ids.NodeID, digest crypto.Digest, payload, attach []byte) {
	voted := false
	for i := range v.votes {
		if v.votes[i].from == from {
			voted = true
			break
		}
	}
	if !voted {
		v.votes = append(v.votes, vote{from: from, digest: digest, attach: attach})
	}
	if payload != nil && v.held(digest) == nil {
		v.payloads = append(v.payloads, heldCopy{digest: digest, payload: payload})
	}
}

// held returns the held payload with digest d, or nil.
func (v *votes) held(d crypto.Digest) []byte {
	for _, h := range v.payloads {
		if h.digest == d {
			return h.payload
		}
	}
	return nil
}

// check evaluates the acceptance rule for one live entry: some digest needs
// the votes of a majority of the source composition and a held payload. At
// most one digest can reach a majority, since each sender votes once.
func (ib *Inbox) check(now time.Duration, ek entryKey, ent entry) (Accepted, bool) {
	comp, known := ib.lookup(ek.src)
	if !known {
		return Accepted{}, false
	}
	v := ent.live
	for _, h := range v.payloads {
		count := 0
		for _, vt := range v.votes {
			if vt.digest == h.digest && comp.Contains(vt.from) {
				count++
			}
		}
		if count < comp.Majority() {
			continue
		}
		var attachments map[ids.NodeID][]byte
		for _, vt := range v.votes {
			if vt.attach != nil && vt.digest == h.digest && comp.Contains(vt.from) {
				if attachments == nil {
					attachments = make(map[ids.NodeID][]byte)
				}
				attachments[vt.from] = vt.attach
			}
		}
		acc := Accepted{Src: ek.src, Kind: v.kind, MsgID: ek.msgID,
			Payload: h.payload, Attachments: attachments, At: now}
		ib.entries[ek] = entry{firstAt: ent.firstAt} // tombstone
		ib.recycle(v)
		return acc, true
	}
	return Accepted{}, false
}

// newVotes returns an empty vote table, recycled when one is free.
func (ib *Inbox) newVotes(kind Kind) *votes {
	if n := len(ib.free); n > 0 {
		v := ib.free[n-1]
		ib.free = ib.free[:n-1]
		v.kind = kind
		return v
	}
	return &votes{kind: kind}
}

// recycle clears a vote table — dropping its references to payloads and
// attachments — and keeps it for reuse unless the free list is full or the
// table grew unusually large.
func (ib *Inbox) recycle(v *votes) {
	clear(v.votes)
	clear(v.payloads)
	v.votes, v.payloads = v.votes[:0], v.payloads[:0]
	if len(ib.free) < maxFreeEntries && cap(v.votes) <= maxRecycledVotes && cap(v.payloads) <= maxRecycledPayloads {
		ib.free = append(ib.free, v)
	}
}

// FlushKey re-evaluates buffered entries for a source composition that just
// became known, returning all newly accepted messages.
func (ib *Inbox) FlushKey(now time.Duration, src Key) []Accepted {
	var out []Accepted
	for msgID := range ib.byKey[src] {
		ek := entryKey{src: src, msgID: msgID}
		ent, ok := ib.entries[ek]
		if !ok || ent.live == nil {
			continue
		}
		if acc, ok := ib.check(now, ek, ent); ok {
			out = append(out, acc)
		}
	}
	return out
}

// Prune drops entries first observed before the deadline. Accepted entries
// are retained as tombstones until pruned, which suppresses duplicate
// deliveries from stragglers in the meantime.
func (ib *Inbox) Prune(before time.Duration) {
	for ek, ent := range ib.entries {
		if ent.firstAt < before {
			delete(ib.entries, ek)
			if ent.live != nil {
				ib.recycle(ent.live)
			}
			if set, ok := ib.byKey[ek.src]; ok {
				delete(set, ek.msgID)
				if len(set) == 0 {
					delete(ib.byKey, ek.src)
				}
			}
		}
	}
}

// Len returns the number of entries, tombstones included (for tests and
// metrics).
func (ib *Inbox) Len() int { return len(ib.entries) }
