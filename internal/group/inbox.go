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

// Recycled-table capacity limits: a freed vote table whose slices grew
// past these (under a hostile flood of senders or payloads) drops them
// instead of keeping them for reuse.
const (
	maxRecycledVotes    = 64
	maxRecycledPayloads = maxDigestReuse
)

// minSlabShrink is the slab length below which Prune never compacts: a
// small slab is not worth renumbering its entries for.
const minSlabShrink = 64

// Inbox is the receive side of the group-message primitive. One Inbox per
// node accumulates per-sender votes for each logical message and reports
// acceptance when a majority of the source composition delivered matching
// content and a full payload is available.
//
// Messages may arrive before their source composition is known (e.g. a
// neighbor reconfigured and its update is still in flight); such votes are
// buffered and re-evaluated via FlushKey once the composition is learned.
//
// Entries live in one map per source composition, keyed by MsgID. An entry
// holds no pointer: its vote table is an index into a slab of tables whose
// freed slots are reused, so the garbage collector never scans the entry
// maps and counting a vote allocates nothing. An accepted entry becomes a
// tombstone: it releases its table but stays in its source's map (and in
// its maxEntriesPerKey budget) until pruned, so stragglers are recognised
// as duplicates with one map lookup and no hashing.
type Inbox struct {
	lookup func(Key) (Composition, bool)
	bySrc  map[Key]map[crypto.Digest]entry // tombstones included
	slab   []votes                         // vote tables of live entries
	free   []int32                         // unused slab indices
}

// entry is one logical message. live is 1 + the slab index of its vote
// table, or 0 once the message was accepted.
type entry struct {
	firstAt time.Duration
	live    int32
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
		lookup: lookup,
		bySrc:  make(map[Key]map[crypto.Digest]entry),
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
	src := Key{GroupID: msg.SrcGroup, Epoch: msg.SrcEpoch}
	entries := ib.bySrc[src]
	ent, exists := entries[msg.MsgID]
	if exists && ent.live == 0 {
		return Accepted{}, false // straggler to an accepted message
	}
	var v *votes
	if exists {
		v = &ib.slab[ent.live-1]
	}
	digest := msg.PayloadDigest
	if msg.Payload != nil {
		d := v.digestOf(msg.Payload)
		if !digest.IsZero() && d != digest {
			return Accepted{}, false // inconsistent copy; drop the vote entirely
		}
		digest = d
	}
	if !exists {
		if len(entries) >= maxEntriesPerKey {
			return Accepted{}, false
		}
		if entries == nil {
			entries = make(map[crypto.Digest]entry)
			ib.bySrc[src] = entries
		}
		ent = entry{firstAt: now, live: ib.newVotes(msg.Kind)}
		entries[msg.MsgID] = ent
		v = &ib.slab[ent.live-1]
	}
	v.add(from, digest, msg.Payload, msg.Attach)
	return ib.check(now, src, msg.MsgID, entries, ent)
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

// check evaluates the acceptance rule for one live entry of src's map
// entries: some digest needs the votes of a majority of the source
// composition and a held payload. At most one digest can reach a majority,
// since each sender votes once.
func (ib *Inbox) check(now time.Duration, src Key, msgID crypto.Digest, entries map[crypto.Digest]entry, ent entry) (Accepted, bool) {
	comp, known := ib.lookup(src)
	if !known {
		return Accepted{}, false
	}
	v := &ib.slab[ent.live-1]
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
		acc := Accepted{Src: src, Kind: v.kind, MsgID: msgID,
			Payload: h.payload, Attachments: attachments, At: now}
		entries[msgID] = entry{firstAt: ent.firstAt} // tombstone
		ib.release(ent.live)
		return acc, true
	}
	return Accepted{}, false
}

// newVotes returns 1 + the slab index of an empty vote table, reusing a
// freed slot when there is one.
func (ib *Inbox) newVotes(kind Kind) int32 {
	if n := len(ib.free); n > 0 {
		i := ib.free[n-1]
		ib.free = ib.free[:n-1]
		ib.slab[i].kind = kind
		return i + 1
	}
	ib.slab = append(ib.slab, votes{kind: kind})
	return int32(len(ib.slab))
}

// release clears the vote table of a live entry — dropping its references
// to payloads and attachments — and frees its slot. Slices that grew
// unusually large are dropped rather than kept for reuse.
func (ib *Inbox) release(live int32) {
	v := &ib.slab[live-1]
	clear(v.votes)
	clear(v.payloads)
	v.votes, v.payloads = v.votes[:0], v.payloads[:0]
	if cap(v.votes) > maxRecycledVotes {
		v.votes = nil
	}
	if cap(v.payloads) > maxRecycledPayloads {
		v.payloads = nil
	}
	ib.free = append(ib.free, live-1)
}

// FlushKey re-evaluates buffered entries for a source composition that just
// became known, returning all newly accepted messages.
func (ib *Inbox) FlushKey(now time.Duration, src Key) []Accepted {
	var out []Accepted
	entries := ib.bySrc[src]
	for msgID, ent := range entries {
		if ent.live == 0 {
			continue
		}
		if acc, ok := ib.check(now, src, msgID, entries, ent); ok {
			out = append(out, acc)
		}
	}
	return out
}

// Prune drops entries first observed before the deadline. Accepted entries
// are retained as tombstones until pruned, which suppresses duplicate
// deliveries from stragglers in the meantime. Once most of the slab is
// free — a flood grew it, and its entries are gone — Prune compacts it.
func (ib *Inbox) Prune(before time.Duration) {
	for src, entries := range ib.bySrc {
		for msgID, ent := range entries {
			if ent.firstAt < before {
				delete(entries, msgID)
				if ent.live != 0 {
					ib.release(ent.live)
				}
			}
		}
		if len(entries) == 0 {
			delete(ib.bySrc, src)
		}
	}
	if len(ib.slab) > minSlabShrink && 2*len(ib.free) > len(ib.slab) {
		ib.compact()
	}
}

// compact moves the live vote tables into a slab of exactly their number
// and renumbers their entries.
func (ib *Inbox) compact() {
	slab := make([]votes, 0, len(ib.slab)-len(ib.free))
	for _, entries := range ib.bySrc {
		for msgID, ent := range entries {
			if ent.live == 0 {
				continue
			}
			slab = append(slab, ib.slab[ent.live-1])
			ent.live = int32(len(slab))
			entries[msgID] = ent
		}
	}
	ib.slab, ib.free = slab, nil
}

// Len returns the number of entries, tombstones included (for tests and
// metrics).
func (ib *Inbox) Len() int {
	n := 0
	for _, entries := range ib.bySrc {
		n += len(entries)
	}
	return n
}
