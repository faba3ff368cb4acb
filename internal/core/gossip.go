package core

import (
	"time"

	"atum/internal/crypto"
	"atum/internal/egress"
	"atum/internal/group"
	"atum/internal/ids"
	"atum/internal/overlay"
)

// BroadcastWith disseminates a message to every node in the system
// (§3.3.4). Phase one is Byzantine agreement inside the caller's vgroup
// (the bcastOp below); phase two is gossip over the H-graph, shaped by the
// application's Forward callback. opts carries the flow-control options: a
// priority class and an optional TTL for the origin's first-hop egress
// enqueues (remote forwarders use defaults — see BroadcastOpts); the
// paper's zero-option behaviour is BroadcastOpts{}. Nothing in the wire
// format changes; the options only shape how the origin's egress scheduler
// treats this broadcast's gossip items.
func (n *Node) BroadcastWith(data []byte, opts BroadcastOpts) error {
	if n.phase != phaseMember || n.st == nil {
		return ErrNotMember
	}
	if len(data) > MaxBroadcastBytes {
		return ErrBroadcastTooLarge
	}
	n.opSeq++
	id := newBcastID(n.cfg.Identity.ID, n.opSeq, data)
	if opts != (BroadcastOpts{}) {
		n.rememberBcastOpts(id, opts)
	}
	n.proposeOp(bcastOp{BcastID: id, Origin: n.cfg.Identity.ID, Data: data})
	return nil
}

// newBcastID identifies one broadcast by its origin, the origin's operation
// sequence number, and the data.
func newBcastID(origin ids.NodeID, seq uint64, data []byte) crypto.Digest {
	id := crypto.HashUint64(tagBcast, uint64(origin))
	id = crypto.HashUint64(id, seq)
	return crypto.Hash(id[:], data)
}

// maxBcastOpts bounds the pending-options map: entries are consumed when the
// broadcast's op commits and applies locally; a node whose proposals never
// commit (departure mid-broadcast) must not leak them.
const maxBcastOpts = 1024

// rememberBcastOpts stashes the origin-side options until the bcastOp
// commits (applyBcast consumes them).
func (n *Node) rememberBcastOpts(id crypto.Digest, opts BroadcastOpts) {
	if n.bcastOpts == nil {
		n.bcastOpts = make(map[crypto.Digest]BroadcastOpts)
	}
	if _, ok := n.bcastOpts[id]; !ok {
		n.bcastOptsQ = append(n.bcastOptsQ, id)
		if len(n.bcastOptsQ) > maxBcastOpts {
			drop := n.bcastOptsQ[0]
			n.bcastOptsQ = n.bcastOptsQ[1:]
			delete(n.bcastOpts, drop)
		}
	}
	n.bcastOpts[id] = opts
}

// takeBcastOpts consumes the origin-side options for a committed broadcast
// (zero for remote origins and default-option sends).
func (n *Node) takeBcastOpts(id crypto.Digest) BroadcastOpts {
	opts, ok := n.bcastOpts[id]
	if ok {
		delete(n.bcastOpts, id)
	}
	return opts
}

// applyBcast delivers a committed broadcast inside the origin vgroup and
// starts the gossip phase.
func (n *Node) applyBcast(o bcastOp) {
	if !n.markSeen(o.BcastID) {
		return
	}
	opts := n.takeBcastOpts(o.BcastID)
	d := Delivery{BcastID: o.BcastID, Origin: o.Origin, Data: o.Data, Hops: 0}
	if n.cfg.Callbacks.Deliver != nil {
		n.cfg.Callbacks.Deliver(d)
	}
	n.forwardGossipWith(d, opts)
}

// handleGossip processes one gossip hop accepted from a neighboring vgroup.
// No agreement is needed: members act independently but identically —
// dedup by broadcast ID, deliver, and forward along links chosen by the
// (deterministic by default) Forward callback.
func (n *Node) handleGossip(acc group.Accepted, p gossipPayload) {
	if !n.markSeen(p.BcastID) {
		// A duplicate acceptance is the dissemination-tree demotion signal:
		// this link carried a payload some other link delivered first.
		n.emit(EventDuplicateDelivery, 1)
		n.treeDuplicate(acc.Src, p.BcastID)
		return
	}
	n.treeSawPayload(acc.Src.GroupID)
	d := Delivery{BcastID: p.BcastID, Origin: p.Origin, Data: p.Data, Hops: p.Hops}
	if n.cfg.Callbacks.Deliver != nil {
		n.cfg.Callbacks.Deliver(d)
	}
	n.forwardGossipWith(d, BroadcastOpts{})
}

// forwardGossip is forwardGossipWith at default options (remote hops and
// plain Broadcast).
func (n *Node) forwardGossip(d Delivery) { n.forwardGossipWith(d, BroadcastOpts{}) }

// forwardGossipWith offers every overlay link to the Forward callback and
// queues this member's share of the chosen group messages on the egress
// scheduler. The default (nil callback) floods all cycles in both
// directions, which is the latency-optimal configuration the paper's ASub
// experiments use; AStream restricts forwarding to one or two cycles (§6.3).
// The Forward decision is always taken here, per broadcast per link — the
// scheduler changes only how the chosen sends are framed, never which sends
// are chosen. All per-destination queueing lives in internal/egress. opts
// carries the origin's flow-control options (zero at remote hops).
func (n *Node) forwardGossipWith(d Delivery, opts BroadcastOpts) {
	st := n.st
	if st == nil {
		return
	}
	var expires time.Duration
	if opts.TTL > 0 {
		expires = n.env.Now() + opts.TTL
	}
	payload := n.encPayload(gossipPayload{BcastID: d.BcastID, Origin: d.Origin, Data: d.Data, Hops: d.Hops + 1})
	// The payload is the same on every link: hash it once, at the first
	// eager link, instead of once per link at framing time.
	var digest crypto.Digest
	n.treeRemember(d)
	sent := make(map[group.Key]bool)
	for c := 0; c < st.nbrs.NumCycles(); c++ {
		for _, dir := range []overlay.Direction{overlay.Pred, overlay.Succ} {
			nbr := st.nbrs.At(overlay.Link{Cycle: c, Dir: dir})
			if nbr.GroupID == 0 || nbr.GroupID == st.comp.GroupID || sent[nbr.Key()] {
				continue
			}
			link := ForwardLink{Cycle: c, Succ: dir == overlay.Succ, Neighbor: nbr.GroupID}
			if n.cfg.Callbacks.Forward != nil && !n.cfg.Callbacks.Forward(d, link) {
				continue
			}
			sent[nbr.Key()] = true
			if n.treeEnabled() && n.treeLazy(nbr.GroupID) {
				// Lazy tree link: announce instead of pushing the payload
				// (tree.go); a receiver that misses it grafts the link back.
				n.treeAnnounce(nbr, d)
				continue
			}
			if digest.IsZero() {
				digest = crypto.Hash(payload)
			}
			it := group.BatchItem{Kind: kindGossip, MsgID: gossipMsgID(d.BcastID, st.comp, nbr.GroupID),
				Payload: payload, Digest: digest}
			n.sendViaEgressWith(st.comp, nbr, it, egress.Class(opts.Priority), expires)
		}
	}
}

// applyNeighborUpdate installs a neighbor's reconfigured composition.
func (n *Node) applyNeighborUpdate(p neighborUpdatePayload) {
	if n.st == nil || p.NewComp.N() == 0 {
		return
	}
	n.learnComp(p.NewComp)
	n.st.nbrs.UpdateGroup(p.NewComp)
}

// applySetNeighbor re-points one overlay link (merge gap closing and split
// insertion).
func (n *Node) applySetNeighbor(p setNeighborPayload) {
	if n.st == nil || p.Comp.N() == 0 {
		return
	}
	n.learnComp(p.Comp)
	n.st.nbrs.Set(overlay.Link{Cycle: p.Cycle, Dir: p.Dir}, p.Comp.Clone())
}

// applyCycleAssign gives this (freshly split) vgroup its position on one
// cycle: unlink from the old position, adopt the new one.
func (n *Node) applyCycleAssign(p cycleAssignPayload) {
	st := n.st
	if st == nil || p.Cycle < 0 || p.Cycle >= st.nbrs.NumCycles() {
		return
	}
	n.learnComp(p.Pred)
	n.learnComp(p.Succ)
	oldPred := st.nbrs.Preds[p.Cycle]
	oldSucc := st.nbrs.Succs[p.Cycle]
	// Close the gap we leave behind (unless we were between the same
	// groups already, or self-looped).
	if oldPred.GroupID != st.comp.GroupID && oldPred.GroupID != p.Pred.GroupID {
		pl := n.encPayload(setNeighborPayload{Cycle: p.Cycle, Dir: overlay.Succ, Comp: oldSucc.Clone()})
		n.sendViaEgress(st.comp, oldPred, kindSetNeighbor,
			setNbrMsgID(st.comp, oldPred.GroupID, p.Cycle, overlay.Succ), pl)
	}
	if oldSucc.GroupID != st.comp.GroupID && oldSucc.GroupID != p.Succ.GroupID {
		pl := n.encPayload(setNeighborPayload{Cycle: p.Cycle, Dir: overlay.Pred, Comp: oldPred.Clone()})
		n.sendViaEgress(st.comp, oldSucc, kindSetNeighbor,
			setNbrMsgID(st.comp, oldSucc.GroupID, p.Cycle, overlay.Pred), pl)
	}
	st.nbrs.Preds[p.Cycle] = p.Pred.Clone()
	st.nbrs.Succs[p.Cycle] = p.Succ.Clone()
}

func setNbrMsgID(src group.Composition, dst ids.GroupID, cycle int, dir overlay.Direction) crypto.Digest {
	d := tagSetNbr
	d = crypto.HashUint64(d, uint64(src.GroupID))
	d = crypto.HashUint64(d, src.Epoch)
	d = crypto.HashUint64(d, uint64(dst))
	d = crypto.HashUint64(d, uint64(cycle)<<8|uint64(dir))
	return d
}

// maybeRefreshSender heals stale neighbor views: when another vgroup
// addresses us through an old epoch of our composition, members that
// belonged to that epoch reply with the current composition, stamped with
// the old epoch — which the sender can still validate. This bounds the
// drift between heavily churning neighbor vgroups to about one epoch per
// round trip; without it, simultaneous churn on both sides of a link can
// starve it permanently (§7's "complications" in practice).
func (n *Node) maybeRefreshSender(m group.GroupMsg) {
	st := n.st
	if st == nil || n.phase != phaseMember || n.byzActive() {
		return
	}
	if m.DstGroup != st.comp.GroupID || m.DstEpoch == 0 || m.DstEpoch >= st.comp.Epoch {
		return
	}
	oldKey := group.Key{GroupID: st.comp.GroupID, Epoch: m.DstEpoch}
	oldComp, ok := n.comps[oldKey]
	if !ok || !oldComp.Contains(n.cfg.Identity.ID) {
		return // we cannot attest that epoch
	}
	srcKey := group.Key{GroupID: m.SrcGroup, Epoch: m.SrcEpoch}
	now := n.env.Now()
	if last, ok := n.freshSent[srcKey]; ok && now-last < 4*n.cfg.RoundDuration {
		return
	}
	// Evict only entries past the suppression window: recreating the whole
	// map would forget rate-limit state written moments ago and re-open the
	// refresh-storm window this cache exists to close. A flood of forged
	// source keys can keep every entry inside the window, so a hard cap
	// still bounds memory — the wholesale reset survives only as that
	// under-attack fallback.
	if len(n.freshSent) > 256 {
		pruneStale(n.freshSent, now, 4*n.cfg.RoundDuration)
		if len(n.freshSent) > 1024 {
			n.freshSent = make(map[group.Key]time.Duration)
		}
	}
	n.freshSent[srcKey] = now
	srcComp, ok := n.lookupComp(srcKey)
	if !ok || srcComp.N() == 0 {
		return
	}
	payload := n.encPayload(neighborUpdatePayload{NewComp: st.comp.Clone()})
	msgID := freshMsgID(st.comp, m.SrcGroup)
	n.sendViaEgress(oldComp, srcComp, kindNeighborUpdate, msgID, payload)
}

func freshMsgID(cur group.Composition, to ids.GroupID) crypto.Digest {
	d := tagFresh
	d = crypto.HashUint64(d, uint64(cur.GroupID))
	d = crypto.HashUint64(d, cur.Epoch)
	d = crypto.HashUint64(d, uint64(to))
	return d
}

// pruneStale evicts rate-limiter entries whose timestamp fell outside the
// window; live entries survive, keeping suppression intact under overflow.
func pruneStale[K comparable](m map[K]time.Duration, now, window time.Duration) {
	for k, at := range m {
		if now-at >= window {
			delete(m, k)
		}
	}
}
