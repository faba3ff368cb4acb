package core

// Engine glue for the unified egress scheduler (internal/egress): every
// sender in the engine — gossip forwards, walk hops, neighbor/composition
// updates during churn, shuffle exchange control, and application raw
// messages — feeds the scheduler's per-destination queues instead of calling
// group.Send directly. The scheduler hands full batches back through
// egressFlush, which frames them as ordinary group messages (single item),
// kindBatch carriers (group destinations), or node-addressed raw carriers.
//
// Correctness needs no cross-member coordination: the receiver votes each
// inner item into its inbox under the item's own MsgID, so members whose
// flush windows cut differently still converge (internal/group/batch.go).
// Batches always leave stamped with the source composition captured at
// enqueue time — the scheduler flushes a destination whose source changes,
// and the engine calls FlushAll before every replicated-state replacement
// (reconfigure, split install, merge dissolve, epoch catch-up).

import (
	"time"

	"atum/internal/crypto"
	"atum/internal/egress"
	"atum/internal/group"
	"atum/internal/ids"
	"atum/internal/smr"
)

// egressFlushTimer drives the adaptive flush windows.
type egressFlushTimer struct{}

// newEgress builds the node's scheduler. The callbacks close over n: they
// run inside the node's event loop, after Start has set n.env.
func (n *Node) newEgress() *egress.Scheduler {
	limit, limitBytes := n.cfg.EgressQueueLimit, n.cfg.EgressQueueBytes
	if limit < 0 {
		limit = 0 // flow control disabled
	}
	if limitBytes < 0 {
		limitBytes = 0
	}
	return egress.New(egress.Config{
		MaxBatch:   n.cfg.GossipMaxBatch,
		MaxBytes:   n.cfg.GossipMaxBatchBytes,
		MaxWindow:  n.cfg.EgressMaxFlushWindow,
		Limit:      limit,
		LimitBytes: limitBytes,
		Now: func() time.Duration {
			if n.env == nil {
				return 0
			}
			return n.env.Now()
		},
		Arm: func(d time.Duration) {
			if n.env != nil {
				n.env.SetTimer(d, egressFlushTimer{})
			}
		},
		OnPressure: func(dest ids.NodeID, level egress.Level) {
			if n.cfg.Callbacks.OnEgressPressure != nil {
				n.cfg.Callbacks.OnEgressPressure(dest, PressureLevel(level))
			}
		},
		Flush: n.egressFlush,
	})
}

// batchableKinds is the receive-side allowlist: the only kinds a batch
// carrier may inject into the inbox. Everything else (snapshots, direct
// certificate-mode replies, merge negotiation) has node-addressed or
// special-cased handling that must not be reachable through a carrier.
var batchableKinds = map[group.Kind]bool{
	kindGossip:          true,
	kindWalk:            true,
	kindWalkBackward:    true,
	kindNeighborUpdate:  true,
	kindSetNeighbor:     true,
	kindCycleAssign:     true,
	kindExchangeConfirm: true,
	kindExchangeCancel:  true,
}

// flushAllEgress drains everything still pending toward the wire before a
// replicated-state replacement: lazy dissemination-tree announcements first
// (they enqueue onto the scheduler stamped with their enqueue-time
// composition), then the scheduler's own queues.
func (n *Node) flushAllEgress() {
	n.flushTreeIHaves()
	n.egress.FlushAll()
}

// sendViaEgress queues one group-addressed logical message on the egress
// scheduler. src is the composition the message's MsgID was derived under
// (usually the current one; the pre-bump composition during reconfiguration
// notices). In synchronous mode group sends are round-quantized anyway, so
// batches defer to the round-tick FlushAll instead of arming window timers.
func (n *Node) sendViaEgress(src, dst group.Composition, kind group.Kind, msgID crypto.Digest, payload []byte) {
	n.sendViaEgressWith(src, dst, group.BatchItem{Kind: kind, MsgID: msgID, Payload: payload}, egress.ClassControl, 0)
}

// sendViaEgressWith is sendViaEgress for a prepared item, with an explicit
// priority class and absolute expiry (0 = never): the origin of a
// BroadcastWith stamps its first-hop gossip items with the caller's
// flow-control options, and a gossip forward sets the item's payload digest
// once for all of its links.
func (n *Node) sendViaEgressWith(src, dst group.Composition, it group.BatchItem, class egress.Class, expires time.Duration) {
	if n.cfg.EgressGossipOnly && it.Kind != kindGossip {
		// Ablation/baseline: only the gossip kind rides the scheduler.
		group.SendItem(n.sendGroupQuantized, n.env.Rand(), src, n.cfg.Identity.ID, dst, it)
		return
	}
	n.egress.EnqueueGroupWith(src, dst, it, n.cfg.Mode == smr.ModeSync, class, expires)
}

// egressFlush is the scheduler's transmit callback: it frames one
// destination's batch onto the wire. It deliberately reads no node state
// beyond identity and randomness — the captured src/dst keep a flush correct
// even when it runs after the group state it was enqueued under is gone
// (merge dissolve, departure).
func (n *Node) egressFlush(src, dst group.Composition, node ids.NodeID, items []group.BatchItem) {
	if node != 0 {
		// Node-addressed raw batch: link-authenticated, full payloads, not
		// round-quantized (tier-2 data must not wait for round boundaries).
		if len(items) == 1 {
			it := items[0]
			n.sendNow(node, group.GroupMsg{
				SrcGroup: src.GroupID,
				SrcEpoch: src.Epoch,
				Kind:     it.Kind,
				MsgID:    it.MsgID,
				// SendRaw sets a kindRaw item's MsgID to its payload hash,
				// so the digest is already computed (the idle fast path is
				// per-chunk hot).
				PayloadDigest: it.MsgID,
				Payload:       it.Payload,
			})
			return
		}
		n.egressSeq++
		group.SendBatchToNode(n.sendNow, src, n.cfg.Identity.ID, node,
			kindBatch, batchMsgID(src, 0, n.cfg.Identity.ID, n.egressSeq), items)
		return
	}
	if len(items) == 1 {
		// A single pending item flushes as a plain group message: the batch
		// frame would only add overhead.
		group.SendItem(n.sendGroupQuantized, n.env.Rand(), src, n.cfg.Identity.ID, dst, items[0])
		return
	}
	n.egressSeq++
	group.SendBatch(n.sendGroupQuantized, n.env.Rand(), src, n.cfg.Identity.ID, dst,
		kindBatch, batchMsgID(src, dst.GroupID, n.cfg.Identity.ID, n.egressSeq), items)
}

// batchMsgID identifies one batch carrier. It is unique per sender, not
// matched across members: inner MsgIDs carry the logical identities.
func batchMsgID(src group.Composition, dst ids.GroupID, self ids.NodeID, seq uint64) crypto.Digest {
	d := tagBatch
	d = crypto.HashUint64(d, uint64(src.GroupID))
	d = crypto.HashUint64(d, src.Epoch)
	d = crypto.HashUint64(d, uint64(dst))
	d = crypto.HashUint64(d, uint64(self))
	d = crypto.HashUint64(d, seq)
	return d
}

// handleBatch unpacks a batch carrier and processes every inner item as if
// it had arrived as a separate message from the same link-authenticated
// sender. Votable kinds go through the inbox — dedup, delivery, and
// re-forwarding then follow the ordinary per-message path, so Forward-
// callback and agreement semantics hold per inner item, not per batch. Raw
// items go straight to the application hook, exactly like a direct SendRaw.
func (n *Node) handleBatch(from ids.NodeID, m group.GroupMsg) {
	inner, err := group.UnpackBatch(m)
	if err != nil {
		n.logf("egress batch from %v: %v", from, err)
		return
	}
	for _, im := range inner {
		switch {
		case im.Kind == kindRaw:
			if im.Payload != nil {
				n.handleRawItem(from, im.Payload)
			}
		case advisoryKinds[im.Kind]:
			// Tree advisory items bypass the inbox, exactly as when they
			// arrive as standalone group messages (tree.go).
			n.handleTreeAdvisory(from, im)
		case batchableKinds[im.Kind]:
			if acc, ok := n.inbox.Observe(n.env.Now(), from, im); ok {
				n.handleAccepted(acc)
			}
		default:
			// Unknown tags drop silently; a known-but-unbatchable kind
			// inside a carrier is a sender bug (or a hostile frame trying
			// to smuggle node-addressed traffic past its handler's
			// assumptions) and is worth a log line.
			if unbatchedKinds[im.Kind] {
				n.logf("egress batch from %v: kind %d is not batchable, dropped", from, im.Kind)
			}
		}
	}
}

// handleRawItem decodes one extension-framed application raw message and
// hands it to the OnRawMessage hook. Only extension-tag frames are
// accepted: a hostile peer must not be able to push engine-internal
// payload types (snapshots, nested SMR envelopes) into an application
// hook — or buy decode work on them — through the raw path.
func (n *Node) handleRawItem(from ids.NodeID, payload []byte) {
	if n.cfg.OnRawMessage == nil {
		return
	}
	if len(payload) < 3 || payload[0] != wireEnvMagic || payload[1] < RawTagMin {
		n.logf("raw item from %v: not an extension-tag frame", from)
		return
	}
	v, err := decodePayload(payload)
	if err != nil {
		n.logf("raw item from %v: %v", from, err)
		return
	}
	n.cfg.OnRawMessage(from, v)
}
