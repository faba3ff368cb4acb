package core

// Plumtree-style dissemination tree over the gossip phase (epidemic
// broadcast trees adapted to Atum's vgroup overlay). The flood path
// (forwardGossipWith) pushes every payload over every overlay link; at
// steady state most of those copies are duplicates. With TreeGossip
// enabled, each member classifies its overlay links per neighbor vgroup as
// *eager* (payload push, the spanning-tree edges) or *lazy* (batched IHAVE
// digests only):
//
//   - A receiver that accepts a duplicate gossip payload votes to demote the
//     sending link — but only if that link is not one of its treeMinProviders
//     deterministically *kept* providers (a hash ranking over the neighbor
//     set; see treeKeptProvider). Race-based pruning would thrash: latency
//     jitter rotates which link delivers first, so every link eventually
//     loses and gets demoted, and the tree oscillates through graft-repair
//     storms. The deterministic ranking gives every vgroup the same stable
//     f+1-provider backbone. A sender demotes the link once f+1 distinct
//     members of the receiving vgroup have pruned it within the activity
//     window — a Byzantine minority must not be able to cut payload flow to
//     a correct group, and stale votes must not demote a current parent.
//   - Over lazy links, only the f+1 lowest-index members of the sending
//     composition announce (at least one announcer is correct), and they
//     announce node-to-node to only the f+1 lowest-index members of the lazy
//     vgroup (at least one receiver is correct). Announcements accumulate
//     per neighbor and flush every TreeIHaveEvery rounds as one batched
//     iHavePayload — this ((f+1)² endpoints × multi-broadcast coalescing ×
//     flush cadence) is where the lazy-link message reduction comes from.
//   - A receiver that sees an IHAVE for an undelivered broadcast arms a
//     TreeGraftTimeout timer through the injected clock, staggered by its
//     composition index. If the payload has not arrived when it fires, the
//     node promotes the announcing link back to eager and sends GRAFT to
//     fetch the payload — re-looking up the neighbor's latest composition on
//     each retry, which is also the churn/partition repair path (splits,
//     merges, and node replacement simply trigger grafts that rebuild the
//     tree). The graft response re-enters the ordinary gossip quorum path
//     addressed to the requester's whole vgroup, so one member's graft heals
//     every peer that missed the same broadcast.
//
// Tree state is member-local and advisory: it never feeds agreement, and a
// wrong belief costs one graft round trip, never delivery. Link identity is
// the neighbor GroupID, which is stable across composition changes (epochs
// bump, the GroupID survives); vgroups created by splits start eager, the
// safe default.

import (
	"time"

	"atum/internal/crypto"
	"atum/internal/egress"
	"atum/internal/group"
	"atum/internal/ids"
)

const (
	// treeGraftMaxTries bounds graft retries per missing broadcast; each
	// retry re-resolves the announcing vgroup's latest composition.
	treeGraftMaxTries = 3
	// maxTreeMiss bounds the outstanding-miss table.
	maxTreeMiss = 1024
	// maxTreeCache bounds the delivered-payload cache grafts are served from.
	maxTreeCache = 512
	// maxTreePending bounds accumulated IHAVE entries per lazy neighbor;
	// beyond it the batch flushes immediately.
	maxTreePending = 512
	// maxTreeLinks bounds the advisory link-state maps.
	maxTreeLinks = 512
	// treeMinProviders is the receiver-side floor on eager in-links: a member
	// refuses to prune a link unless at least this many OTHER vgroups have
	// recently delivered payloads to it. Two providers (f+1 under the
	// single-faulty-provider assumption) keep every vgroup reachable when one
	// provider churns away, and — critically — make the demotion dynamics
	// stable: with exactly the floor left, no member votes to prune, so the
	// tree cannot over-prune itself into graft-repair storms.
	treeMinProviders = 2
)

// treeMissTimer fires TreeGraftTimeout after the first IHAVE for an
// undelivered broadcast (virtual-time-safe: armed via the injected clock).
type treeMissTimer struct{ BcastID crypto.Digest }

// treePending accumulates IHAVE entries for one lazy neighbor, stamped with
// the compositions captured when the first entry was enqueued — a flush
// forced by state replacement (merge dissolve, reconfigure) must depart
// under the composition the announcements were made under.
type treePending struct {
	src     group.Composition
	dst     group.Composition
	entries []iHaveEntry
}

// treeMiss tracks one announced-but-undelivered broadcast.
type treeMiss struct {
	gid   ids.GroupID // announcing vgroup (graft target)
	tries int
}

// treeCached is one delivered broadcast retained for graft service.
type treeCached struct {
	origin ids.NodeID
	data   []byte
	hops   int
}

// treeGraftKey rate-limits graft service per (requesting vgroup, broadcast):
// the response is group-addressed, so one member's graft heals the whole
// group and its peers' staggered requests within the window are already
// served. This map is deliberately separate from the freshSent/reShared
// limiters: those suppress *re-shares* of state the peer already holds,
// while a graft re-send is the first payload copy the requester ever gets
// from us — sharing a limiter would suppress the repair path as "already
// shared".
type treeGraftKey struct {
	gid     ids.GroupID
	bcastID crypto.Digest
}

// treeState is the member-local dissemination-tree state.
type treeState struct {
	lazy       map[ids.GroupID]bool                         // demoted links (absent = eager)
	pruneVotes map[ids.GroupID]map[ids.NodeID]time.Duration // timed prune votes per link
	pending    map[ids.GroupID]*treePending                 // IHAVEs awaiting the cadence flush
	miss       map[crypto.Digest]*treeMiss                  // announced, not yet delivered
	cache      map[crypto.Digest]treeCached                 // graft service payloads
	cacheQ     []crypto.Digest                              // FIFO over cache
	active     map[ids.GroupID]time.Duration                // last payload arrival per provider vgroup
	pruneSent  map[ids.GroupID]time.Duration                // PRUNE rate limit per link
	graftSent  map[treeGraftKey]time.Duration               // graft service rate limit
}

func newTreeState() *treeState {
	return &treeState{
		lazy:       make(map[ids.GroupID]bool),
		pruneVotes: make(map[ids.GroupID]map[ids.NodeID]time.Duration),
		pending:    make(map[ids.GroupID]*treePending),
		miss:       make(map[crypto.Digest]*treeMiss),
		cache:      make(map[crypto.Digest]treeCached),
		active:     make(map[ids.GroupID]time.Duration),
		pruneSent:  make(map[ids.GroupID]time.Duration),
		graftSent:  make(map[treeGraftKey]time.Duration),
	}
}

func (n *Node) treeEnabled() bool { return n.cfg.TreeGossip }

// treeLazy reports whether the link to neighbor vgroup gid is demoted.
// Unknown links are eager — the safe default for freshly split vgroups.
func (n *Node) treeLazy(gid ids.GroupID) bool { return n.tree.lazy[gid] }

// TreeEagerLink reports whether the link to neighbor vgroup gid is
// currently eager (true whenever the tree is disabled). Tier-2 layers
// (astream) use it to pick forest parents from the tree.
func (n *Node) TreeEagerLink(gid ids.GroupID) bool {
	return !n.treeEnabled() || !n.treeLazy(gid)
}

// FaultBound returns the configured mode's fault bound f for a group of the
// given size (exported for tier-2 layers sizing f+1-parent forests).
func (n *Node) FaultBound(groupSize int) int { return n.cfg.Mode.F(groupSize) }

// SetTreeGossip toggles the dissemination tree at runtime. The experiment
// harness uses it so the tree and flood measurements share one identical
// growth history (same rationale as SetEgressGossipOnly). Disabling flushes
// pending announcements first — broadcasts already withheld from a lazy
// link would otherwise lose their IHAVE and never reach it from this
// member — and resets link state so a later re-enable starts from the
// all-eager default.
func (n *Node) SetTreeGossip(v bool) {
	if !v && n.cfg.TreeGossip && n.env != nil {
		n.flushTreeIHaves()
	}
	if !v {
		n.tree = newTreeState()
	}
	n.cfg.TreeGossip = v
}

// treeRemember retains a delivered broadcast for graft service and clears
// any outstanding miss for it.
func (n *Node) treeRemember(d Delivery) {
	if !n.treeEnabled() {
		return
	}
	delete(n.tree.miss, d.BcastID)
	if _, ok := n.tree.cache[d.BcastID]; ok {
		return
	}
	n.tree.cache[d.BcastID] = treeCached{origin: d.Origin, data: d.Data, hops: d.Hops}
	n.tree.cacheQ = append(n.tree.cacheQ, d.BcastID)
	if len(n.tree.cacheQ) > maxTreeCache {
		drop := n.tree.cacheQ[0]
		n.tree.cacheQ = n.tree.cacheQ[1:]
		delete(n.tree.cache, drop)
	}
}

// treeAnnounce records one broadcast for lazy announcement to nbr instead
// of pushing the payload. Only the f+1 lowest-index members announce: their
// copies always carry the full IHAVE payload under §5.1 digest stripping,
// and at least one of them is correct.
func (n *Node) treeAnnounce(nbr group.Composition, d Delivery) {
	st := n.st
	idx := st.comp.Index(n.cfg.Identity.ID)
	if idx < 0 || idx > n.f() {
		return
	}
	p := n.tree.pending[nbr.GroupID]
	if p == nil {
		p = &treePending{src: st.comp.Clone(), dst: nbr.Clone()}
		n.tree.pending[nbr.GroupID] = p
	}
	p.entries = append(p.entries, iHaveEntry{BcastID: d.BcastID, Hops: d.Hops + 1})
	if len(p.entries) >= maxTreePending {
		n.flushTreePending(nbr.GroupID, p)
	}
}

// flushTreeIHaves flushes every pending lazy announcement. Called on the
// TreeIHaveEvery round cadence and — via flushAllEgress — before every
// replicated-state replacement, so announcements always depart stamped with
// their enqueue-time composition.
func (n *Node) flushTreeIHaves() {
	for gid, p := range n.tree.pending {
		n.flushTreePending(gid, p)
	}
}

func (n *Node) flushTreePending(gid ids.GroupID, p *treePending) {
	delete(n.tree.pending, gid)
	if len(p.entries) == 0 {
		return
	}
	// Source stays the enqueue-time composition (the flush-before-state-
	// replacement invariant); the destination is re-resolved to the freshest
	// known epoch — announcements stamped with a neighbor epoch that churned
	// mid-window would trigger a composition-refresh reply per flush.
	dst := p.dst
	if cur, ok := n.latestComp[gid]; ok && cur.Epoch >= dst.Epoch && cur.N() > 0 {
		dst = cur
	}
	payload := n.encPayload(iHavePayload{Entries: p.entries})
	// Only the f+1 lowest-index members of the lazy vgroup get the digest:
	// at least one of them is correct, its graft draws a group-addressed
	// response that heals every member, and announcing node-to-node instead
	// of group-wide cuts the lazy-link message cost by |dst|/(f+1). MsgID is
	// the payload hash — advisory traffic never enters the inbox, and the
	// node-addressed egress path frames PayloadDigest from it. ClassControl
	// with no expiry: a TTL-shed digest silently re-opens the miss window
	// the graft timer closes.
	it := group.BatchItem{Kind: kindIHave, MsgID: crypto.Hash(payload), Payload: payload}
	k := n.cfg.Mode.F(dst.N()) + 1
	if k > dst.N() {
		k = dst.N()
	}
	for i := 0; i < k; i++ {
		if mem := dst.Members[i]; mem.ID != n.cfg.Identity.ID {
			_ = n.egress.EnqueueNodeWith(p.src, mem.ID, it, egress.ClassControl, 0)
		}
	}
}

// treeSawPayload records a payload arrival (first delivery or duplicate)
// from a neighboring vgroup: the provider-activity table backing the
// receiver-side prune guard.
func (n *Node) treeSawPayload(gid ids.GroupID) {
	if !n.treeEnabled() || n.st == nil || gid == 0 || gid == n.st.comp.GroupID {
		return
	}
	now := n.env.Now()
	if len(n.tree.active) > maxTreeLinks {
		pruneStale(n.tree.active, now, n.treeActiveWindow())
	}
	n.tree.active[gid] = now
}

// treeActiveWindow is how long a payload arrival counts a vgroup as an
// active provider for the prune guard, and how long a prune vote stays
// fresh at the sender. Long enough to span a TreeIHaveEvery flush plus a
// graft round trip; short enough that demotion pressure tracks the current
// tree, not history.
func (n *Node) treeActiveWindow() time.Duration { return 8 * n.cfg.RoundDuration }

// treeProviders counts vgroups other than excl that delivered a payload to
// this member within the activity window.
func (n *Node) treeProviders(now time.Duration, excl ids.GroupID) int {
	count := 0
	for gid, at := range n.tree.active {
		if gid != excl && now-at <= n.treeActiveWindow() {
			count++
		}
	}
	return count
}

// treeKeptProvider reports whether this member wants src as one of its
// eager providers. Which links stay eager must NOT be decided by delivery
// races: per-message latency jitter rotates the race winner, so a
// prune-the-loser rule demotes every link eventually and the tree thrashes
// between over-pruned (graft-repair storms) and re-promoted. Instead each
// receiver keeps the treeMinProviders in-links with the lowest deterministic
// rank — a hash of (receiver vgroup, provider vgroup) — and votes to prune
// duplicates from every other link. All members of a vgroup compute the
// same ranking over the same (symmetric) H-graph neighbor set, so their f+1
// votes land on the same links within the same window and senders demote
// atomically: no partial demotion, no oscillation. Rank is keyed by
// GroupID, which survives epochs; splits and merges re-rank naturally.
func (n *Node) treeKeptProvider(src ids.GroupID) bool {
	st := n.st
	srcRank := treeRank(st.comp.GroupID, src)
	better := 0
	counted := make(map[ids.GroupID]bool)
	for c := 0; c < st.nbrs.NumCycles(); c++ {
		for _, gid := range []ids.GroupID{st.nbrs.Preds[c].GroupID, st.nbrs.Succs[c].GroupID} {
			if gid == 0 || gid == st.comp.GroupID || gid == src || counted[gid] {
				continue
			}
			counted[gid] = true
			if r := treeRank(st.comp.GroupID, gid); bytesLess(r[:], srcRank[:]) {
				better++
			}
		}
	}
	return better < treeMinProviders
}

// bytesLess is a lexicographic compare for rank digests.
func bytesLess(a, b []byte) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// treeRank orders the in-links of vgroup dst deterministically.
func treeRank(dst, src ids.GroupID) crypto.Digest {
	d := tagTreeRank
	d = crypto.HashUint64(d, uint64(dst))
	d = crypto.HashUint64(d, uint64(src))
	return d
}

// treeDuplicate reacts to a duplicate gossip acceptance: ask the sending
// vgroup to demote its link to us — unless the link is one of this
// member's deterministically kept providers (see treeKeptProvider), or
// fewer than treeMinProviders other vgroups have delivered payloads
// recently (the safety floor: a member short on live providers keeps every
// link it has, whatever the ranking says). Rate-limited per link — one
// duplicate per window is signal enough.
func (n *Node) treeDuplicate(src group.Key, bcastID crypto.Digest) {
	if !n.treeEnabled() || n.st == nil || n.phase != phaseMember {
		return
	}
	if src.GroupID == 0 || src.GroupID == n.st.comp.GroupID {
		return
	}
	n.treeSawPayload(src.GroupID)
	now := n.env.Now()
	window := 4 * n.cfg.RoundDuration
	if last, ok := n.tree.pruneSent[src.GroupID]; ok && now-last < window {
		return
	}
	if n.treeKeptProvider(src.GroupID) {
		return
	}
	if n.treeProviders(now, src.GroupID) < treeMinProviders {
		return
	}
	if len(n.tree.pruneSent) > maxTreeLinks {
		pruneStale(n.tree.pruneSent, now, window)
	}
	n.tree.pruneSent[src.GroupID] = now
	dst, ok := n.lookupComp(src)
	if !ok || dst.N() == 0 {
		return
	}
	payload := n.encPayload(prunePayload{BcastID: bcastID})
	n.sendViaEgress(n.st.comp, dst, kindPrune, pruneMsgID(n.st.comp, src.GroupID, bcastID), payload)
}

func pruneMsgID(src group.Composition, dst ids.GroupID, bcastID crypto.Digest) crypto.Digest {
	d := tagPrune
	d = crypto.HashUint64(d, uint64(src.GroupID))
	d = crypto.HashUint64(d, src.Epoch)
	d = crypto.HashUint64(d, uint64(dst))
	d = crypto.Hash(d[:], bcastID[:])
	return d
}

// handleTreeAdvisory dispatches the three advisory kinds. They bypass the
// inbox by design (link-authenticated only): tree state is member-local and
// self-healing, so majority-matching advisory traffic would buy nothing.
// The sender must still belong to the vgroup it claims to speak for.
func (n *Node) handleTreeAdvisory(from ids.NodeID, m group.GroupMsg) {
	if !n.treeEnabled() || n.st == nil || n.phase != phaseMember || n.byzActive() {
		return
	}
	if m.SrcGroup == 0 || m.SrcGroup == n.st.comp.GroupID {
		return
	}
	comp, ok := n.lookupComp(group.Key{GroupID: m.SrcGroup, Epoch: m.SrcEpoch})
	if !ok || !comp.Contains(from) {
		return
	}
	switch m.Kind {
	case kindIHave:
		if m.Payload == nil {
			return
		}
		v, err := decodePayload(m.Payload)
		if err != nil {
			return
		}
		if p, ok := v.(iHavePayload); ok {
			n.handleIHave(m.SrcGroup, p)
		}
	case kindGraft:
		if m.Payload == nil {
			return
		}
		v, err := decodePayload(m.Payload)
		if err != nil {
			return
		}
		if p, ok := v.(graftPayload); ok {
			n.handleGraft(from, m.SrcGroup, comp, p)
		}
	case kindPrune:
		// The payload may be digest-stripped (§5.1) — the kind plus the
		// link-authenticated sender is all the demotion quorum counts.
		n.handlePrune(from, m.SrcGroup, comp)
	}
}

// handleIHave records announced broadcasts this node has not delivered and
// arms the graft timer for new ones. The timer is staggered by this
// member's composition index: the graft response is group-addressed, so the
// lowest-index member's graft heals the whole vgroup and its peers' timers
// find the broadcast already delivered — one repair round trip per vgroup
// instead of one per member.
func (n *Node) handleIHave(gid ids.GroupID, p iHavePayload) {
	delay := n.cfg.TreeGraftTimeout
	if idx := n.st.comp.Index(n.cfg.Identity.ID); idx > 0 {
		delay += time.Duration(idx) * n.cfg.RoundDuration
	}
	for _, e := range p.Entries {
		if n.seen[e.BcastID] {
			continue
		}
		if _, ok := n.tree.miss[e.BcastID]; ok {
			continue // timer already armed, first announcer wins
		}
		if len(n.tree.miss) >= maxTreeMiss {
			return
		}
		n.tree.miss[e.BcastID] = &treeMiss{gid: gid}
		n.env.SetTimer(delay, treeMissTimer{BcastID: e.BcastID})
	}
}

// handleTreeMiss fires when the graft timer for an announced broadcast
// expires. If the payload still has not arrived, promote the announcing
// link back to eager and graft — re-resolving the vgroup's latest
// composition on every retry, so grafts chase churn instead of dying with
// the composition they were first addressed to.
func (n *Node) handleTreeMiss(bcastID crypto.Digest) {
	ms, ok := n.tree.miss[bcastID]
	if !ok {
		return
	}
	if n.seen[bcastID] || !n.treeEnabled() || n.st == nil || n.phase != phaseMember {
		delete(n.tree.miss, bcastID)
		return
	}
	ms.tries++
	if ms.tries > treeGraftMaxTries {
		delete(n.tree.miss, bcastID)
		return
	}
	delete(n.tree.lazy, ms.gid)
	delete(n.tree.pruneVotes, ms.gid)
	dst, ok := n.latestComp[ms.gid]
	if !ok || dst.N() == 0 {
		delete(n.tree.miss, bcastID)
		return
	}
	payload := n.encPayload(graftPayload{BcastIDs: []crypto.Digest{bcastID}})
	// Node-addressed with the payload forced on: a group-addressed send
	// from a member above the majority index would strip the request body.
	// Any single correct receiver suffices to serve the graft, but every
	// member gets it so the responses majority-vote at our inbox.
	msg := group.GroupMsg{
		SrcGroup:      n.st.comp.GroupID,
		SrcEpoch:      n.st.comp.Epoch,
		Kind:          kindGraft,
		MsgID:         graftMsgID(n.st.comp, ms.gid, bcastID),
		PayloadDigest: crypto.Hash(payload),
		Payload:       payload,
	}
	for _, mem := range dst.Members {
		if mem.ID != n.cfg.Identity.ID {
			//atumvet:allow egressonly graft repair is the loss-recovery path: deferring it to batch windows would stack timeouts
			n.sendNow(mem.ID, msg)
		}
	}
	n.env.SetTimer(n.cfg.TreeGraftTimeout, treeMissTimer{BcastID: bcastID})
}

func graftMsgID(src group.Composition, dst ids.GroupID, bcastID crypto.Digest) crypto.Digest {
	d := tagGraft
	d = crypto.HashUint64(d, uint64(src.GroupID))
	d = crypto.HashUint64(d, src.Epoch)
	d = crypto.HashUint64(d, uint64(dst))
	d = crypto.Hash(d[:], bcastID[:])
	return d
}

// handleGraft promotes the requester's link back to eager and re-sends the
// requested payloads from the delivery cache. The response is addressed to
// the requester's whole vgroup through the egress scheduler, under the
// ordinary gossip MsgID for that vgroup: every grafted member responds with
// the same MsgID, so each requester-side inbox majority-votes the
// re-delivery exactly like a first delivery (the §5.1 index rule decides
// who attaches the full payload) — and one member's graft heals every peer
// that missed the same broadcast.
func (n *Node) handleGraft(from ids.NodeID, gid ids.GroupID, comp group.Composition, p graftPayload) {
	delete(n.tree.lazy, gid)
	delete(n.tree.pruneVotes, gid)
	now := n.env.Now()
	window := 4 * n.cfg.RoundDuration
	if len(n.tree.graftSent) > maxTreeLinks {
		pruneStale(n.tree.graftSent, now, window)
	}
	for _, id := range p.BcastIDs {
		cb, ok := n.tree.cache[id]
		if !ok {
			continue
		}
		key := treeGraftKey{gid: gid, bcastID: id}
		if last, ok := n.tree.graftSent[key]; ok && now-last < window {
			continue
		}
		n.tree.graftSent[key] = now
		payload := n.encPayload(gossipPayload{BcastID: id, Origin: cb.origin, Data: cb.data, Hops: cb.hops})
		// ClassControl, no expiry: shedding a repair payload would silently
		// re-open the miss window the graft just closed.
		n.sendViaEgress(n.st.comp, comp, kindGossip, gossipMsgID(id, n.st.comp, gid), payload)
	}
}

// handlePrune counts one demotion vote for the link to the pruning vgroup.
// Demotion needs f+1 distinct senders — validated against that vgroup's
// composition — voting within the activity window: a Byzantine minority
// must not be able to lazy-out a link to a correct group, and votes left
// over from races the link lost long ago must not pile up and demote a
// link that has since become the receiver's spanning-tree parent.
func (n *Node) handlePrune(from ids.NodeID, gid ids.GroupID, comp group.Composition) {
	if n.tree.lazy[gid] {
		return
	}
	now := n.env.Now()
	votes := n.tree.pruneVotes[gid]
	if votes == nil {
		if len(n.tree.pruneVotes) >= maxTreeLinks || len(n.tree.lazy) >= maxTreeLinks {
			return
		}
		votes = make(map[ids.NodeID]time.Duration)
		n.tree.pruneVotes[gid] = votes
	}
	pruneStale(votes, now, n.treeActiveWindow())
	votes[from] = now
	if len(votes) >= n.cfg.Mode.F(comp.N())+1 {
		n.tree.lazy[gid] = true
		delete(n.tree.pruneVotes, gid)
	}
}
