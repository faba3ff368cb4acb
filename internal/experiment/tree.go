package experiment

import (
	"fmt"
	"time"

	"atum"
	"atum/internal/smr"
)

// TreeTraffic is the measured cost of one dissemination-tree configuration
// under the churn-storm + multi-publisher scenario.
type TreeTraffic struct {
	EgressTraffic
	// DupsPerBcast counts redundant gossip acceptances per broadcast
	// (EventDuplicateDelivery, attributed per receiving node) — the
	// redundancy the eager/lazy tree exists to prune away.
	DupsPerBcast float64
}

// TreeRun measures dissemination cost with the eager-push/lazy-IHAVE
// spanning tree on or off, under a churn storm with concurrent publishers.
// The toggle (Node.SetTreeGossip) flips AFTER growth so both configurations
// measure the same overlay topology, then a warmup window of unmeasured
// broadcasts lets duplicate deliveries generate the PRUNEs that carve the
// tree before the measured window opens. Fresh churn-storm joiners inherit
// the configuration so the arms stay comparable mid-measurement.
//
// Delivery is measured over stable members, as in EgressRun. The drain after
// the measured rounds is long enough to cover the lazy repair path: an IHAVE
// flush (TreeIHaveEvery rounds), the graft timer (TreeGraftTimeout = 4
// rounds by default), and up to three graft retries.
func TreeRun(n, publishers, rounds int, treeOn bool, seed int64) (TreeTraffic, error) {
	return treeScenario(n, publishers, rounds, treeOn, seed)
}

// treeScenario drives the churn-storm + multi-publisher scenario under one
// tree configuration. Unlike EgressRun it runs no tier-2 raw floods:
// the tree optimizes the gossip phase, and identical raw traffic in both
// arms would only dilute the per-link comparison.
func treeScenario(n, publishers, rounds int, treeOn bool, seed int64) (TreeTraffic, error) {
	const (
		roundDur = 100 * time.Millisecond
		// warmupRounds of unmeasured broadcasts converge the tree: first
		// deliveries mark links eager, duplicates vote lazy via PRUNE.
		warmupRounds = 8
	)
	cl := newCluster(smr.ModeSync, seed, nil, func(cfg *atum.Config) {
		cfg.Params = atum.Params{HC: 3, RWL: 4, GMax: 8, GMin: 4}
		cfg.RoundDuration = roundDur
		cfg.DisableShuffle = true
		cfg.HeartbeatEvery = time.Hour // isolate protocol traffic
		cfg.EvictAfter = 10 * time.Hour
	})
	if err := cl.grow(n, time.Minute); err != nil {
		return TreeTraffic{}, fmt.Errorf("growth to %d nodes failed: %w", n, err)
	}
	cl.c.Run(5 * time.Second) // settle
	// Identical growth history for every configuration; diverge only now.
	for _, node := range cl.nodes {
		node.Inner().SetTreeGossip(treeOn)
	}

	var pubs, stable []*atum.Node
	for _, node := range cl.nodes {
		if !node.IsMember() {
			continue
		}
		if len(pubs) < publishers {
			pubs = append(pubs, node)
		}
		stable = append(stable, node)
	}
	churners := len(stable) / 8
	if churners > rounds {
		churners = rounds
	}
	if len(stable)-churners <= publishers {
		churners = 0
	}
	leavers := stable[len(stable)-churners:]
	stable = stable[:len(stable)-churners]
	contact := pubs[0].Identity()

	// Warmup: unmeasured broadcasts classify the links. No churn here — the
	// tree should converge on the topology both arms share.
	for r := 0; r < warmupRounds; r++ {
		for i, p := range pubs {
			_ = p.BroadcastWith([]byte(fmt.Sprintf("tree-warm-%d-%d-%s", r, i, randTextSeeded(seed, 40))), atum.BroadcastOpts{})
		}
		cl.c.Run(roundDur)
	}
	cl.c.Run(10 * roundDur) // drain warmup dissemination and PRUNE votes

	before := cl.c.Net.Stats()
	var payloads []string
	for r := 0; r < rounds; r++ {
		// Churn storm: one node leaves, one fresh node joins, every round.
		if r < len(leavers) {
			_ = leavers[r].Leave()
		}
		fresh := cl.addNode()
		fresh.Inner().SetTreeGossip(treeOn)
		_ = fresh.Join(contact)
		for i, p := range pubs {
			payload := fmt.Sprintf("tree-%d-%d-%s", r, i, randTextSeeded(seed, 40))
			if p.BroadcastWith([]byte(payload), atum.BroadcastOpts{}) == nil {
				payloads = append(payloads, payload)
			}
		}
		cl.c.Run(roundDur)
	}
	// Drain covers IHAVE flush + graft timer + retries (lazy repair path).
	cl.c.Run(60 * roundDur)
	diff := cl.c.Net.Stats().Sub(before)

	members := 0
	deliveredPairs := 0
	for _, node := range stable {
		if !node.IsMember() {
			continue
		}
		members++
		for _, p := range payloads {
			if _, ok := cl.deliverAt[node.Identity().ID][p]; ok {
				deliveredPairs++
			}
		}
	}
	out := TreeTraffic{EgressTraffic: EgressTraffic{Broadcasts: len(payloads)}}
	if len(payloads) > 0 {
		out.MsgsPerBcast = float64(diff.Sent) / float64(len(payloads))
		out.LinkMsgsPerBcast = float64(linkMsgs(diff)) / float64(len(payloads))
		out.BytesPerBcast = float64(diff.BytesSent) / float64(len(payloads))
		if members > 0 {
			out.Delivered = float64(deliveredPairs) / float64(len(payloads)*members)
		}
		var dups int64
		for _, c := range diff.DuplicatesByType {
			dups += c
		}
		out.DupsPerBcast = float64(dups) / float64(len(payloads))
	}
	return out, nil
}

// Tree compares the eager/lazy dissemination tree against the flood-everywhere
// gossip phase (PR-5 unified-egress baseline) under the churn-storm +
// multi-publisher scenario: lazy links drop from per-round payload carriers to
// batched IHAVE digests from f+1 members every TreeIHaveEvery rounds, and the
// duplicate-delivery rate collapses with them.
func Tree(n, publishers, rounds int, seed int64) Table {
	t := Table{
		Title: fmt.Sprintf("Dissemination tree: N=%d, %d publishers, %d rounds, churn storm",
			n, publishers, rounds),
		Header: []string{"config", "link_msgs_per_bcast", "msgs_per_bcast", "bytes_per_bcast", "dups_per_bcast", "delivered"},
	}
	var flood, tree TreeTraffic
	for _, treeOn := range []bool{false, true} {
		name := "flood (PR5 baseline)"
		if treeOn {
			name = "eager/lazy tree"
		}
		tr, err := TreeRun(n, publishers, rounds, treeOn, seed)
		if err != nil {
			t.Remarks = append(t.Remarks, name+": "+err.Error())
			continue
		}
		if treeOn {
			tree = tr
		} else {
			flood = tr
		}
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%.0f", tr.LinkMsgsPerBcast),
			fmt.Sprintf("%.0f", tr.MsgsPerBcast),
			fmt.Sprintf("%.0f", tr.BytesPerBcast),
			fmt.Sprintf("%.1f", tr.DupsPerBcast),
			fmt.Sprintf("%.2f", tr.Delivered),
		})
	}
	if flood.LinkMsgsPerBcast > 0 && tree.LinkMsgsPerBcast > 0 {
		t.Remarks = append(t.Remarks, fmt.Sprintf(
			"per-link messages %.0f -> %.0f (%.0f%% reduction): lazy links carry batched IHAVE digests instead of payloads",
			flood.LinkMsgsPerBcast, tree.LinkMsgsPerBcast,
			100*(1-tree.LinkMsgsPerBcast/flood.LinkMsgsPerBcast)))
		t.Remarks = append(t.Remarks, fmt.Sprintf(
			"duplicate deliveries %.1f -> %.1f per broadcast (DuplicatesByType); GRAFT repair holds delivery at %.2f under churn",
			flood.DupsPerBcast, tree.DupsPerBcast, tree.Delivered))
	}
	return t
}
