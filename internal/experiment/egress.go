package experiment

import (
	"fmt"
	"time"

	"atum"
	"atum/internal/simnet"
	"atum/internal/smr"
)

// expChunk is the harness's registered raw-message type: a stand-in for
// AStream tier-2 data pushes, wire-framed under the benchmark extension tag
// (docs/WIRE.md: 0xA0–0xAF are reserved for in-repo benchmarks and tests).
type expChunk struct {
	Seq  uint64
	Data []byte
}

const rawTagExpChunk = 0xA0

func init() {
	atum.RegisterRawMessage(rawTagExpChunk, expChunk{},
		func(v any, e *atum.WireEncoder) {
			m := v.(expChunk)
			e.Uint64(m.Seq)
			e.VarBytes(m.Data)
		},
		func(d *atum.WireDecoder) any {
			return expChunk{Seq: d.Uint64(), Data: d.VarBytes()}
		})
}

// EgressTraffic is the measured cost of one egress configuration under the
// churn-storm scenario.
type EgressTraffic struct {
	Broadcasts int
	// MsgsPerBcast counts every network message (including intra-vgroup SMR
	// agreement, which the egress scheduler does not touch).
	MsgsPerBcast float64
	// LinkMsgsPerBcast counts overlay-link traffic only — group messages and
	// application raw messages — the per-destination sends the scheduler
	// coalesces. This is the "per-link messages" acceptance metric.
	LinkMsgsPerBcast float64
	BytesPerBcast    float64
	Delivered        float64 // fraction over stable members
	// Net is the simulator's counter diff over the measured window; two
	// runs with the same arguments must produce identical diffs.
	Net simnet.Stats
}

// linkMsgs counts overlay-link messages in a counter diff: everything except
// the node-level SMR envelopes, heartbeats, and join/renounce handshakes
// (intra-vgroup or point-to-point control traffic outside the scheduler's
// scope).
func linkMsgs(d simnet.Stats) int64 {
	var out int64
	for typ, c := range d.SentByType {
		switch typ {
		case "core.SMREnvelope", "core.Heartbeat", "core.JoinContact",
			"core.ContactInfo", "core.JoinRequest", "core.Renounce":
		default:
			out += c
		}
	}
	return out
}

// EgressRun measures dissemination cost under a churn storm with concurrent
// publishers and tier-2-style raw floods — the scenario the egress scheduler
// exists for. Per round, every publisher broadcasts one payload AND every
// stable member pushes chunksPerRound raw chunks to each member of its
// vgroup, while fresh nodes join and existing ones leave (driving walk,
// neighbor-update, and set-neighbor traffic). maxBatch is every node's
// Config.GossipMaxBatch: 0 selects the default (64), 1 sends batches of
// one. It is fixed from the first node on, so each configuration grows its
// own overlay from the same seed.
//
// Delivery is measured over stable members (nodes that are members before
// the first broadcast and still members after the drain); churners join and
// leave mid-dissemination by design.
func EgressRun(n, publishers, rounds, maxBatch int, seed int64) (EgressTraffic, error) {
	const (
		// chunksPerRound models AStream tier-2 data pushes. Tier-2 is a
		// flood: EVERY node re-pushes each chunk to its vgroup and neighbor
		// members, so per-node chunk egress is the norm — data traffic
		// scales with the system and dominates dissemination, which is
		// precisely the regime the per-destination raw queues target.
		roundDur       = 100 * time.Millisecond
		chunksPerRound = 8
		chunkBytes     = 256
	)
	cl := newCluster(smr.ModeSync, seed, nil, func(cfg *atum.Config) {
		cfg.Params = atum.Params{HC: 3, RWL: 4, GMax: 8, GMin: 4}
		cfg.RoundDuration = roundDur
		cfg.DisableShuffle = true
		cfg.HeartbeatEvery = time.Hour // isolate protocol traffic
		cfg.EvictAfter = 10 * time.Hour
		cfg.GossipMaxBatch = maxBatch
	})
	if err := cl.grow(n, time.Minute); err != nil {
		return EgressTraffic{}, fmt.Errorf("growth to %d nodes failed: %w", n, err)
	}
	cl.c.Run(5 * time.Second) // settle

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
	// Churners leave from the tail of the stable set (never publishers);
	// they stop counting as stable.
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

	chunk := make([]byte, chunkBytes)
	for i := range chunk {
		chunk[i] = byte(seed) + byte(i)
	}

	before := cl.c.Net.Stats()
	var payloads []string
	var rawSeq uint64
	for r := 0; r < rounds; r++ {
		// Churn storm: one node leaves, one fresh node joins, every round.
		if r < len(leavers) {
			_ = leavers[r].Leave()
		}
		fresh := cl.addNode()
		_ = fresh.Join(contact)
		for i, p := range pubs {
			payload := fmt.Sprintf("egress-%d-%d-%s", r, i, randTextSeeded(seed, 40))
			if p.BroadcastWith([]byte(payload), atum.BroadcastOpts{}) == nil {
				payloads = append(payloads, payload)
			}
		}
		// Tier-2-style flood: every member re-pushes chunks to its vgroup
		// peers — the per-destination raw hot path.
		for _, node := range stable {
			if !node.IsMember() {
				continue
			}
			self := node.Identity().ID
			for c := 0; c < chunksPerRound; c++ {
				rawSeq++
				for _, member := range node.GroupMembers() {
					if member.ID != self {
						node.SendRawWith(member.ID, expChunk{Seq: rawSeq, Data: chunk}, atum.SendOpts{})
					}
				}
			}
		}
		cl.c.Run(roundDur)
	}
	cl.c.Run(30 * roundDur) // drain dissemination and churn
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
	out := EgressTraffic{Broadcasts: len(payloads), Net: diff}
	if len(payloads) > 0 {
		out.MsgsPerBcast = float64(diff.Sent) / float64(len(payloads))
		out.LinkMsgsPerBcast = float64(linkMsgs(diff)) / float64(len(payloads))
		out.BytesPerBcast = float64(diff.BytesSent) / float64(len(payloads))
		if members > 0 {
			out.Delivered = float64(deliveredPairs) / float64(len(payloads)*members)
		}
	}
	return out, nil
}

// randTextSeeded derives a short deterministic filler string so payload
// sizes match across configurations.
func randTextSeeded(seed int64, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + (uint64(seed)*2654435761+uint64(i)*97)%26)
	}
	return string(b)
}

// Egress compares batches of one against the default batch size (64) under
// the churn-storm + multi-publisher + raw-flood scenario: per-link message
// counts and bytes drop because gossip, walk, churn and raw traffic bound
// for one destination share a carrier (§3.3.4's dissemination phase; cf.
// White-Box Atomic Multicast's per-destination payload aggregation).
func Egress(n, publishers, rounds int, seed int64) Table {
	t := Table{
		Title: fmt.Sprintf("Egress batching: N=%d, %d publishers, %d rounds, churn storm + raw floods",
			n, publishers, rounds),
		Header: []string{"config", "link_msgs_per_bcast", "msgs_per_bcast", "bytes_per_bcast", "delivered"},
	}
	var one, def EgressTraffic
	for _, c := range []struct {
		name     string
		maxBatch int
		out      *EgressTraffic
	}{
		{"batches of one", 1, &one},
		{"default (64)", 0, &def},
	} {
		tr, err := EgressRun(n, publishers, rounds, c.maxBatch, seed)
		if err != nil {
			t.Remarks = append(t.Remarks, c.name+": "+err.Error())
			continue
		}
		*c.out = tr
		t.Rows = append(t.Rows, []string{
			c.name,
			fmt.Sprintf("%.0f", tr.LinkMsgsPerBcast),
			fmt.Sprintf("%.0f", tr.MsgsPerBcast),
			fmt.Sprintf("%.0f", tr.BytesPerBcast),
			fmt.Sprintf("%.2f", tr.Delivered),
		})
	}
	if one.LinkMsgsPerBcast > 0 && def.LinkMsgsPerBcast > 0 {
		t.Remarks = append(t.Remarks, fmt.Sprintf(
			"per-link messages %.0f -> %.0f (%.0f%% reduction): everything bound for one destination shares a carrier",
			one.LinkMsgsPerBcast, def.LinkMsgsPerBcast,
			100*(1-def.LinkMsgsPerBcast/one.LinkMsgsPerBcast)))
		t.Remarks = append(t.Remarks,
			"link_msgs excludes intra-vgroup SMR agreement and node-level handshakes, which the scheduler does not touch",
			"GossipMaxBatch is fixed from the start, so each row grows its own overlay from the same seed")
	}
	return t
}
