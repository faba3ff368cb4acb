package core

// Batch-frame v2 system coverage, post-migration: every node emits v2
// carriers (the v1 writer is gone), and a carrier holding a v1 frame — a
// pre-v2 peer — is recognized and ignored rather than decoded or mistaken
// for corruption. This replaces the mixed-cluster interop tests that
// covered the one-release migration window, mirroring how the gob→wire
// envelope tests were retired after that migration.

import (
	"fmt"
	"testing"
	"time"

	"atum/internal/crypto"
	"atum/internal/group"
	"atum/internal/ids"
	"atum/internal/smr"
	"atum/internal/wire"
)

// TestBatchFrameClusterDelivery runs concurrent broadcast bursts from two
// publishers (bursts make batches actually form) and requires every member
// to deliver every payload exactly once off the v2 carriers.
func TestBatchFrameClusterDelivery(t *testing.T) {
	h := newHarness(t, smr.ModeSync, 23, func(cfg *Config) {
		cfg.DisableShuffle = true // freeze membership during dissemination
		cfg.EvictAfter = time.Hour
	})
	nodes := h.bootstrapSystem(smr.ModeSync, 12, 90*time.Second)
	h.net.Run(h.net.Now() + 10*time.Second)
	if len(h.groupsOf()) < 2 {
		t.Fatalf("expected multiple vgroups, got %d", len(h.groupsOf()))
	}

	pubA, pubB := nodes[0], nodes[1]
	var payloads []string
	for round := 0; round < 3; round++ {
		for i := 0; i < 4; i++ {
			for pi, pub := range []*Node{pubA, pubB} {
				p := fmt.Sprintf("burst-%d-%d-%d", pi, round, i)
				if err := pub.BroadcastWith([]byte(p), BroadcastOpts{}); err != nil {
					t.Fatalf("broadcast %s: %v", p, err)
				}
				payloads = append(payloads, p)
			}
		}
		h.net.Run(h.net.Now() + 200*time.Millisecond)
	}
	h.net.Run(h.net.Now() + 30*time.Second)

	members := 0
	for _, n := range nodes {
		if !n.IsMember() {
			continue
		}
		members++
		counts := make(map[string]int)
		for _, m := range h.delivered[n.cfg.Identity.ID] {
			counts[m]++
		}
		for _, p := range payloads {
			if counts[p] != 1 {
				t.Errorf("node %v delivered %q %d times, want exactly 1",
					n.cfg.Identity.ID, p, counts[p])
			}
		}
	}
	if members < len(nodes)-1 {
		t.Fatalf("only %d/%d nodes stayed members", members, len(nodes))
	}
}

// encodeLegacyV1Frame reproduces the removed v1 batch-frame writer for one
// full item: what a pre-v2 peer would put inside a batch carrier.
func encodeLegacyV1Frame(items []group.BatchItem) []byte {
	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	e.ListLen(len(items))
	for _, it := range items {
		e.Byte(byte(it.Kind))
		e.Bytes32(it.MsgID)
		e.Bool(true)
		e.VarBytes(it.Payload)
	}
	return e.Detach()
}

// TestLegacyV1BatchCarrierIgnored pins the receive side of the v1-writer
// removal: a batch carrier holding a v1 frame is dropped whole — no inner
// item reaches the raw hook — while the identical items in a v2 frame go
// through. The drop must be the explicit legacy rejection, not a crash or
// a silent partial decode.
func TestLegacyV1BatchCarrierIgnored(t *testing.T) {
	self := ids.NodeID(4)
	comp := testComp(9, 1, 4, 5, 6)
	src := testComp(7, 3, 1, 2, 3)
	n, _ := memberNode(t, self, comp, src)
	registerEgressTestMsg()
	var got []any
	n.cfg.OnRawMessage = func(_ ids.NodeID, msg any) { got = append(got, msg) }

	extFrame, err := MarshalRaw(egressTestMsg{Seq: 1, Body: []byte("chunk")})
	if err != nil {
		t.Fatal(err)
	}
	items := []group.BatchItem{{
		Kind:      kindRaw,
		MsgID:     crypto.Hash(extFrame),
		Payload:   extFrame,
		DerivedID: true,
	}}

	var carrier group.GroupMsg
	group.SendBatchToNode(func(_ ids.NodeID, m any) {
		carrier = m.(group.GroupMsg)
	}, src, 1, self, kindBatch, crypto.Hash([]byte("carrier")), items)

	n.handleBatch(1, carrier)
	if len(got) != 1 {
		t.Fatalf("v2 carrier delivered %d raw messages, want 1", len(got))
	}

	legacy := carrier
	legacy.Payload = encodeLegacyV1Frame(items)
	legacy.PayloadDigest = crypto.Hash(legacy.Payload)
	n.handleBatch(1, legacy)
	if len(got) != 1 {
		t.Fatalf("v1 carrier leaked %d raw messages through, want 0", len(got)-1)
	}
}
