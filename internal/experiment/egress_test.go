package experiment

import (
	"reflect"
	"testing"
)

// The churn-storm + 8-publisher + raw-flood scenario at N=24, 6 rounds,
// seed 1 reproduces exactly, so its figures are pinned as absolute bounds.
// The bounds come from the gossip-only egress baseline this scenario was
// first measured against (only gossip batched; walk, churn and raw traffic
// sent one message per send per link), which measured 198.46 link and
// 293.10 total msgs and 142,159 bytes per broadcast. That mode is gone;
// the default path measures 118.67, 213.54 and 121,944.
const (
	egressN, egressPubs, egressRounds, egressSeed = 24, 8, 6, 1

	maxLinkMsgsPerBcast    = 148    // 25 % below the gossip-only 198.46
	gossipOnlyMsgsPerBcast = 293    // total msgs: a strict upper bound
	maxBytesPerBcast       = 142158 // below the gossip-only 142,159
)

func defaultEgressRun(t *testing.T) EgressTraffic {
	t.Helper()
	tr, err := EgressRun(egressN, egressPubs, egressRounds, 0, egressSeed)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Delivered != 1 {
		t.Fatalf("delivery not 100%%: %.3f", tr.Delivered)
	}
	return tr
}

// TestEgressReducesLinkMessages pins the default egress path's per-link and
// total message cost under the churn storm: at least 25 % fewer per-link
// messages than the gossip-only baseline, fewer total messages (the
// scheduler must not pay for link savings with extra control traffic), at
// 100 % delivery on stable members.
func TestEgressReducesLinkMessages(t *testing.T) {
	tr := defaultEgressRun(t)
	if tr.LinkMsgsPerBcast <= 0 || tr.LinkMsgsPerBcast > maxLinkMsgsPerBcast {
		t.Fatalf("link msgs/bcast %.2f, want in (0, %d]", tr.LinkMsgsPerBcast, maxLinkMsgsPerBcast)
	}
	if tr.MsgsPerBcast >= gossipOnlyMsgsPerBcast {
		t.Fatalf("total msgs/bcast %.2f, want < %d", tr.MsgsPerBcast, gossipOnlyMsgsPerBcast)
	}
	t.Logf("link msgs/bcast %.2f, total %.2f, bytes %.0f", tr.LinkMsgsPerBcast, tr.MsgsPerBcast, tr.BytesPerBcast)
}

// TestEgressBytesAtOrBelowGossipOnlyBaseline pins the v2 batch frames' byte
// cost: the default path's bytes per broadcast stay below the gossip-only
// baseline it once regressed against.
func TestEgressBytesAtOrBelowGossipOnlyBaseline(t *testing.T) {
	tr := defaultEgressRun(t)
	if tr.BytesPerBcast <= 0 || tr.BytesPerBcast > maxBytesPerBcast {
		t.Fatalf("bytes/bcast %.0f, want in (0, %d]", tr.BytesPerBcast, maxBytesPerBcast)
	}
}

// TestBatchingReducesTraffic compares the default batch size against
// batches of one: coalescing per destination sends fewer link messages,
// fewer messages in total and fewer wire bytes per broadcast, without
// losing a delivery in either configuration.
func TestBatchingReducesTraffic(t *testing.T) {
	one, err := EgressRun(egressN, egressPubs, egressRounds, 1, egressSeed)
	if err != nil {
		t.Fatalf("batches of one: %v", err)
	}
	def := defaultEgressRun(t)
	if one.Delivered != 1 {
		t.Fatalf("batches of one: delivery %.3f, want 1", one.Delivered)
	}
	if one.Broadcasts == 0 || one.Broadcasts != def.Broadcasts {
		t.Fatalf("broadcast counts differ: one=%d default=%d", one.Broadcasts, def.Broadcasts)
	}
	if def.LinkMsgsPerBcast >= one.LinkMsgsPerBcast {
		t.Errorf("batching did not reduce link messages: %.1f >= %.1f", def.LinkMsgsPerBcast, one.LinkMsgsPerBcast)
	}
	if def.MsgsPerBcast >= one.MsgsPerBcast {
		t.Errorf("batching did not reduce messages: %.1f >= %.1f", def.MsgsPerBcast, one.MsgsPerBcast)
	}
	if def.BytesPerBcast >= one.BytesPerBcast {
		t.Errorf("batching did not reduce bytes: %.0f >= %.0f", def.BytesPerBcast, one.BytesPerBcast)
	}
	t.Logf("link msgs/bcast %.1f -> %.1f; msgs/bcast %.1f -> %.1f; bytes/bcast %.0f -> %.0f",
		one.LinkMsgsPerBcast, def.LinkMsgsPerBcast, one.MsgsPerBcast, def.MsgsPerBcast,
		one.BytesPerBcast, def.BytesPerBcast)
}

// TestEgressRunSameSeedReproduces runs the scenario twice with one seed:
// every figure and the whole simulator counter diff must match. Engine
// actions taken in Go map order (proposals, sends) make it diverge.
func TestEgressRunSameSeedReproduces(t *testing.T) {
	a := defaultEgressRun(t)
	b := defaultEgressRun(t)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed runs differ:\n%+v\n%+v", a, b)
	}
}
