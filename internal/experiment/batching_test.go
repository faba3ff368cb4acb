package experiment

import "testing"

// TestBatchingReducesTraffic pins the tentpole claim: under concurrent
// publishers, per-destination gossip batching sends fewer group messages AND
// fewer total wire bytes per broadcast than the unbatched path, without
// losing a single delivery.
func TestBatchingReducesTraffic(t *testing.T) {
	unbatched, err := BatchingRun(24, 8, 3, false, 1)
	if err != nil {
		t.Fatalf("unbatched run: %v", err)
	}
	batched, err := BatchingRun(24, 8, 3, true, 1)
	if err != nil {
		t.Fatalf("batched run: %v", err)
	}
	if unbatched.Broadcasts == 0 || batched.Broadcasts == 0 {
		t.Fatalf("no broadcasts issued: unbatched=%+v batched=%+v", unbatched, batched)
	}
	if batched.MsgsPerBcast <= 0 || batched.BytesPerBcast <= 0 {
		t.Fatalf("degenerate batched measurement: %+v", batched)
	}
	if batched.MsgsPerBcast >= unbatched.MsgsPerBcast {
		t.Errorf("batching did not reduce messages: %.1f >= %.1f",
			batched.MsgsPerBcast, unbatched.MsgsPerBcast)
	}
	if batched.BytesPerBcast >= unbatched.BytesPerBcast {
		t.Errorf("batching did not reduce bytes: %.0f >= %.0f",
			batched.BytesPerBcast, unbatched.BytesPerBcast)
	}
	if batched.Delivered < 1 || unbatched.Delivered < 1 {
		t.Errorf("incomplete delivery: batched=%.2f unbatched=%.2f",
			batched.Delivered, unbatched.Delivered)
	}
	t.Logf("msgs/bcast: %.1f -> %.1f; bytes/bcast: %.0f -> %.0f",
		unbatched.MsgsPerBcast, batched.MsgsPerBcast,
		unbatched.BytesPerBcast, batched.BytesPerBcast)
}
