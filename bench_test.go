package atum_test

// One benchmark per table and figure of the paper's evaluation (§6), at
// smoke scale; cmd/atum-bench runs the same experiments at paper-like scale.
// Benchmarks report the regenerated rows through b.Log (-v) and custom
// metrics where meaningful.

import (
	"testing"
	"time"

	"atum/internal/experiment"
	"atum/internal/smr"
)

func BenchmarkTable1Params(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiment.Table1().String()
	}
}

func BenchmarkRobustnessModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiment.Robustness([]int{200, 1000, 5000}, []int{3, 4, 5, 6, 7}, 0.06, smr.ModeSync)
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkFig4WalkUniformity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiment.Fig4([]int{8, 32}, []int{2, 4, 6}, 10, int64(i+1))
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkFig6Growth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiment.Fig6(smr.ModeSync, 16, int64(i+1))
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkFig7Churn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiment.Fig7(smr.ModeSync, []int{10}, int64(i+1))
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkFig8Latency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiment.Fig8(smr.ModeSync, 12, 0, 3, 1500*time.Millisecond, int64(i+1))
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkFig8LatencyByzantine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiment.Fig8(smr.ModeSync, 12, 1, 3, 1500*time.Millisecond, int64(i+1))
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkFig9Read(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiment.Fig9([]int{2, 8}, int64(i+1))
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkFig10Corrupt(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiment.Fig10(4, []int{8, 12}, 4, int64(i+1))
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkFig11CorruptLarger(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiment.Fig10(4, []int{8, 12}, 4, int64(i+2))
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkFig12Stream(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiment.Fig12(8, 5, int64(i+1))
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

// BenchmarkGossipBatching compares the dissemination hot path (§3.3.4) at
// the default batch size against batches of one: 8 concurrent publishers on
// a 24-node simnet system under the egress churn storm with raw floods. The
// default must send fewer messages and fewer wire bytes per broadcast
// (asserted by experiment.TestBatchingReducesTraffic); the table reports
// the numbers.
func BenchmarkGossipBatching(b *testing.B) {
	for i := 0; i < b.N; i++ {
		one, err := experiment.EgressRun(24, 8, 6, 1, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		batched, err := experiment.EgressRun(24, 8, 6, 0, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\nbatches of one: %.0f msgs/bcast, %.0f B/bcast, delivered %.2f"+
				"\ndefault (64):   %.0f msgs/bcast, %.0f B/bcast, delivered %.2f",
				one.MsgsPerBcast, one.BytesPerBcast, one.Delivered,
				batched.MsgsPerBcast, batched.BytesPerBcast, batched.Delivered)
			b.ReportMetric(batched.MsgsPerBcast, "batched-msgs/bcast")
			b.ReportMetric(one.MsgsPerBcast, "one-msgs/bcast")
			b.ReportMetric(batched.BytesPerBcast, "batched-B/bcast")
			b.ReportMetric(one.BytesPerBcast, "one-B/bcast")
		}
	}
}

func BenchmarkFig13Exchanges(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiment.Fig13(14, []int{8, 24}, int64(i+1))
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}
