package atum_test

// Ablation benchmarks for design choices described in docs/ARCHITECTURE.md:
// each one measures the system with a mechanism enabled vs disabled, reporting the
// protocol-level quantity the mechanism is supposed to improve (virtual
// time and message cost — not host CPU, which is what ns/op would show).
//
//	go test -bench 'BenchmarkAblation' -benchtime 3x

import (
	"fmt"
	"testing"
	"time"

	"atum"
	"atum/internal/core"
)

// growCluster bootstraps one node and joins count-1 more through it,
// returning the cluster and the virtual time consumed.
func growCluster(b *testing.B, opts atum.SimOptions, count int) (*atum.SimCluster, []*atum.Node, time.Duration) {
	b.Helper()
	c := atum.NewSimCluster(opts)
	nodes := make([]*atum.Node, 0, count)
	first := c.AddNode(atum.Callbacks{Deliver: func(atum.Delivery) {}})
	c.Run(10 * time.Millisecond)
	if err := first.Bootstrap(); err != nil {
		b.Fatal(err)
	}
	nodes = append(nodes, first)
	start := c.Now()
	contact := first.Identity()
	for i := 1; i < count; i++ {
		n := c.AddNode(atum.Callbacks{Deliver: func(atum.Delivery) {}})
		if err := n.Join(contact); err != nil {
			b.Fatal(err)
		}
		if !c.RunUntil(n.IsMember, 120*time.Second) {
			b.Fatalf("node %d failed to join", i)
		}
		nodes = append(nodes, n)
	}
	return c, nodes, c.Now() - start
}

// BenchmarkAblationShuffle compares system growth with random walk shuffling
// enabled (the paper's design: every join refreshes the vgroup) and disabled
// (flexibility without the robustness maintenance). Shuffling costs growth
// speed — the flexibility/robustness trade-off of §7 and Fig. 13.
func BenchmarkAblationShuffle(b *testing.B) {
	const n = 14
	for _, disabled := range []bool{false, true} {
		name := "shuffle=on"
		if disabled {
			name = "shuffle=off"
		}
		b.Run(name, func(b *testing.B) {
			var total time.Duration
			var completed, suppressed int
			for i := 0; i < b.N; i++ {
				opts := atum.SimOptions{
					Seed: int64(i + 1),
					Tweak: func(cfg *atum.Config) {
						cfg.DisableShuffle = disabled
						cfg.Params = atum.Params{HC: 3, RWL: 4, GMax: 4, GMin: 2}
						cfg.Callbacks.OnEvent = func(ev atum.Event) {
							switch ev.Kind {
							case atum.EventExchangeCompleted:
								completed++
							case atum.EventExchangeSuppressed:
								suppressed++
							}
						}
					},
				}
				_, _, growth := growCluster(b, opts, n)
				total += growth
			}
			b.ReportMetric(float64(total.Milliseconds())/float64(b.N), "virtual_ms_to_grow")
			b.ReportMetric(float64(completed)/float64(b.N), "exchanges_completed")
			b.ReportMetric(float64(suppressed)/float64(b.N), "exchanges_suppressed")
		})
	}
}

// BenchmarkAblationWalkReply compares the two §5.1 walk-reply mechanisms:
// the backward phase (result relayed through the visited vgroups) and
// certificate chains (direct reply, chain size linear in rwl). Certificates
// save relay hops at the price of bigger messages.
func BenchmarkAblationWalkReply(b *testing.B) {
	const n = 12
	for _, mode := range []core.WalkReplyMode{core.ReplyBackward, core.ReplyCertificates} {
		b.Run(fmt.Sprintf("mode=%v", mode), func(b *testing.B) {
			var totalVirtual time.Duration
			var totalBytes, totalMsgs int64
			for i := 0; i < b.N; i++ {
				opts := atum.SimOptions{
					Seed:  int64(i + 1),
					Tweak: func(cfg *atum.Config) { cfg.ReplyMode = mode },
				}
				c, _, growth := growCluster(b, opts, n)
				totalVirtual += growth
				st := c.Net.Stats()
				totalBytes += st.BytesSent
				totalMsgs += st.Sent
			}
			b.ReportMetric(float64(totalVirtual.Milliseconds())/float64(b.N), "virtual_ms_to_grow")
			b.ReportMetric(float64(totalBytes)/float64(b.N)/float64(n), "bytes_per_node")
			b.ReportMetric(float64(totalMsgs)/float64(b.N)/float64(n), "msgs_per_node")
		})
	}
}

// BenchmarkAblationForwardFanout compares broadcast dissemination with the
// default flooding Forward callback (gossip on all H-graph cycles — the
// latency-optimized choice) against single-cycle forwarding (the
// throughput-optimized choice AStream uses), measuring delivery latency
// (§3.3.4).
func BenchmarkAblationForwardFanout(b *testing.B) {
	const n = 18
	for _, single := range []bool{false, true} {
		name := "forward=flood"
		if single {
			name = "forward=cycle0"
		}
		b.Run(name, func(b *testing.B) {
			var totalLast time.Duration
			var totalMsgs int64
			for i := 0; i < b.N; i++ {
				delivered := make(map[uint64]time.Duration)
				var cl *atum.SimCluster
				opts := atum.SimOptions{
					Seed: int64(i + 1),
					Tweak: func(cfg *atum.Config) {
						// Small vgroups so the overlay has enough vertices
						// for cycle choice to matter (~6 vgroups at N=18).
						cfg.Params = atum.Params{HC: 3, RWL: 4, GMax: 4, GMin: 2}
						id := uint64(cfg.Identity.ID)
						cfg.Callbacks.Deliver = func(atum.Delivery) {
							if _, ok := delivered[id]; !ok {
								delivered[id] = cl.Now()
							}
						}
						if single {
							cfg.Callbacks.Forward = func(d atum.Delivery, link atum.ForwardLink) bool {
								return link.Cycle == 0
							}
						}
					},
				}
				c, nodes, _ := growCluster(b, opts, n)
				cl = c
				before := c.Net.Stats().Sent
				start := c.Now()
				if err := nodes[0].BroadcastWith([]byte("ablate"), atum.BroadcastOpts{}); err != nil {
					b.Fatal(err)
				}
				c.RunUntil(func() bool {
					live := 0
					for _, nd := range nodes {
						if nd.IsMember() {
							live++
						}
					}
					return len(delivered) >= live
				}, 120*time.Second)
				last := time.Duration(0)
				for _, at := range delivered {
					if at-start > last {
						last = at - start
					}
				}
				totalLast += last
				totalMsgs += c.Net.Stats().Sent - before
			}
			b.ReportMetric(float64(totalLast.Milliseconds())/float64(b.N), "virtual_ms_last_delivery")
			b.ReportMetric(float64(totalMsgs)/float64(b.N), "msgs_per_broadcast")
		})
	}
}
