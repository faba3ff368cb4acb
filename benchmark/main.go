// Command benchmark is the repository's benchmark. It runs one named
// workload on the discrete-event simulator (internal/simnet) and prints, as
// the last line of standard output, one JSON object with the end-to-end
// metrics (--trace 0) or the per-layer metrics of a traced run (--trace 1).
//
//	bash benchmark/run.sh --workload bcast-sync --seed 1 --seconds 20 --trace 0
//
// The workloads, their metrics and what each should and should not move are
// described in benchmark/WORKLOADS.md. A run that breaks a correctness check
// (a duplicate or altered delivery, a corrupted raw chunk) exits 1 without
// printing metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"atum"
	"atum/internal/stats"
)

func main() { os.Exit(run()) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run() int {
	workload := flag.String("workload", "", "workload name: bcast-sync, churn-sync or stream-async")
	seed := flag.Int64("seed", 1, "seed for the simulator and every generated input")
	seconds := flag.Int("seconds", 20, "measured window length, in calibrated wall seconds")
	traceOn := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	traceDir := flag.String("trace-dir", filepath.Join(".bench_build", "traces"), "directory the traced run writes its span log to")
	flag.Parse()

	w, ok := findSpec(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workload)
		return 2
	}
	if *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(os.Stderr, "--seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	runtime.GOMAXPROCS(procs)
	rounds := w.windowRounds(*seconds)
	if rounds < 1 {
		fmt.Fprintln(os.Stderr, "--seconds too small for one round per window")
		return 2
	}

	latency := "LAN"
	if w.wanRegions > 0 {
		latency = fmt.Sprintf("WAN(%d)", w.wanRegions)
	}
	fmt.Printf("run: workload=%s seed=%d N=%d go=%s GOMAXPROCS=%d nproc=%d trace=%d\n",
		w.name, *seed, w.n, runtime.Version(), procs, runtime.NumCPU(), *traceOn)
	fmt.Printf("params: mode=%v latency=%s publishers=%d payload_B=%d raw=%dx%dB/peer/round from %s churn_per_min=%d silent=%d replicas=%d windows=%d rounds_per_window=%d round=%v drain=%v join_deadline=%v\n",
		w.mode, latency, w.publishers, w.payload, w.rawChunks, w.rawSize, rawSenders(w),
		w.churnPerMin, w.silent, w.replicas, w.windows, rounds, round, w.drain, joinDeadline)

	var res result
	var err error
	if *traceOn == 0 {
		res, err = runPlain(w, *seed, rounds)
	} else {
		res, err = runTraced(w, *seed, rounds, *traceDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

func rawSenders(w spec) string {
	if w.rawFromAll {
		return "all correct members"
	}
	return "publishers"
}

// freshCluster builds and sets up a cluster, returning it with its set-up
// wall time.
func freshCluster(w spec, seed int64, traced bool) (*cluster, time.Duration, error) {
	runtime.GC()
	c := newCluster(w, seed, traced)
	start := time.Now()
	if err := c.setup(); err != nil {
		return nil, 0, fmt.Errorf("seed %d: %w", seed, err)
	}
	return c, time.Since(start), nil
}

// measure runs the window and applies the correctness checks.
func measure(c *cluster, rounds int) (windowResult, error) {
	runtime.GC()
	r := c.runWindow(rounds)
	if c.violation != nil {
		return r, fmt.Errorf("seed %d: correctness check failed: %w", c.seed, c.violation)
	}
	return r, nil
}

// liveHeapKB forces a collection and returns the live heap in KiB.
func liveHeapKB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1024
}

func runPlain(w spec, seed int64, rounds int) (result, error) {
	var (
		setups, growVirtual, heapPerNode, p99s []float64
		growJoins, winJoins                    []*joinRec
		lats                                   stats.Durations
		pairs, slots, attempted                int
		sent, bytesSent                        int64
		rawAddr, rawRecv, rawSent, rawErr      int64
		delivered, bcastFails                  int64
		wall                                   time.Duration
		digests                                []string
	)
	for i := 0; i < w.replicas; i++ {
		c, d, err := freshCluster(w, subSeed(seed, i), false)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, d.Seconds())
		growVirtual = append(growVirtual, c.growVirtual.Seconds())
		growJoins = append(growJoins, c.growJoins...)
		members := countMembers(c)
		if i < w.replicas-w.windows {
			fmt.Printf("replica %d: seed=%d setup_wall=%.3fs grow_virtual=%v members=%d\n", i, c.seed, d.Seconds(), c.growVirtual, members)
			continue
		}
		r, err := measure(c, rounds)
		if err != nil {
			return result{}, err
		}
		heapPerNode = append(heapPerNode, liveHeapKB()/float64(len(c.nodes)))
		lats = append(lats, r.lats...)
		p99s = append(p99s, msOf(r.lats.Percentile(99)))
		pairs += r.pairs
		slots += r.attempted * r.stable
		attempted += r.attempted
		sent += r.diff.Sent
		bytesSent += r.diff.BytesSent
		rawAddr += r.rawAddr
		rawRecv += r.rawRecv
		rawSent += c.rawSent
		rawErr += c.rawErrors
		delivered += r.delivered
		bcastFails += c.bcastFails
		wall += r.wall
		winJoins = append(winJoins, r.joins...)
		dg := c.digest()
		digests = append(digests, dg)
		fmt.Printf("replica %d: seed=%d setup_wall=%.3fs grow_virtual=%v members=%d window_wall=%.3fs stable=%d broadcasts=%d delivered_pairs=%d digest=%s\n",
			i, c.seed, d.Seconds(), c.growVirtual, members, r.wall.Seconds(), r.stable, r.attempted, r.pairs, dg)
	}

	m := map[string]metric{}
	add := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	// p50 pools the pairs of every window. p99 is taken per window and
	// averaged over the windows: on stream-async about one window in three
	// has a heavy tail (the history, not the seed, decides: same-seed runs
	// differ), and a pooled p99 jumps with how many such windows a run draws.
	p50, p99 := lats.Percentile(50), mean(p99s)
	add("bcast_p50_ms", msOf(p50), "ms")
	add("bcast_p99_ms", p99, "ms")
	add("delivery_ratio", ratio(float64(pairs), float64(slots)), "ratio")
	add("msgs_per_bcast", ratio(float64(sent), float64(attempted)), "msgs")
	add("bytes_per_bcast", ratio(float64(bytesSent), float64(attempted)), "bytes")
	add("raw_delivery_ratio", ratio(float64(rawRecv), float64(rawAddr)), "ratio")
	joins, joinScope := growJoins, "growth"
	if w.churnPerMin > 0 {
		joins, joinScope = winJoins, "window churn"
	}
	ok, jd := joinOutcomes(joins)
	add("join_ok_ratio", ratio(float64(ok), float64(len(joins))), "ratio")
	add("join_p50_s", jd.Percentile(50).Seconds(), "s")
	add("join_p90_s", jd.Percentile(90).Seconds(), "s")
	add("deliveries_per_wall_s", float64(delivered)/wall.Seconds(), "1/s")
	add("setup_s", median(setups), "s")
	add("grow_virtual_s", mean(growVirtual), "s")
	add("heap_kb_per_node", mean(heapPerNode), "KiB")

	fmt.Printf("windows: %d x %d rounds, wall=%.3fs broadcasts=%d broadcast_errors=%d deliveries=%d\n",
		w.windows, rounds, wall.Seconds(), attempted, bcastFails, delivered)
	fmt.Printf("latency: p50=%.3fms samples=%d (delivered pairs of %d); p99 per window=%sms, mean=%.3fms\n",
		msOf(p50), len(lats), slots, fmtList(p99s), p99)
	fmt.Printf("raw: sent=%d errors=%d addressed_to_stable=%d received_by_stable=%d\n", rawSent, rawErr, rawAddr, rawRecv)
	fmt.Printf("joins (%s): attempted=%d ok=%d p50=%.3fs p90=%.3fs samples=%d deadline=%v\n",
		joinScope, len(joins), ok, jd.Percentile(50).Seconds(), jd.Percentile(90).Seconds(), len(jd), joinDeadline)
	fmt.Printf("setup: walls_s=%s grow_virtual_s=%s\n", fmtList(setups), fmtList(growVirtual))
	fmt.Printf("digest: %s\n", combineDigests(digests))
	return result{Correct: true, Attempted: attempted, Failed: bcastFails, Metrics: m}, nil
}

func runTraced(w spec, seed int64, rounds int, traceDir string) (result, error) {
	// The untraced window of the same replica is the baseline of
	// trace.overhead.
	c0, _, err := freshCluster(w, subSeed(seed, 0), false)
	if err != nil {
		return result{}, err
	}
	r0, err := measure(c0, rounds)
	if err != nil {
		return result{}, err
	}
	d0 := c0.digest()

	c, setupWall, err := freshCluster(w, subSeed(seed, 0), true)
	if err != nil {
		return result{}, err
	}
	r, err := measure(c, rounds)
	if err != nil {
		return result{}, err
	}
	m := layerMetrics(c, r)
	m["trace.overhead"] = metric{r.wall.Seconds() / r0.wall.Seconds(), "ratio"}

	fmt.Printf("traced: setup_wall=%.3fs window_wall=%.3fs untraced_window_wall=%.3fs spans=%d spans_dropped=%d\n",
		setupWall.Seconds(), r.wall.Seconds(), r0.wall.Seconds(), len(c.tr.spans), c.tr.spansDropped)
	fmt.Printf("digest: untraced=%s traced=%s\n", d0, c.digest())
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("layer: %-40s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl.gz", w.name, seed))
	if err := c.tr.writeSpans(path); err != nil {
		return result{}, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("spans: %s\n", path)
	return result{Correct: true, Attempted: r.attempted, Failed: c.bcastFails, Metrics: m}, nil
}

// commitKinds are the SMR operation kinds OnApply reports (core's op types
// plus the timer-driven "FIRE").
var commitKinds = []string{
	"bcastOp", "joinOp", "renounceOp", "leaveOp", "evictVoteOp", "inputVoteOp",
	"splitOp", "walkStartOp", "shuffleStartOp", "walkTimeoutOp", "mergeStartOp", "FIRE",
}

// layerMetrics turns a traced window (and its growth phase) into the
// per-layer metrics.
func layerMetrics(c *cluster, r windowResult) map[string]metric {
	t := c.tr
	m := map[string]metric{}
	add := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	bc := float64(r.attempted)

	for ph, prefix := range [numPhases]string{"grow.", ""} {
		a := &t.agg[ph]
		var events int64
		for cls := class(0); cls < numClasses; cls++ {
			if cls.isCallback() {
				events += a[cls].calls
			}
		}
		add(prefix+"simnet.events", float64(events), "count")
		add(prefix+"simnet.self_ms", msOf(t.runWall[ph]-t.topCallbacks[ph]), "ms")
		for _, cls := range []class{clsRecvGroupMsg, clsRecvSMR, clsRecvHeartbeat, clsRecvJoin,
			clsTimerTick, clsTimerEgress, clsTimerSMR, clsTimerOther} {
			add(prefix+classNames[cls]+".calls", float64(a[cls].calls), "count")
			add(prefix+classNames[cls]+".self_ms", msOf(a[cls].self), "ms")
		}
		add(prefix+"crypto.sign.calls", float64(a[clsSign].calls), "count")
		add(prefix+"crypto.sign.ms", msOf(a[clsSign].total), "ms")
		add(prefix+"crypto.verify.calls", float64(a[clsVerify].calls), "count")
		add(prefix+"crypto.verify.ms", msOf(a[clsVerify].total), "ms")
		add(prefix+"crypto.verify.failed", float64(t.verifyFailed[ph]), "count")
	}

	d := r.diff
	add("simnet.dropped", float64(d.Dropped), "count")
	add("simnet.sent.SMREnvelope", float64(d.SentByType["core.SMREnvelope"]), "count")
	add("simnet.sent.GroupMsg", float64(d.SentByType["group.GroupMsg"]), "count")
	add("simnet.sent.Heartbeat", float64(d.SentByType["core.Heartbeat"]), "count")
	add("simnet.sent.join", float64(d.SentByType["core.JoinContact"]+d.SentByType["core.ContactInfo"]+
		d.SentByType["core.JoinRequest"]+d.SentByType["core.Renounce"]), "count")

	commits := float64(len(c.obs.commits))
	known := map[string]bool{}
	for _, k := range commitKinds {
		known[k] = true
		add("smr.commits."+k, float64(c.obs.commitsByKind[k]), "count")
	}
	var other int64
	for k, v := range c.obs.commitsByKind {
		if !known[k] {
			other += v
		}
	}
	add("smr.commits.other", float64(other), "count")
	add("smr.msgs_per_commit", ratio(float64(d.SentByType["core.SMREnvelope"]), commits), "msgs")
	add("smr.bytes_per_commit", ratio(float64(t.smrBytes), commits), "bytes")
	add("crypto.verify_per_commit", ratio(float64(t.agg[phaseWindow][clsVerify].calls), commits), "count")

	items, digestOnly, nsPerItem := t.replayUnpack()
	add("group.carriers_recv", float64(t.carriers), "count")
	add("group.digest_only_share", digestOnly, "ratio")
	add("group.items_per_carrier", items, "count")
	add("group.unpack_ns_per_item", nsPerItem, "ns")

	var eg atum.EgressStats
	for _, nd := range c.nodes {
		eg.Items += nd.egLast.Items - nd.egStart.Items
		eg.Flushes += nd.egLast.Flushes - nd.egStart.Flushes
		eg.DroppedOverflow += nd.egLast.DroppedOverflow - nd.egStart.DroppedOverflow
		eg.DroppedExpired += nd.egLast.DroppedExpired - nd.egStart.DroppedExpired
	}
	add("egress.items_per_flush", ratio(float64(eg.Items), float64(eg.Flushes)), "count")
	add("egress.max_queue_depth", float64(c.obs.maxQueueDepth), "count")
	add("egress.dropped_overflow", float64(eg.DroppedOverflow), "count")
	add("egress.dropped_expired", float64(eg.DroppedExpired), "count")
	add("egress.pressure_transitions", float64(c.obs.pressure), "count")

	add("tree.dups_per_bcast", ratio(float64(c.obs.events[atum.EventDuplicateDelivery]), bc), "count")
	add("tree.link_msgs_per_bcast", ratio(float64(linkMsgs(d.SentByType)), bc), "msgs")

	add("core.join_failed", float64(c.obs.joinFailed), "count")
	add("core.splits", float64(c.obs.events[atum.EventSplit]), "count")
	add("core.merges", float64(c.obs.events[atum.EventMerge]), "count")
	add("core.evictions", float64(c.obs.events[atum.EventEviction]), "count")

	wa := &t.agg[phaseWindow]
	add("api.broadcast.calls", float64(wa[clsAPIBroadcast].calls), "count")
	add("api.broadcast.us", ratio(float64(wa[clsAPIBroadcast].total)/1e3, float64(wa[clsAPIBroadcast].calls)), "us")
	add("api.send_raw.calls", float64(wa[clsAPISendRaw].calls), "count")
	add("api.send_raw.errors", float64(c.rawErrors), "count")
	add("api.join.calls", float64(wa[clsAPIJoin].calls), "count")
	return m
}

// linkMsgs counts overlay-link messages as experiment.linkMsgs does:
// everything except SMR envelopes, heartbeats and join/renounce handshakes.
func linkMsgs(byType map[string]int64) int64 {
	var out int64
	for typ, n := range byType {
		switch typ {
		case "core.SMREnvelope", "core.Heartbeat", "core.JoinContact",
			"core.ContactInfo", "core.JoinRequest", "core.Renounce":
		default:
			out += n
		}
	}
	return out
}

func joinOutcomes(js []*joinRec) (ok int, durs stats.Durations) {
	for _, j := range js {
		if j.ok {
			ok++
		}
		durs = append(durs, j.dur)
	}
	return ok, durs
}

func countMembers(c *cluster) int {
	n := 0
	for _, nd := range c.nodes {
		if nd.n.IsMember() {
			n++
		}
	}
	return n
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// combineDigests hashes the replicas' behaviour digests into one.
func combineDigests(ds []string) string {
	h := sha256.Sum256([]byte(strings.Join(ds, ",")))
	return hex.EncodeToString(h[:])[:16]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, ",")
}
