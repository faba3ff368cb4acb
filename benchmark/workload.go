package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"atum"
	"atum/internal/actor"
	"atum/internal/crypto"
	"atum/internal/ids"
	"atum/internal/simnet"
	"atum/internal/smr"
	"atum/internal/stats"
)

const (
	round = 100 * time.Millisecond
	// joinDeadline is the fixed deadline a join must meet to count as
	// successful; growth waits this long per attempt, as experiment.grow's
	// one-minute perJoin does.
	joinDeadline = time.Minute
	settle       = 5 * time.Second
)

// spec is one workload. A run grows `replicas` independent clusters from
// sub-seeds of --seed and measures a window on the last `windows` of them:
// growth time and window metrics depend on the overlay each seed grows, so
// pooling several overlays per run keeps the run-to-run spread small. The
// windows together last seconds × roundsPerSecond rounds, calibrated so that
// they take roughly that many wall seconds on a 2-core x86 machine; the
// simulated history depends only on --seed and --seconds.
type spec struct {
	name       string
	n          int
	mode       smr.Mode
	wanRegions int // 0 = LANLatency
	publishers int
	payload    int
	// Raw traffic: every correct member pushes (rawFromAll) or only the
	// publishers push, rawChunks chunks of rawSize bytes per round to each
	// vgroup peer at PriorityBulk.
	rawFromAll      bool
	rawChunks       int
	rawSize         int
	churnPerMin     int // graceful leave + fresh join events per virtual minute
	silent          int // members turned BehaviorSilent after growth
	replicas        int
	windows         int
	roundsPerSecond int
	drain           time.Duration
}

// windowRounds is the number of load rounds in each measured window.
func (w spec) windowRounds(seconds int) int {
	return seconds * w.roundsPerSecond / w.windows
}

var workloads = []spec{
	{
		name: "bcast-sync", n: 120, mode: smr.ModeSync,
		publishers: 8, payload: 128,
		rawChunks: 1, rawSize: 128,
		replicas: 3, windows: 3, roundsPerSecond: 20, drain: 6 * time.Second,
	},
	{
		name: "churn-sync", n: 60, mode: smr.ModeSync,
		publishers: 1, payload: 128,
		rawChunks: 1, rawSize: 128,
		churnPerMin: 60 / 5,
		replicas:    1, windows: 1, roundsPerSecond: 300, drain: 6 * time.Second,
	},
	{
		name: "stream-async", n: 60, mode: smr.ModeAsync, wanRegions: 4,
		publishers: 4, payload: 4096,
		rawFromAll: true, rawChunks: 2, rawSize: 1024,
		silent:   60 / 20,
		replicas: 10, windows: 5, roundsPerSecond: 50, drain: 10 * time.Second,
	},
}

// subSeed derives replica i's seed from the run's seed.
func subSeed(seed int64, i int) int64 { return seed<<8 | int64(i) }

func findSpec(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// chunk is the benchmark's raw message, registered under a free tag of the
// in-repo benchmark extension range 0xA0–0xAF (docs/WIRE.md).
type chunk struct {
	Seq  uint64
	Data []byte
}

// WireSize implements actor.Sizer for the bandwidth model.
func (c chunk) WireSize() int { return 40 + len(c.Data) }

const rawTagChunk = 0xA1

func init() {
	atum.RegisterRawMessage(rawTagChunk, chunk{},
		func(v any, e *atum.WireEncoder) {
			m := v.(chunk)
			e.Uint64(m.Seq)
			e.VarBytes(m.Data)
		},
		func(d *atum.WireDecoder) any {
			return chunk{Seq: d.Uint64(), Data: d.VarBytes()}
		})
}

// fillChunk writes the bytes a chunk from sender with sequence seq must
// carry, so receivers can check integrity without a per-chunk record.
func fillChunk(b []byte, sender ids.NodeID, seq uint64) {
	x := uint64(sender)<<40 ^ seq
	for i := 0; i < len(b); i += 8 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		z ^= z >> 31
		for k := 0; k < 8 && i+k < len(b); k++ {
			b[i+k] = byte(z >> (8 * k))
		}
	}
}

type joinRec struct {
	slot  int
	start time.Duration
	dur   time.Duration
	done  bool
	ok    bool
}

type node struct {
	slot      int
	id        ids.NodeID
	n         *atum.Node
	publisher bool
	leaver    bool
	silent    bool
	left      bool // OnLeft fired during the window
	stable    bool // member and correct when the window opened
	join      *joinRec
	// delivered holds the virtual delivery time per broadcast index
	// (0 = not delivered; every window time is positive).
	delivered    []time.Duration
	rawAddressed int64
	rawReceived  int64
	egStart      atum.EgressStats
	egLast       atum.EgressStats
}

type bcast struct {
	sentAt  time.Duration
	payload []byte
	id      crypto.Digest
	idSet   bool
	err     bool
}

// observed holds the counters a traced window collects from callbacks.
type observed struct {
	commits       map[commitKey]struct{}
	commitsByKind map[string]int64
	events        map[atum.EventKind]int64
	joinFailed    int64
	pressure      int64
	maxQueueDepth int
}

type commitKey struct {
	gid, epoch uint64
	dig        [32]byte
	proposer   string
}

// cluster is one simulated Atum system built for a workload run.
type cluster struct {
	w       spec
	seed    int64
	net     *simnet.Network
	tr      *tracer // nil in untraced runs
	rng     *rand.Rand
	nodes   []*node
	byID    map[ids.NodeID]*node
	contact ids.Identity

	window    bool
	bcasts    []bcast
	bcastByID map[crypto.Digest]int
	growJoins []*joinRec
	winJoins  []*joinRec

	deliveries int64
	rawSeq     uint64
	rawSent    int64
	rawErrors  int64
	bcastFails int64
	scratch    []byte
	violation  error
	obs        observed

	growVirtual time.Duration
}

func newCluster(w spec, seed int64, traced bool) *cluster {
	lat := simnet.LANLatency()
	if w.wanRegions > 0 {
		lat = simnet.WANLatency(w.wanRegions)
	}
	c := &cluster{
		w:         w,
		seed:      seed,
		net:       simnet.New(simnet.Config{Seed: seed, Latency: lat}),
		rng:       rand.New(rand.NewSource(seed ^ 0x5eed)),
		byID:      make(map[ids.NodeID]*node),
		bcastByID: make(map[crypto.Digest]int),
		obs: observed{
			commits:       make(map[commitKey]struct{}),
			commitsByKind: make(map[string]int64),
			events:        make(map[atum.EventKind]int64),
		},
	}
	if traced {
		c.tr = newTracer()
	}
	return c
}

func (c *cluster) fail(format string, args ...any) {
	if c.violation == nil {
		c.violation = fmt.Errorf(format, args...)
	}
}

// hook runs a callback body, inside a harness span when traced.
func (c *cluster) hook(id ids.NodeID, f func()) {
	if c.tr == nil {
		f()
		return
	}
	c.tr.begin(clsHook, id, 0)
	f()
	c.tr.end()
}

// addNode creates a node with the defaults of atum.SimCluster.AddNodeWith
// plus the workload changes (DisableShuffle, TreeGossip; AddNodeWith's
// Params already are Fig. 8's HC 3, RWL 4, GMax 8, GMin 4) and registers it
// with the simulator, wrapped for tracing when traced.
func (c *cluster) addNode() *node {
	id := ids.NodeID(len(c.nodes) + 1)
	nd := &node{slot: len(c.nodes), id: id}
	var scheme crypto.Scheme = crypto.SimScheme{}
	if c.tr != nil {
		scheme = tracedScheme{Scheme: scheme, t: c.tr}
	}
	cb := atum.Callbacks{
		Deliver:  func(d atum.Delivery) { c.hook(id, func() { c.onDeliver(nd, d) }) },
		OnJoined: func(atum.GroupComposition) { c.hook(id, func() { c.onJoined(nd) }) },
		OnLeft:   func(reason string) { c.hook(id, func() { c.onLeft(nd, reason) }) },
	}
	if c.tr != nil {
		cb.OnEvent = func(ev atum.Event) { c.hook(id, func() { c.onEvent(ev) }) }
		cb.OnApply = func(gid, epoch uint64, dig [32]byte, kind string) {
			c.hook(id, func() { c.onApply(gid, epoch, dig, kind) })
		}
		cb.OnEgressPressure = func(ids.NodeID, atum.PressureLevel) {
			c.hook(id, func() {
				if c.window {
					c.obs.pressure++
				}
			})
		}
	}
	cfg := atum.Config{
		Identity:       atum.Identity{ID: id, Addr: fmt.Sprintf("sim:%d", id)},
		SignerSeed:     []byte(fmt.Sprintf("sim-node-%d", id)),
		Scheme:         scheme,
		Mode:           c.w.mode,
		Params:         atum.Params{HC: 3, RWL: 4, GMax: 8, GMin: 4},
		RoundDuration:  round,
		HeartbeatEvery: time.Second,
		EvictAfter:     6 * time.Second,
		WalkTimeout:    5 * time.Second,
		JoinTimeout:    10 * time.Second,
		RequestTimeout: time.Second,
		DisableShuffle: true,
		TreeGossip:     true,
		Callbacks:      cb,
		OnRawMessage: func(from ids.NodeID, msg any) {
			c.hook(id, func() { c.onRaw(nd, from, msg) })
		},
	}
	nd.n = atum.NewNode(cfg)
	var an actor.Node = nd.n.Inner()
	if c.tr != nil {
		an = &tracedNode{inner: an, t: c.tr, id: id}
	}
	c.net.Add(id, an)
	c.nodes = append(c.nodes, nd)
	c.byID[id] = nd
	return nd
}

func (c *cluster) onDeliver(nd *node, d atum.Delivery) {
	if len(d.Data) < 8 {
		c.fail("node %v delivered a %d-byte payload no broadcast sent", nd.id, len(d.Data))
		return
	}
	idx := binary.LittleEndian.Uint64(d.Data)
	if idx >= uint64(len(c.bcasts)) || !bytes.Equal(d.Data, c.bcasts[idx].payload) {
		c.fail("node %v delivered bytes that differ from every broadcast (index %d)", nd.id, idx)
		return
	}
	b := &c.bcasts[idx]
	if prev, ok := c.bcastByID[d.BcastID]; ok && prev != int(idx) {
		c.fail("BcastID %x carried broadcasts %d and %d", d.BcastID[:8], prev, idx)
		return
	}
	if b.idSet && b.id != d.BcastID {
		c.fail("broadcast %d delivered under two BcastIDs", idx)
		return
	}
	c.bcastByID[d.BcastID] = int(idx)
	b.id, b.idSet = d.BcastID, true
	for uint64(len(nd.delivered)) <= idx {
		nd.delivered = append(nd.delivered, 0)
	}
	if nd.delivered[idx] != 0 {
		c.fail("node %v delivered BcastID %x twice", nd.id, d.BcastID[:8])
		return
	}
	nd.delivered[idx] = c.net.Now()
	c.deliveries++
}

func (c *cluster) onRaw(nd *node, from ids.NodeID, msg any) {
	m, ok := msg.(chunk)
	if !ok {
		c.fail("node %v received unexpected raw message %T", nd.id, msg)
		return
	}
	if len(m.Data) != c.w.rawSize {
		c.fail("node %v received a %d-byte chunk, want %d", nd.id, len(m.Data), c.w.rawSize)
		return
	}
	if cap(c.scratch) < len(m.Data) {
		c.scratch = make([]byte, len(m.Data))
	}
	want := c.scratch[:len(m.Data)]
	fillChunk(want, from, m.Seq)
	if !bytes.Equal(want, m.Data) {
		c.fail("node %v received chunk %d from %v corrupted", nd.id, m.Seq, from)
		return
	}
	if c.window {
		nd.rawReceived++
	}
}

func (c *cluster) onJoined(nd *node) {
	j := nd.join
	if j == nil || j.done {
		return
	}
	j.done = true
	j.dur = c.net.Now() - j.start
	j.ok = j.dur <= joinDeadline
	if !j.ok {
		j.dur = joinDeadline
	}
}

func (c *cluster) onLeft(nd *node, reason string) {
	if reason == "join-failed" {
		if j := nd.join; j != nil && !j.done {
			j.done, j.dur = true, joinDeadline
		}
		if c.window {
			c.obs.joinFailed++
		}
		return
	}
	if c.window {
		nd.left = true
	}
}

func (c *cluster) onEvent(ev atum.Event) {
	if c.window {
		c.obs.events[ev.Kind]++
	}
}

func (c *cluster) onApply(gid, epoch uint64, dig [32]byte, kind string) {
	if !c.window {
		return
	}
	name, proposer, _ := strings.Cut(kind, ":")
	k := commitKey{gid: gid, epoch: epoch, dig: dig, proposer: proposer}
	if _, seen := c.obs.commits[k]; seen {
		return
	}
	c.obs.commits[k] = struct{}{}
	c.obs.commitsByKind[strings.TrimPrefix(name, "core.")]++
}

// run advances virtual time by d.
func (c *cluster) run(d time.Duration) {
	if c.tr == nil {
		c.net.Run(c.net.Now() + d)
		return
	}
	start := time.Now()
	c.net.Run(c.net.Now() + d)
	c.tr.runWall[c.tr.phase] += time.Since(start)
}

// runUntil advances time in 50 ms steps until cond holds or max passes, as
// atum.SimCluster.RunUntil does.
func (c *cluster) runUntil(cond func() bool, max time.Duration) bool {
	deadline := c.net.Now() + max
	for !cond() && c.net.Now() < deadline {
		step := 50 * time.Millisecond
		if c.net.Now()+step > deadline {
			step = deadline - c.net.Now()
		}
		c.run(step)
	}
	return cond()
}

// join issues a Join through the contact and records the attempt.
func (c *cluster) join(nd *node) *joinRec {
	if c.tr != nil {
		c.tr.begin(clsAPIJoin, nd.id, 0)
	}
	err := nd.n.Join(c.contact)
	if c.tr != nil {
		c.tr.end()
	}
	if err != nil {
		return nil
	}
	j := &joinRec{slot: nd.slot, start: c.net.Now()}
	nd.join = j
	return j
}

// expireJoins fails every pending join past the deadline.
func (c *cluster) expireJoins(js []*joinRec) {
	now := c.net.Now()
	for _, j := range js {
		if !j.done && now-j.start >= joinDeadline {
			j.done, j.dur = true, joinDeadline
		}
	}
}

// setup grows the system to N one join at a time (as experiment.grow does),
// settles, and injects the workload's faults.
func (c *cluster) setup() error {
	start := c.net.Now()
	first := c.addNode()
	c.run(10 * time.Millisecond)
	if err := first.n.Bootstrap(); err != nil {
		return fmt.Errorf("bootstrap: %w", err)
	}
	c.contact = first.n.Identity()
	for i := 1; i < c.w.n; i++ {
		nd := c.addNode()
		c.run(10 * time.Millisecond)
		for attempt := 0; attempt < 2 && !nd.n.IsMember(); attempt++ {
			if j := c.join(nd); j != nil {
				c.growJoins = append(c.growJoins, j)
			}
			c.runUntil(nd.n.IsMember, joinDeadline)
			c.expireJoins(c.growJoins)
		}
	}
	c.growVirtual = c.net.Now() - start
	c.run(settle)

	var members []*node
	for _, nd := range c.nodes {
		if nd.n.IsMember() {
			members = append(members, nd)
		}
	}
	if len(members) < c.w.publishers+1 {
		return fmt.Errorf("only %d members after growth", len(members))
	}
	// Publishers: a seeded sample of members other than the contact.
	perm := c.rng.Perm(len(members) - 1)
	for _, i := range perm[:c.w.publishers] {
		members[i+1].publisher = true
	}
	c.injectSilent(members)
	return nil
}

// injectSilent turns w.silent members BehaviorSilent, at most one per vgroup
// of size ≥ 4, so every vgroup stays within its fault bound f. Publishers
// and the contact stay correct.
func (c *cluster) injectSilent(members []*node) {
	if c.w.silent == 0 {
		return
	}
	byGroup := make(map[atum.GroupID][]*node)
	var gids []atum.GroupID
	for _, nd := range members {
		g := nd.n.Inner().Comp()
		if g.N() < 4 {
			continue
		}
		if _, ok := byGroup[g.GroupID]; !ok {
			gids = append(gids, g.GroupID)
		}
		byGroup[g.GroupID] = append(byGroup[g.GroupID], nd)
	}
	sort.Slice(gids, func(i, j int) bool { return gids[i] < gids[j] })
	c.rng.Shuffle(len(gids), func(i, j int) { gids[i], gids[j] = gids[j], gids[i] })
	placed := 0
	for _, gid := range gids {
		if placed == c.w.silent {
			break
		}
		var cands []*node
		for _, nd := range byGroup[gid] {
			if !nd.publisher && nd.slot != 0 {
				cands = append(cands, nd)
			}
		}
		if len(cands) == 0 {
			continue
		}
		nd := cands[c.rng.Intn(len(cands))]
		nd.n.Inner().SetBehavior(atum.BehaviorSilent)
		nd.silent = true
		placed++
	}
}

// windowResult is what one measured window produced.
type windowResult struct {
	wall      time.Duration
	diff      simnet.Stats
	stable    int
	lats      stats.Durations
	pairs     int
	attempted int
	rawAddr   int64
	rawRecv   int64
	joins     []*joinRec
	delivered int64
}

// runWindow drives the measured window: rounds of open-loop broadcasts, raw
// pushes and churn, then a drain with no new load.
func (c *cluster) runWindow(rounds int) windowResult {
	churnEvery, churnRounds := 0, 0
	if c.w.churnPerMin > 0 {
		churnEvery = int(time.Minute / time.Duration(c.w.churnPerMin) / round)
		// Churn stops one join deadline before the last round, so every
		// join resolves inside the window.
		churnRounds = rounds - int(joinDeadline/round)
	}
	c.window = true
	if c.tr != nil {
		c.tr.phase = phaseWindow
	}
	for _, nd := range c.nodes {
		nd.stable = nd.n.IsMember() && !nd.silent
		if c.tr != nil && nd.stable {
			nd.egStart = nd.n.EgressStats()
			nd.egLast = nd.egStart
		}
	}
	before := c.net.Stats()
	start := time.Now()
	for r := 0; r < rounds; r++ {
		if churnEvery > 0 && r < churnRounds && r%churnEvery == 0 {
			c.churn()
		}
		c.publish()
		c.pushRaw()
		if c.tr != nil {
			c.sampleEgress()
		}
		c.expireJoins(c.winJoins)
		c.run(round)
	}
	c.run(c.w.drain)
	c.expireJoins(c.winJoins)
	wall := time.Since(start)
	c.window = false
	if c.tr != nil {
		c.sampleEgress()
	}
	res := windowResult{wall: wall, diff: c.net.Stats().Sub(before), joins: c.winJoins,
		delivered: c.deliveries, attempted: len(c.bcasts)}
	var stable []*node
	for _, nd := range c.nodes {
		if nd.stable && !nd.leaver && !nd.left && nd.n.IsMember() {
			stable = append(stable, nd)
			res.rawAddr += nd.rawAddressed
			res.rawRecv += nd.rawReceived
		}
	}
	res.stable = len(stable)
	for bi, b := range c.bcasts {
		if b.err {
			continue
		}
		for _, nd := range stable {
			if bi < len(nd.delivered) && nd.delivered[bi] != 0 {
				res.lats = append(res.lats, nd.delivered[bi]-b.sentAt)
				res.pairs++
			}
		}
	}
	return res
}

// churn makes one member leave gracefully and one fresh node join through
// the contact. The leaver is never a publisher or the contact.
func (c *cluster) churn() {
	var cands []*node
	for _, nd := range c.nodes {
		if nd.n.IsMember() && !nd.publisher && !nd.leaver && !nd.silent && nd.slot != 0 {
			cands = append(cands, nd)
		}
	}
	if len(cands) > 0 {
		nd := cands[c.rng.Intn(len(cands))]
		if nd.n.Leave() == nil {
			nd.leaver = true
		}
	}
	fresh := c.addNode()
	if j := c.join(fresh); j != nil {
		c.winJoins = append(c.winJoins, j)
	}
}

func (c *cluster) publish() {
	for _, nd := range c.nodes {
		if !nd.publisher {
			continue
		}
		idx := len(c.bcasts)
		payload := make([]byte, c.w.payload)
		binary.LittleEndian.PutUint64(payload, uint64(idx))
		c.rng.Read(payload[8:])
		c.bcasts = append(c.bcasts, bcast{sentAt: c.net.Now(), payload: payload})
		if c.tr != nil {
			c.tr.begin(clsAPIBroadcast, nd.id, 0)
		}
		err := nd.n.BroadcastWith(payload, atum.BroadcastOpts{})
		if c.tr != nil {
			c.tr.end()
		}
		if err != nil {
			c.bcasts[idx].err = true
			c.bcastFails++
		}
	}
}

func (c *cluster) pushRaw() {
	for _, nd := range c.nodes {
		if nd.silent || !nd.n.IsMember() || !(nd.publisher || c.w.rawFromAll) {
			continue
		}
		peers := nd.n.GroupMembers()
		for k := 0; k < c.w.rawChunks; k++ {
			c.rawSeq++
			data := make([]byte, c.w.rawSize)
			fillChunk(data, nd.id, c.rawSeq)
			msg := chunk{Seq: c.rawSeq, Data: data}
			for _, p := range peers {
				if p.ID == nd.id {
					continue
				}
				if t := c.byID[p.ID]; t != nil {
					t.rawAddressed++
				}
				c.rawSent++
				if c.tr != nil {
					c.tr.begin(clsAPISendRaw, nd.id, 0)
				}
				err := nd.n.SendRawWith(p.ID, msg, atum.SendOpts{Priority: atum.PriorityBulk})
				if c.tr != nil {
					c.tr.end()
				}
				if err != nil {
					c.rawErrors++
				}
			}
		}
	}
}

// sampleEgress reads every live node's EgressStats (traced runs only).
func (c *cluster) sampleEgress() {
	for _, nd := range c.nodes {
		if nd.silent || !c.net.Alive(nd.id) {
			continue
		}
		st := nd.n.EgressStats()
		nd.egLast = st
		for _, d := range st.Dests {
			if d.Depth > c.obs.maxQueueDepth {
				c.obs.maxQueueDepth = d.Depth
			}
		}
	}
}

// digest hashes the run's virtual-time outcome: per-node delivery times,
// join outcomes, raw counts and the simulator's counters.
func (c *cluster) digest() string {
	h := sha256.New()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, nd := range c.nodes {
		put(int64(nd.slot))
		put(int64(len(nd.delivered)))
		for _, at := range nd.delivered {
			put(int64(at))
		}
		put(nd.rawAddressed)
		put(nd.rawReceived)
	}
	for _, js := range [][]*joinRec{c.growJoins, c.winJoins} {
		for _, j := range js {
			put(int64(j.slot))
			put(int64(j.start))
			put(int64(j.dur))
			if j.ok {
				put(1)
			} else {
				put(0)
			}
		}
	}
	st := c.net.Stats()
	put(st.Sent)
	put(st.Delivered)
	put(st.Dropped)
	put(st.BytesSent)
	types := make([]string, 0, len(st.SentByType))
	for t := range st.SentByType {
		types = append(types, t)
	}
	sort.Strings(types)
	for _, t := range types {
		h.Write([]byte(t))
		put(st.SentByType[t])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
