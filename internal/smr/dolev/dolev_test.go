package dolev

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"atum/internal/actor"
	"atum/internal/crypto"
	"atum/internal/ids"
	"atum/internal/smr"
)

// cluster is a lockstep test harness: messages sent during a round are
// delivered (in configurable order) before the next Tick, which matches the
// synchrony assumption of the protocol.
type cluster struct {
	t         *testing.T
	members   []ids.Identity
	signers   map[ids.NodeID]crypto.Signer
	replicas  map[ids.NodeID]*Replica
	schemes   map[ids.NodeID]*countingScheme // each replica's Scheme
	inbox     map[ids.NodeID][]envelope
	committed map[ids.NodeID][]smr.Operation
	drop      func(from, to ids.NodeID, msg actor.Message) bool
	rng       *rand.Rand
}

type envelope struct {
	from ids.NodeID
	msg  actor.Message
}

// countingScheme counts the Verify calls made through it.
type countingScheme struct {
	crypto.Scheme
	verifies int
}

func (s *countingScheme) Verify(pub, msg, sig []byte) bool {
	s.verifies++
	return s.Scheme.Verify(pub, msg, sig)
}

// newMembers derives n signers with IDs 1..n and their sorted composition.
func newMembers(scheme crypto.Scheme, n int) ([]ids.Identity, map[ids.NodeID]crypto.Signer) {
	var members []ids.Identity
	signers := make(map[ids.NodeID]crypto.Signer, n)
	for i := 1; i <= n; i++ {
		id := ids.NodeID(i)
		signer := scheme.NewSigner([]byte(fmt.Sprintf("node-%d", i)))
		signers[id] = signer
		members = append(members, ids.Identity{ID: id, PubKey: signer.Public()})
	}
	ids.SortIdentities(members)
	return members, signers
}

// newCluster creates n replicas with IDs 1..n; byzantine lists members that
// exist in the composition but run no replica (the tests drive them by hand).
func newCluster(t *testing.T, n int, byzantine ...ids.NodeID) *cluster {
	c := &cluster{
		t:         t,
		replicas:  make(map[ids.NodeID]*Replica),
		schemes:   make(map[ids.NodeID]*countingScheme),
		inbox:     make(map[ids.NodeID][]envelope),
		committed: make(map[ids.NodeID][]smr.Operation),
		rng:       rand.New(rand.NewSource(7)),
	}
	byz := make(map[ids.NodeID]bool)
	for _, b := range byzantine {
		byz[b] = true
	}
	c.members, c.signers = newMembers(crypto.SimScheme{}, n)
	for i := 1; i <= n; i++ {
		id := ids.NodeID(i)
		if byz[id] {
			continue
		}
		c.schemes[id] = &countingScheme{Scheme: crypto.SimScheme{}}
		cfg := smr.Config{
			GroupID: 1,
			Epoch:   1,
			Members: c.members,
			Self:    id,
			Scheme:  c.schemes[id],
			Signer:  c.signers[id],
			Send: func(to ids.NodeID, msg actor.Message) {
				c.send(id, to, msg)
			},
			Commit: func(op smr.Operation) {
				c.committed[id] = append(c.committed[id], op)
			},
		}
		c.replicas[id] = New(cfg)
	}
	return c
}

func (c *cluster) send(from, to ids.NodeID, msg actor.Message) {
	if c.drop != nil && c.drop(from, to, msg) {
		return
	}
	c.inbox[to] = append(c.inbox[to], envelope{from: from, msg: msg})
}

// deliverAll drains inboxes (including messages generated by relays) in a
// randomized but seed-deterministic order.
func (c *cluster) deliverAll() {
	for {
		var targets []ids.NodeID
		for id, q := range c.inbox {
			if len(q) > 0 {
				targets = append(targets, id)
			}
		}
		if len(targets) == 0 {
			return
		}
		// Deterministic iteration order.
		for i := range targets {
			j := c.rng.Intn(i + 1)
			targets[i], targets[j] = targets[j], targets[i]
		}
		for _, id := range targets {
			q := c.inbox[id]
			c.inbox[id] = nil
			r, ok := c.replicas[id]
			if !ok {
				continue // byzantine or absent: drop
			}
			for _, e := range q {
				r.Receive(e.from, e.msg)
			}
		}
	}
}

func (c *cluster) tick(round uint64) {
	for _, m := range c.members {
		if r, ok := c.replicas[m.ID]; ok {
			r.Tick(round)
		}
	}
	c.deliverAll()
}

func (c *cluster) runRounds(from, to uint64) {
	for r := from; r <= to; r++ {
		c.tick(r)
	}
}

// checkAgreement verifies all correct replicas committed identical sequences
// and returns that sequence.
func (c *cluster) checkAgreement() []smr.Operation {
	c.t.Helper()
	var ref []smr.Operation
	var refID ids.NodeID
	for _, m := range c.members {
		seq, ok := c.committed[m.ID]
		if _, isReplica := c.replicas[m.ID]; !isReplica {
			continue
		}
		if ref == nil && ok {
			ref, refID = seq, m.ID
			continue
		}
		if !reflect.DeepEqual(ref, seq) {
			c.t.Fatalf("commit sequences diverge: %v=%v vs %v=%v", refID, ref, m.ID, seq)
		}
	}
	return ref
}

func op(proposer ids.NodeID, opID uint64, data string) smr.Operation {
	return smr.Operation{Proposer: proposer, OpID: opID, Data: []byte(data)}
}

// slotMsg builds sender's round-1 slot message carrying one op, its
// one-entry chain signed by signer (the sender's own signer unless the
// test forges).
func (c *cluster) slotMsg(sender ids.NodeID, signer crypto.Signer, data string) SlotMsg {
	ops := []smr.Operation{op(sender, 1, data)}
	d := smr.OpsDigest(1, 1, 1, sender, ops)
	return SlotMsg{
		GroupID: 1, Epoch: 1, StartRound: 1, Sender: sender,
		Ops:  ops,
		Sigs: []SigEntry{{Node: sender, Sig: signer.Sign(d[:])}},
	}
}

// acceptedDigests snapshots a replica's accepted values per slot.
func acceptedDigests(r *Replica) map[slotKey][]crypto.Digest {
	out := make(map[slotKey][]crypto.Digest)
	for k, st := range r.slots {
		for d := range st.accepted {
			out[k] = append(out[k], d)
		}
		sort.Slice(out[k], func(i, j int) bool { return bytes.Compare(out[k][i][:], out[k][j][:]) < 0 })
	}
	return out
}

func TestSingleNodeCommits(t *testing.T) {
	c := newCluster(t, 1)
	c.replicas[1].Propose(op(1, 1, "a"))
	c.runRounds(1, 3)
	got := c.checkAgreement()
	if len(got) != 1 || string(got[0].Data) != "a" {
		t.Fatalf("committed = %v, want [a]", got)
	}
}

func TestAllCorrectTotalOrder(t *testing.T) {
	c := newCluster(t, 4) // f = 1, slots finalize after 2 rounds
	c.replicas[1].Propose(op(1, 1, "x"))
	c.replicas[3].Propose(op(3, 1, "y"))
	c.runRounds(1, 4)
	got := c.checkAgreement()
	if len(got) != 2 {
		t.Fatalf("committed %d ops, want 2: %v", len(got), got)
	}
	// Both started in round 1; finalization order is member order: 1 then 3.
	if got[0].Proposer != 1 || got[1].Proposer != 3 {
		t.Errorf("commit order = [%v %v], want [n1 n3]", got[0].Proposer, got[1].Proposer)
	}
}

func TestLatencyIsFPlusOneRounds(t *testing.T) {
	c := newCluster(t, 5) // f = 2
	c.replicas[1].Propose(op(1, 1, "x"))
	c.tick(1) // broadcast happens here
	c.tick(2)
	c.tick(3)
	if len(c.committed[2]) != 0 {
		t.Fatal("committed before f+1 rounds elapsed")
	}
	c.tick(4) // round 1 + f + 1 = 4: finalize
	if len(c.committed[2]) != 1 {
		t.Fatalf("not committed at round f+1: %v", c.committed[2])
	}
	c.checkAgreement()
}

func TestSenderOmissionStillAgrees(t *testing.T) {
	// Node 1's initial broadcast reaches only node 2 (crash mid-send).
	// Relaying must ensure all correct nodes commit the value anyway.
	c := newCluster(t, 5)
	first := true
	c.drop = func(from, to ids.NodeID, _ actor.Message) bool {
		if from == 1 && first && to != 2 {
			return true
		}
		return false
	}
	c.replicas[1].Propose(op(1, 1, "survivor"))
	c.tick(1)
	first = false
	c.drop = func(from, _ ids.NodeID, _ actor.Message) bool { return from == 1 } // node 1 silent now
	c.runRounds(2, 5)
	got := c.checkAgreement()
	if len(got) != 1 || string(got[0].Data) != "survivor" {
		t.Fatalf("committed = %v, want [survivor]", got)
	}
}

func TestEquivocationCommitsNothing(t *testing.T) {
	// Byzantine node 5 sends value A to nodes {1,2} and value B to {3,4}.
	c := newCluster(t, 5, 5) // 5 is byzantine (no replica)
	msgA, msgB := c.slotMsg(5, c.signers[5], "A"), c.slotMsg(5, c.signers[5], "B")
	c.tick(1)
	c.send(5, 1, msgA)
	c.send(5, 2, msgA)
	c.send(5, 3, msgB)
	c.send(5, 4, msgB)
	c.deliverAll()
	c.runRounds(2, 6)
	got := c.checkAgreement()
	if len(got) != 0 {
		t.Fatalf("equivocated slot committed %v, want nothing", got)
	}
}

func TestForgedChainRejected(t *testing.T) {
	c := newCluster(t, 3, 3)
	// Byzantine 3 claims an op from node 1 with its own signature only.
	ops := []smr.Operation{op(1, 9, "forged")}
	d := smr.OpsDigest(1, 1, 1, 1, ops)
	msg := SlotMsg{
		GroupID: 1, Epoch: 1, StartRound: 1, Sender: 1,
		Ops:  ops,
		Sigs: []SigEntry{{Node: 1, Sig: c.signers[3].Sign(d[:])}}, // wrong key
	}
	c.tick(1)
	c.send(3, 2, msg)
	c.deliverAll()
	c.runRounds(2, 4)
	if len(c.committed[2]) != 0 {
		t.Fatalf("forged message committed: %v", c.committed[2])
	}
}

func TestTamperedOpsRejected(t *testing.T) {
	c := newCluster(t, 3, 3)
	// A valid message from node 1...
	c.replicas[1].Propose(op(1, 1, "good"))
	c.tick(1)
	// ...whose ops a Byzantine relay alters. Signature binds the digest, so
	// the altered message must be rejected by receivers.
	ops := []smr.Operation{op(1, 1, "evil")}
	d := smr.OpsDigest(1, 1, 1, 1, ops)
	_ = d
	var stolen SlotMsg
	for _, e := range c.inbox[3] {
		if m, ok := e.msg.(SlotMsg); ok {
			stolen = m
		}
	}
	if stolen.Sender != 1 {
		t.Skip("no slot message captured (delivery raced)")
	}
	stolen.Ops = ops
	c.send(3, 2, stolen)
	c.runRounds(2, 4)
	got := c.checkAgreement()
	if len(got) != 1 || string(got[0].Data) != "good" {
		t.Fatalf("committed = %v, want only [good]", got)
	}
}

func TestWrongEpochIgnored(t *testing.T) {
	c := newCluster(t, 3)
	msg := SlotMsg{GroupID: 1, Epoch: 99, StartRound: 1, Sender: 2,
		Ops: []smr.Operation{op(2, 1, "stale")}}
	c.tick(1)
	c.send(2, 1, msg)
	c.runRounds(2, 4)
	if len(c.committed[1]) != 0 {
		t.Fatalf("wrong-epoch message committed: %v", c.committed[1])
	}
}

func TestStoppedReplicaInert(t *testing.T) {
	c := newCluster(t, 3)
	c.replicas[1].Stop()
	c.replicas[1].Propose(op(1, 1, "late"))
	c.runRounds(1, 4)
	if len(c.committed[1]) != 0 {
		t.Fatal("stopped replica committed")
	}
}

func TestManyProposersProperty(t *testing.T) {
	// Random proposals over several rounds; all correct replicas must end
	// with identical sequences containing every proposed op exactly once.
	for seed := int64(0); seed < 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			n := 4 + rng.Intn(4) // 4..7 replicas
			c := newCluster(t, n)
			c.rng = rand.New(rand.NewSource(seed + 100))
			proposed := 0
			var round uint64
			for round = 1; round <= 6; round++ {
				for id, r := range c.replicas {
					if rng.Intn(2) == 0 {
						proposed++
						r.Propose(op(id, uint64(proposed), fmt.Sprintf("op%d", proposed)))
					}
				}
				c.tick(round)
			}
			// Drain: run f+2 extra empty rounds.
			for ; round <= 6+uint64(smr.SyncF(n))+2; round++ {
				c.tick(round)
			}
			got := c.checkAgreement()
			if len(got) != proposed {
				t.Fatalf("committed %d ops, proposed %d", len(got), proposed)
			}
			seen := make(map[string]bool)
			for _, o := range got {
				key := fmt.Sprintf("%v-%d", o.Proposer, o.OpID)
				if seen[key] {
					t.Fatalf("duplicate commit %s", key)
				}
				seen[key] = true
			}
		})
	}
}

func TestWireSizeGrowsWithChain(t *testing.T) {
	base := SlotMsg{Ops: []smr.Operation{op(1, 1, "x")}}
	withSigs := base
	withSigs.Sigs = []SigEntry{{Node: 1, Sig: make([]byte, 32)}, {Node: 2, Sig: make([]byte, 32)}}
	if withSigs.WireSize() <= base.WireSize() {
		t.Error("WireSize must account for the signature chain")
	}
}

// TestVerifyOncePerAcceptedValue pins the verify-once rule: with all g=8
// members correct, a replica checks a slot's chain only on first
// acceptance, so over R slots it makes at most (f+1)·R Verify calls
// rather than one chain check per relayed copy.
func TestVerifyOncePerAcceptedValue(t *testing.T) {
	const g, rounds = 8, 3
	c := newCluster(t, g)
	slots := 0
	for round := uint64(1); round <= rounds; round++ {
		for _, m := range c.members {
			c.replicas[m.ID].Propose(op(m.ID, round, fmt.Sprintf("op-%v-%d", m.ID, round)))
			slots++
		}
		c.tick(round)
	}
	f := smr.SyncF(g)
	c.runRounds(rounds+1, rounds+uint64(f)+1)
	if got := c.checkAgreement(); len(got) != slots {
		t.Fatalf("committed %d ops, want %d", len(got), slots)
	}
	foreign := slots - rounds // slots another member started
	for _, m := range c.members {
		v := c.schemes[m.ID].verifies
		if v > (f+1)*slots {
			t.Errorf("%v made %d Verify calls, want <= (f+1)·R = %d", m.ID, v, (f+1)*slots)
		}
		if v < foreign {
			t.Errorf("%v made %d Verify calls, want >= one per foreign slot (%d)", m.ID, v, foreign)
		}
	}
}

// TestEquivocationAfterAcceptanceVerified: a byte-different value B that
// reaches a replica after it accepted A is still verified, accepted and
// relayed, so the slot commits nothing.
func TestEquivocationAfterAcceptanceVerified(t *testing.T) {
	c := newCluster(t, 5, 5)
	msgA, msgB := c.slotMsg(5, c.signers[5], "A"), c.slotMsg(5, c.signers[5], "B")
	c.tick(1)
	for id := ids.NodeID(1); id <= 4; id++ {
		c.send(5, id, msgA)
	}
	c.deliverAll()
	before := c.schemes[1].verifies
	c.send(5, 1, msgB)
	c.deliverAll()
	if c.schemes[1].verifies == before {
		t.Fatal("equivocating value B was not verified")
	}
	key := slotKey{startRound: 1, sender: 5}
	if n := len(c.replicas[1].slots[key].accepted); n != 2 {
		t.Fatalf("replica 1 holds %d values for the equivocated slot, want 2", n)
	}
	c.runRounds(2, 6)
	if got := c.checkAgreement(); len(got) != 0 {
		t.Fatalf("equivocated slot committed %v, want nothing", got)
	}
}

// TestForgedValueAfterAcceptanceRejected: a byte-different value B whose
// chain is forged is checked and rejected after A was accepted, so the
// slot commits A.
func TestForgedValueAfterAcceptanceRejected(t *testing.T) {
	c := newCluster(t, 5, 5)
	msgA := c.slotMsg(5, c.signers[5], "A")
	forged := c.slotMsg(5, c.signers[4], "B") // node 5's slot, node 4's key
	c.tick(1)
	for id := ids.NodeID(1); id <= 4; id++ {
		c.send(5, id, msgA)
	}
	c.deliverAll()
	before := c.schemes[1].verifies
	c.send(5, 1, forged)
	c.deliverAll()
	if c.schemes[1].verifies == before {
		t.Fatal("forged value B was not verified")
	}
	c.runRounds(2, 6)
	got := c.checkAgreement()
	if len(got) != 1 || string(got[0].Data) != "A" {
		t.Fatalf("committed = %v, want [A]", got)
	}
}

// TestAcceptedCopyWithGarbageSigsInert: a byte-equal copy of an accepted
// value is dropped before its chain is looked at, so garbage signatures
// cause no Verify call, no send and no state change.
func TestAcceptedCopyWithGarbageSigsInert(t *testing.T) {
	c := newCluster(t, 5, 5)
	msgA := c.slotMsg(5, c.signers[5], "A")
	c.tick(1)
	for id := ids.NodeID(1); id <= 4; id++ {
		c.send(5, id, msgA)
	}
	c.deliverAll()
	r := c.replicas[1]
	copyA := msgA
	copyA.Ops = []smr.Operation{op(5, 1, "A")} // equal bytes, fresh slices
	copyA.Sigs = []SigEntry{{Node: 5, Sig: bytes.Repeat([]byte{0xee}, 32)}, {Node: 3, Sig: []byte("junk")}}
	state, verifies := acceptedDigests(r), c.schemes[1].verifies
	sends := 0
	c.drop = func(from, _ ids.NodeID, _ actor.Message) bool {
		if from == 1 {
			sends++
		}
		return false
	}
	r.Receive(5, copyA)
	if sends != 0 {
		t.Errorf("copy of an accepted value caused %d sends, want 0", sends)
	}
	if c.schemes[1].verifies != verifies {
		t.Errorf("copy of an accepted value caused %d Verify calls, want 0", c.schemes[1].verifies-verifies)
	}
	if after := acceptedDigests(r); !reflect.DeepEqual(after, state) {
		t.Errorf("accepted values changed: %v -> %v", state, after)
	}
	c.drop = nil
	c.runRounds(2, 6)
	got := c.checkAgreement()
	if len(got) != 1 || string(got[0].Data) != "A" {
		t.Fatalf("committed = %v, want [A]", got)
	}
}

// BenchmarkDolevSlot carries one proposal through a g=8 group of
// in-memory replicas until every member commits it: one broadcast, the
// relay round, and finalization after f+1 rounds. verifies/op counts the
// Verify calls of all replicas per committed slot.
func BenchmarkDolevSlot(b *testing.B) {
	for _, s := range []crypto.Scheme{crypto.SimScheme{}, crypto.Ed25519Scheme{}} {
		b.Run(s.Name(), func(b *testing.B) { benchmarkDolevSlot(b, s) })
	}
}

func benchmarkDolevSlot(b *testing.B, scheme crypto.Scheme) {
	const g = 8
	type delivery struct {
		from, to ids.NodeID
		msg      actor.Message
	}
	members, signers := newMembers(scheme, g)
	counter := &countingScheme{Scheme: scheme}
	var pending []delivery
	commits := 0
	replicas := make(map[ids.NodeID]*Replica, g)
	for _, m := range members {
		id := m.ID
		replicas[id] = New(smr.Config{
			GroupID: 1,
			Epoch:   1,
			Members: members,
			Self:    id,
			Scheme:  counter,
			Signer:  signers[id],
			Send: func(to ids.NodeID, msg actor.Message) {
				pending = append(pending, delivery{from: id, to: to, msg: msg})
			},
			Commit: func(smr.Operation) { commits++ },
		})
	}
	var round uint64
	tick := func() {
		round++
		for _, m := range members {
			replicas[m.ID].Tick(round)
		}
		for i := 0; i < len(pending); i++ { // Receive may append relays
			d := pending[i]
			replicas[d.to].Receive(d.from, d.msg)
		}
		clear(pending)
		pending = pending[:0]
	}
	proposer := members[0].ID
	data := bytes.Repeat([]byte("x"), 64)
	rounds := smr.SyncF(g) + 2 // broadcast round, then f+1 until finalization
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replicas[proposer].Propose(smr.Operation{Proposer: proposer, OpID: uint64(i), Data: data})
		for k := 0; k < rounds; k++ {
			tick()
		}
	}
	b.StopTimer()
	if commits != g*b.N {
		b.Fatalf("%d commits over %d slots, want %d", commits, b.N, g*b.N)
	}
	b.ReportMetric(float64(counter.verifies)/float64(b.N), "verifies/op")
}
