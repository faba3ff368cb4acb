package main

import (
	"encoding/binary"
	"testing"

	"atum"
	"atum/internal/crypto"
)

// checkCluster returns a cluster with one recorded broadcast and one node,
// enough to drive the delivery and raw-chunk checks without simulating.
func checkCluster(t *testing.T) (*cluster, *node) {
	t.Helper()
	w, _ := findSpec("stream-async")
	c := newCluster(w, 1, false)
	payload := make([]byte, 16)
	binary.LittleEndian.PutUint64(payload, 0)
	copy(payload[8:], "payload!")
	c.bcasts = append(c.bcasts, bcast{payload: payload})
	c.net.Run(1) // delivery times must be positive
	return c, &node{id: 7}
}

func TestDeliveryChecks(t *testing.T) {
	id := crypto.Hash([]byte("b0"))
	deliver := func(c *cluster, nd *node, data []byte, id crypto.Digest) {
		c.onDeliver(nd, atum.Delivery{BcastID: id, Data: data})
	}

	c, nd := checkCluster(t)
	deliver(c, nd, c.bcasts[0].payload, id)
	if c.violation != nil || c.deliveries != 1 {
		t.Fatalf("clean delivery: violation=%v deliveries=%d", c.violation, c.deliveries)
	}
	deliver(c, nd, c.bcasts[0].payload, id)
	if c.violation == nil {
		t.Fatal("duplicate BcastID delivery not detected")
	}

	c, nd = checkCluster(t)
	altered := append([]byte(nil), c.bcasts[0].payload...)
	altered[len(altered)-1] ^= 1
	deliver(c, nd, altered, id)
	if c.violation == nil {
		t.Fatal("altered payload not detected")
	}

	c, nd = checkCluster(t)
	deliver(c, nd, c.bcasts[0].payload, id)
	deliver(c, &node{id: 8}, c.bcasts[0].payload, crypto.Hash([]byte("other")))
	if c.violation == nil {
		t.Fatal("one broadcast under two BcastIDs not detected")
	}
}

func TestRawChunkCheck(t *testing.T) {
	c, nd := checkCluster(t)
	c.window = true
	data := make([]byte, c.w.rawSize)
	fillChunk(data, 3, 42)
	c.onRaw(nd, 3, chunk{Seq: 42, Data: data})
	if c.violation != nil || nd.rawReceived != 1 {
		t.Fatalf("intact chunk: violation=%v received=%d", c.violation, nd.rawReceived)
	}
	data[100] ^= 0x80
	c.onRaw(nd, 3, chunk{Seq: 42, Data: data})
	if c.violation == nil {
		t.Fatal("corrupted chunk not detected")
	}
}
