package core

import (
	"encoding/hex"
	"testing"

	"atum/internal/crypto"
	"atum/internal/group"
	"atum/internal/overlay"
)

// TestMsgIDGolden pins every deterministic MsgID derivation to fixed values.
// MsgIDs travel on the wire and are matched across the members of a vgroup,
// so a change in how they are computed (hoisted tag digests, a different
// hash helper) must not change a single byte: members on different builds
// would stop converging on the same inbox entries.
func TestMsgIDGolden(t *testing.T) {
	b := crypto.Hash([]byte("golden-bcast"))
	src := group.Composition{GroupID: 0x1234, Epoch: 7}
	cases := []struct {
		name string
		got  crypto.Digest
		want string
	}{
		{"gossipMsgID", gossipMsgID(b, src, 0x5678), "f41cd401c9a0a47fe040d895ec154bccbc80e0fb477bb8aa3bfb78246d7b1033"},
		{"treeRank", treeRank(0x5678, 0x1234), "f0b68d57463f3468d15e1846c3fea9a4fe16fcbd66e176f89bbf2a00d4df1c81"},
		{"batchMsgID/group", batchMsgID(src, 0x5678, 42, 9), "44089826ba17ba1b4e9ee8f290411a437080806bb1eb373fd5893af3f60db0d7"},
		{"batchMsgID/node", batchMsgID(src, 0, 42, 10), "0914717250ac630689eff92d3d2bfa23590507cf489e3f3baa49136efa5b0e42"},
		{"walkMsgID", walkMsgID(b, 3, 0x5678), "9e69ccdb25217c70a40fee21347dc6d90a42b16d8e32777c06cefaa3f037cb9e"},
		{"replyMsgID", replyMsgID(b, 2), "4ea2745080c36b922fca6fb17ee29d34596fb1cf152cf70ebb18a44792b5cdf4"},
		{"snapMsgID", snapMsgID(src, 42), "29703d68c1f05eec0ac595a26d46db223f74501370730c2bb105310c32d218e3"},
		{"nbrUpdateMsgID", nbrUpdateMsgID(src, 0x5678), "ee442e7dc73c369c308e3fb0d94a87a5d5b12063d6c5dff6709dcb70a8bc957f"},
		{"pruneMsgID", pruneMsgID(src, 0x5678, b), "5d2ca48b1f55e7087f1da0771be625a359f0c73d1098916da9ae1fcefb2995c2"},
		{"graftMsgID", graftMsgID(src, 0x5678, b), "8f5839a6dc12393aa45c326b86ebbac8180f946b6002a3ee859c8d6d8ed5c0c0"},
		{"setNbrMsgID", setNbrMsgID(src, 0x5678, 1, overlay.Succ), "9455883ac022627297f4c929428d569ef74321cfe288999468a6ead86e480ba2"},
		{"freshMsgID", freshMsgID(src, 0x5678), "79e8fd3b90681da3bd95b3f82168a994619818ae126bf2041a4f2f4c44f4604a"},
		{"cycleAssignMsgID", cycleAssignMsgID(src, 0x5678, 2), "8d4241f0e22e463367a7e214ec9091bd31a334596170494d694f9144eb26fc47"},
		{"newBcastID", newBcastID(42, 5, []byte("golden-data")), "8d4c596adfb0c94a3a606aee4a6dc5cdb212db39b03c08ae7bb2b99c3125d095"},
	}
	for _, c := range cases {
		if got := hex.EncodeToString(c.got[:]); got != c.want {
			t.Errorf("%s = %s, want %s", c.name, got, c.want)
		}
	}
	if g := deriveGroupID(0x1234, 7); g != 1874813343124807841 {
		t.Errorf("deriveGroupID = %d, want 1874813343124807841", uint64(g))
	}
}
