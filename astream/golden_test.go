package astream

import (
	"encoding/hex"
	"testing"

	"atum"
	"atum/internal/crypto"
)

// TestDigestMsgGolden pins the tier-1 digest payload to fixed bytes. Every
// member of the source vgroup broadcasts this frame and receivers accept it
// only when a majority sent identical bytes, so a codec change that moves a
// single byte splits the vote across builds.
func TestDigestMsgGolden(t *testing.T) {
	b, err := atum.MarshalRawMessage(digestMsg{Seq: 0x0102030405060708, Digest: crypto.Hash([]byte("golden-chunk"))})
	if err != nil {
		t.Fatal(err)
	}
	const want = "" +
		"008101" + // magic · tag 0x81 · version 1
		"0102030405060708" + // Seq, 8 bytes big-endian
		"4aef3dff35850a5eb84798a96c06d23ba7d323d4fb90be53d90b08f17f14b99b" // Digest
	if got := hex.EncodeToString(b); got != want {
		t.Fatalf("digestMsg frame = %s, want %s", got, want)
	}
	v, err := atum.UnmarshalRawMessage(b)
	if err != nil {
		t.Fatal(err)
	}
	if m, ok := v.(digestMsg); !ok || m.Seq != 0x0102030405060708 || m.Digest != crypto.Hash([]byte("golden-chunk")) {
		t.Fatalf("golden frame decodes to %+v", v)
	}
}
