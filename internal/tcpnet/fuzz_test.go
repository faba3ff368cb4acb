package tcpnet

// Fuzz coverage for the frame reader: a peer may write arbitrary bytes on
// the socket; the reader must reject them with an error, never panic, and
// never allocate unbounded memory (MaxFrame enforces the bound).

import (
	"bytes"
	"encoding/binary"
	"testing"
)

func FuzzFrameReaderNeverPanics(f *testing.F) {
	// Seed with a valid hello frame, a truncated frame, and hostile lengths.
	var buf bytes.Buffer
	w := newFrameWriter(&buf)
	_ = w.writeHello(hello{From: 1, Addr: "x:1"})
	f.Add(buf.Bytes())
	f.Add([]byte{0, 0, 0, 4, 1, 2})                                     // truncated body
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})                               // absurd length
	f.Add([]byte{0, 0, 0, 0})                                           // zero length
	f.Add(append([]byte{0, 0, 0, 8}, bytes.Repeat([]byte{0xAA}, 8)...)) // garbage body

	f.Fuzz(func(t *testing.T, data []byte) {
		// The connection protocol: one hello, then wire frames.
		r := newFrameReader(bytes.NewReader(data), 1<<16, stubCodec{})
		if _, err := r.readHello(); err != nil {
			return // rejection is the expected outcome for junk
		}
		for i := 0; i < 3; i++ {
			if _, err := r.readEnvelope(); err != nil {
				return
			}
		}
	})
}

func FuzzFrameLengthBound(f *testing.F) {
	f.Add(uint32(17), []byte("payload"))
	f.Fuzz(func(t *testing.T, claimed uint32, body []byte) {
		const max = 1 << 12
		var buf bytes.Buffer
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], claimed)
		buf.Write(hdr[:])
		buf.Write(body)
		r := newFrameReader(&buf, max, stubCodec{})
		_, err := r.readEnvelope()
		if int(claimed) > max && err == nil {
			t.Fatalf("frame of claimed size %d accepted past bound %d", claimed, max)
		}
	})
}
