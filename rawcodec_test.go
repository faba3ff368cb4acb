package atum_test

// Hostile-input coverage for the application raw-message codec
// (MarshalRawMessage / UnmarshalRawMessage): the decode side sees bytes
// that arrived from other nodes — broadcast payloads included — so it must
// reject anything that is not exactly one registered extension-tag frame.

import (
	"errors"
	"reflect"
	"testing"

	"atum"
	"atum/internal/core"
)

// rawProbe is registered under tag 0xF1, reserved for this file's tests
// (docs/WIRE.md tag table).
type rawProbe struct {
	Seq  uint64
	Body []byte
}

func init() {
	atum.RegisterRawMessage(0xF1, rawProbe{},
		func(v any, e *atum.WireEncoder) {
			m := v.(rawProbe)
			e.Uint64(m.Seq)
			e.VarBytes(m.Body)
		},
		func(d *atum.WireDecoder) any {
			return rawProbe{Seq: d.Uint64(), Body: d.VarBytes()}
		})
}

func TestRawMessageRoundTrip(t *testing.T) {
	want := rawProbe{Seq: 9, Body: []byte("payload")}
	b, err := atum.MarshalRawMessage(want)
	if err != nil {
		t.Fatal(err)
	}
	if b[0] != 0x00 || b[1] != 0xF1 || b[2] != 1 {
		t.Fatalf("frame header = % x, want 00 f1 01", b[:3])
	}
	got, err := atum.UnmarshalRawMessage(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip = %+v, want %+v", got, want)
	}
	type unregistered struct{ X int }
	if _, err := atum.MarshalRawMessage(unregistered{}); !errors.Is(err, atum.ErrUnregisteredType) {
		t.Fatalf("unregistered type returned %v, want ErrUnregisteredType", err)
	}
}

func TestUnmarshalRawMessageRejectsHostileInput(t *testing.T) {
	good, err := atum.MarshalRawMessage(rawProbe{Seq: 1, Body: []byte("abc")})
	if err != nil {
		t.Fatal(err)
	}
	// A genuine engine frame: valid for the transport codec, but its kind
	// tag is below the extension range.
	engine, ok := atum.WireMessageCodec().EncodeMessage(core.Heartbeat{GroupID: 3, Epoch: 4})
	if !ok {
		t.Fatal("engine message not encodable")
	}
	if _, err := atum.WireMessageCodec().DecodeMessage(engine); err != nil {
		t.Fatalf("engine frame does not decode on the transport path: %v", err)
	}
	with := func(i int, v byte) []byte {
		b := append([]byte(nil), good...)
		b[i] = v
		return b
	}
	cases := []struct {
		name string
		b    []byte
	}{
		{"engine kind tag", engine},
		{"engine tag on a raw body", with(1, core.RawTagMin-1)},
		{"truncated body", good[:len(good)-1]},
		{"trailing bytes", append(append([]byte(nil), good...), 0)},
		{"unknown extension tag", with(1, 0xEE)},
		{"bad magic", with(0, 0x47)},
		{"unsupported version", with(2, 2)},
		{"header only", good[:3]},
		{"short header", good[:2]},
		{"empty", nil},
	}
	for _, c := range cases {
		if v, err := atum.UnmarshalRawMessage(c.b); err == nil {
			t.Errorf("%s: accepted as %T %+v", c.name, v, v)
		}
	}
}
