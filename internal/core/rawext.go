package core

// The wire envelope's application extension-tag range. Kind tags 0x80–0xFF
// of the payload envelope (docs/WIRE.md) are reserved for application
// raw-message types: applications register a per-type codec here, and only
// registered types can be sent with SendRaw. SendRaw frames the message
// through the deterministic wire envelope and queues it as a kindRaw item,
// which the egress scheduler folds into batch carriers alongside engine
// kinds; the engine's transport codec never sees an extension-tag frame at
// the top level. MarshalRaw and
// UnmarshalRaw expose the same framing for application-owned bytes such as
// broadcast payloads. Tags are append-only per application, exactly like
// the engine's own kind tags; the assignments in use are documented in
// docs/WIRE.md.

import (
	"errors"
	"fmt"
	"reflect"
	"sync"

	"atum/internal/wire"
)

// RawTagMin is the first wire-envelope kind tag of the application extension
// range; every tag from here through 0xFF is application-defined.
const RawTagMin byte = 0x80

// rawCodec is one registered application raw-message type.
type rawCodec struct {
	tag       byte
	typ       reflect.Type
	marshal   func(v any, e *wire.Encoder)
	unmarshal func(d *wire.Decoder) any
}

var rawReg struct {
	//atumvet:allow actorconfine process-wide raw-codec registry: shared across nodes and runtimes by design, never touched by protocol handlers
	sync.RWMutex
	byTag  map[byte]*rawCodec
	byType map[reflect.Type]*rawCodec
}

// RegisterRawMessage registers an application raw-message type under a wire
// extension tag (RawTagMin..0xFF). prototype fixes the concrete type;
// marshal writes a value of that type, unmarshal reads one back (returning
// the decoded value; decode errors latch in the Decoder and are checked by
// the envelope layer). unmarshal must copy any bytes it keeps — use the
// Decoder's copying readers (VarBytes, String), not VarBytesView: transports
// may decode frames out of reusable buffers. Registration is process-wide and append-only:
// re-registering a tag with a different type, or a type under a different
// tag, panics — tags are a wire-compatibility contract, not a preference.
// Registering the same (tag, type) pair again is a no-op, so package-level
// registration from several nodes in one process is safe.
func RegisterRawMessage(tag byte, prototype any, marshal func(v any, e *wire.Encoder), unmarshal func(d *wire.Decoder) any) {
	if tag < RawTagMin {
		panic(fmt.Sprintf("core: raw message tag %#x below the extension range (%#x..0xff)", tag, RawTagMin))
	}
	typ := reflect.TypeOf(prototype)
	rawReg.Lock()
	defer rawReg.Unlock()
	if rawReg.byTag == nil {
		rawReg.byTag = make(map[byte]*rawCodec)
		rawReg.byType = make(map[reflect.Type]*rawCodec)
	}
	if prev, ok := rawReg.byTag[tag]; ok {
		if prev.typ == typ {
			return // idempotent re-registration
		}
		panic(fmt.Sprintf("core: raw message tag %#x already registered for %v", tag, prev.typ))
	}
	if prev, ok := rawReg.byType[typ]; ok {
		panic(fmt.Sprintf("core: raw message type %v already registered under tag %#x", typ, prev.tag))
	}
	c := &rawCodec{tag: tag, typ: typ, marshal: marshal, unmarshal: unmarshal}
	rawReg.byTag[tag] = c
	rawReg.byType[typ] = c
}

// errNotRawFrame rejects bytes that are not an extension-tag frame.
var errNotRawFrame = errors.New("core: not an extension-tag wire frame")

// MarshalRaw frames a registered application raw message as a complete
// wire-envelope frame ([magic][ext tag][version][body]), the payload of the
// kindRaw item SendRaw queues. Unregistered types return
// ErrUnregisteredType.
func MarshalRaw(v any) ([]byte, error) {
	rawReg.RLock()
	c, ok := rawReg.byType[reflect.TypeOf(v)]
	rawReg.RUnlock()
	if !ok {
		return nil, ErrUnregisteredType
	}
	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	e.Byte(wireEnvMagic)
	e.Byte(c.tag)
	e.Byte(wireEnvV1)
	c.marshal(v, e)
	return e.Detach(), nil
}

// UnmarshalRaw reverses MarshalRaw. Only extension-tag frames decode: a
// frame carrying an engine kind tag (below RawTagMin) is rejected before
// any decode work, so hostile bytes can never materialize an engine
// message through this path. Unknown tags, unsupported versions,
// truncation and trailing bytes are errors, never panics.
func UnmarshalRaw(b []byte) (any, error) {
	if len(b) < 3 || b[0] != wireEnvMagic || b[1] < RawTagMin {
		return nil, errNotRawFrame
	}
	tag := b[1]
	if b[2] != wireEnvV1 {
		return nil, fmt.Errorf("core: raw message tag %#x: unsupported version %d", tag, b[2])
	}
	rawReg.RLock()
	c, ok := rawReg.byTag[tag]
	rawReg.RUnlock()
	if !ok {
		return nil, fmt.Errorf("core: unregistered raw message tag %#x", tag)
	}
	d := wire.NewDecoder(b[3:])
	v := c.unmarshal(d)
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("core: decode raw message tag %#x: %w", tag, err)
	}
	return v, nil
}
