// Package crypto provides the node-layer cryptographic primitives of Atum:
// message digests, public-key signatures, and MAC-authenticated channels.
//
// Two signature schemes are provided behind one interface:
//
//   - Ed25519Scheme: real crypto/ed25519 signatures, used by the TCP runtime
//     and by correctness tests.
//   - SimScheme: a fast keyed-hash stand-in used by large discrete-event
//     simulations (hundreds of nodes, millions of messages), where real
//     asymmetric crypto would dominate CPU without changing any protocol
//     outcome. SimScheme is unforgeable only against the Byzantine behaviours
//     the harness itself injects (which, matching the paper's fault model,
//     never forge signatures).
//
// The scheme is a constructor parameter everywhere; swapping one for the
// other changes no protocol logic.
package crypto

import (
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
)

// DigestSize is the size of a message digest in bytes.
const DigestSize = 32

// Digest is a SHA-256 message digest.
type Digest [DigestSize]byte

// Hash computes the SHA-256 digest of the concatenation of the given chunks.
// It does not allocate, and chunks do not escape, so callers may pass slices
// of stack arrays.
func Hash(chunks ...[]byte) Digest {
	if len(chunks) == 1 {
		return sha256.Sum256(chunks[0])
	}
	h := sha256.New()
	for _, c := range chunks {
		h.Write(c)
	}
	var d Digest
	h.Sum(d[:0])
	return d
}

// HashUint64 folds a uint64 into a digest computation; convenient for
// deriving deterministic seeds from structured values. It equals
// Hash(d[:], big-endian v) and never allocates.
func HashUint64(d Digest, v uint64) Digest {
	var b [DigestSize + 8]byte
	copy(b[:], d[:])
	binary.BigEndian.PutUint64(b[DigestSize:], v)
	return sha256.Sum256(b[:])
}

// Seed derives a deterministic int64 PRNG seed from a digest.
func (d Digest) Seed() int64 {
	return int64(binary.BigEndian.Uint64(d[:8]))
}

// IsZero reports whether the digest is all zeroes.
func (d Digest) IsZero() bool { return d == Digest{} }

// Signer produces signatures for one node identity.
type Signer interface {
	// Public returns the public key that verifies this signer's signatures.
	Public() []byte
	// Sign signs msg and returns the signature.
	Sign(msg []byte) []byte
}

// Scheme creates signers and verifies signatures.
type Scheme interface {
	// Name identifies the scheme ("ed25519" or "sim").
	Name() string
	// NewSigner derives a signer deterministically from a seed.
	NewSigner(seed []byte) Signer
	// Verify reports whether sig is a valid signature on msg under pub.
	Verify(pub, msg, sig []byte) bool
	// SignatureSize returns the size in bytes of a signature, used by the
	// bandwidth model to account for certificate-chain overhead.
	SignatureSize() int
}

// --- Ed25519 ---

// Ed25519Scheme signs with crypto/ed25519.
type Ed25519Scheme struct{}

var _ Scheme = Ed25519Scheme{}

// Name implements Scheme.
func (Ed25519Scheme) Name() string { return "ed25519" }

// SignatureSize implements Scheme.
func (Ed25519Scheme) SignatureSize() int { return ed25519.SignatureSize }

// NewSigner implements Scheme. The seed is hashed to the required length, so
// any seed bytes work.
func (Ed25519Scheme) NewSigner(seed []byte) Signer {
	h := sha256.Sum256(seed)
	priv := ed25519.NewKeyFromSeed(h[:])
	return ed25519Signer{priv: priv, pub: priv.Public().(ed25519.PublicKey)}
}

// Verify implements Scheme.
func (Ed25519Scheme) Verify(pub, msg, sig []byte) bool {
	if len(pub) != ed25519.PublicKeySize || len(sig) != ed25519.SignatureSize {
		return false
	}
	return ed25519.Verify(ed25519.PublicKey(pub), msg, sig)
}

type ed25519Signer struct {
	priv ed25519.PrivateKey
	pub  ed25519.PublicKey
}

func (s ed25519Signer) Public() []byte { return s.pub }

func (s ed25519Signer) Sign(msg []byte) []byte { return ed25519.Sign(s.priv, msg) }

// --- Simulation scheme ---

// simSigSize is the size of a SimScheme signature.
const simSigSize = 32

// SimScheme is the fast simulation signature scheme. A signature is
// HMAC-SHA256(key = H("atum-sim" || pub), msg): any party can in principle
// recompute it, so it provides no security against an adversary outside the
// harness — but harness-injected Byzantine nodes never forge (the paper's
// model assumes unforgeable signatures), and every verification path is still
// exercised byte-for-byte.
type SimScheme struct{}

var _ Scheme = SimScheme{}

// Name implements Scheme.
func (SimScheme) Name() string { return "sim" }

// SignatureSize implements Scheme.
func (SimScheme) SignatureSize() int { return simSigSize }

// NewSigner implements Scheme.
func (SimScheme) NewSigner(seed []byte) Signer {
	pub := Hash([]byte("atum-sim-pub"), seed)
	return simSigner{pub: pub[:], key: simKey(pub[:])}
}

// Verify implements Scheme.
func (SimScheme) Verify(pub, msg, sig []byte) bool {
	if len(sig) != simSigSize {
		return false
	}
	key := simKey(pub)
	want := simMAC(&key, msg)
	return hmac.Equal(want[:], sig)
}

type simSigner struct {
	pub []byte
	key Digest // simKey(pub), derived once per signer
}

func (s simSigner) Public() []byte { return s.pub }

func (s simSigner) Sign(msg []byte) []byte {
	mac := simMAC(&s.key, msg)
	return mac[:]
}

// simKey is the HMAC key of a SimScheme public key: H("atum-sim" || pub).
func simKey(pub []byte) Digest {
	return Hash([]byte("atum-sim"), pub)
}

// simMAC computes HMAC-SHA256(key, msg) as RFC 2104 defines it, byte for
// byte what crypto/hmac returns, without allocating: the key is shorter
// than a SHA-256 block, so both padded keys and the outer hash input fit
// in one stack array.
func simMAC(key *Digest, msg []byte) Digest {
	const (
		block = sha256.BlockSize
		ipad  = 0x36
		opad  = 0x5c
	)
	var buf [block + DigestSize]byte
	for i := range block {
		buf[i] = ipad
	}
	for i, k := range key {
		buf[i] ^= k
	}
	inner := Hash(buf[:block], msg)
	for i := range block {
		buf[i] ^= ipad ^ opad
	}
	copy(buf[block:], inner[:])
	return sha256.Sum256(buf[:])
}
