package crypto

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

func schemes() []Scheme {
	return []Scheme{Ed25519Scheme{}, SimScheme{}}
}

func TestSignVerify(t *testing.T) {
	for _, s := range schemes() {
		t.Run(s.Name(), func(t *testing.T) {
			signer := s.NewSigner([]byte("seed-1"))
			msg := []byte("hello atum")
			sig := signer.Sign(msg)
			if len(sig) != s.SignatureSize() {
				t.Errorf("signature size = %d, want %d", len(sig), s.SignatureSize())
			}
			if !s.Verify(signer.Public(), msg, sig) {
				t.Error("valid signature rejected")
			}
			if s.Verify(signer.Public(), []byte("other"), sig) {
				t.Error("signature accepted for wrong message")
			}
			other := s.NewSigner([]byte("seed-2"))
			if s.Verify(other.Public(), msg, sig) {
				t.Error("signature accepted under wrong key")
			}
			if s.Verify(signer.Public(), msg, sig[:len(sig)-1]) {
				t.Error("truncated signature accepted")
			}
		})
	}
}

func TestSignerDeterministicFromSeed(t *testing.T) {
	for _, s := range schemes() {
		t.Run(s.Name(), func(t *testing.T) {
			a := s.NewSigner([]byte("same"))
			b := s.NewSigner([]byte("same"))
			if !bytes.Equal(a.Public(), b.Public()) {
				t.Error("same seed produced different public keys")
			}
			c := s.NewSigner([]byte("diff"))
			if bytes.Equal(a.Public(), c.Public()) {
				t.Error("different seeds produced equal public keys")
			}
		})
	}
}

func TestHash(t *testing.T) {
	a := Hash([]byte("ab"))
	b := Hash([]byte("a"), []byte("b"))
	if a != b {
		t.Error("Hash should concatenate chunks")
	}
	if a.IsZero() {
		t.Error("hash of data should not be zero")
	}
	var z Digest
	if !z.IsZero() {
		t.Error("zero digest should report IsZero")
	}
	if Hash([]byte("x")) == Hash([]byte("y")) {
		t.Error("distinct inputs should hash differently")
	}
}

func TestHashUint64(t *testing.T) {
	d := Hash([]byte("base"))
	if HashUint64(d, 1) == HashUint64(d, 2) {
		t.Error("HashUint64 should distinguish values")
	}
	if HashUint64(d, 1) != HashUint64(d, 1) {
		t.Error("HashUint64 should be deterministic")
	}
}

func TestDigestSeedStable(t *testing.T) {
	d := Hash([]byte("seed-me"))
	if d.Seed() != d.Seed() {
		t.Error("Seed should be deterministic")
	}
	e := Hash([]byte("seed-you"))
	if d.Seed() == e.Seed() {
		t.Error("distinct digests should give distinct seeds (overwhelmingly)")
	}
}

func TestSignVerifyProperty(t *testing.T) {
	for _, s := range schemes() {
		scheme := s
		f := func(seed, msg []byte) bool {
			signer := scheme.NewSigner(seed)
			sig := signer.Sign(msg)
			return scheme.Verify(signer.Public(), msg, sig)
		}
		cfg := &quick.Config{MaxCount: 25}
		if err := quick.Check(f, cfg); err != nil {
			t.Errorf("%s: %v", scheme.Name(), err)
		}
	}
}

func BenchmarkSign(b *testing.B) {
	msg := bytes.Repeat([]byte("m"), 256)
	for _, s := range schemes() {
		signer := s.NewSigner([]byte("bench"))
		b.Run(s.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				signer.Sign(msg)
			}
		})
	}
}

func BenchmarkVerify(b *testing.B) {
	msg := bytes.Repeat([]byte("m"), 256)
	for _, s := range schemes() {
		signer := s.NewSigner([]byte("bench"))
		sig := signer.Sign(msg)
		b.Run(s.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !s.Verify(signer.Public(), msg, sig) {
					b.Fatal("verify failed")
				}
			}
		})
	}
}

// TestHashMatchesSum256Property pins Hash to plain SHA-256 of the chunk
// concatenation over random splits, including empty chunks, single chunks,
// and inputs larger than several SHA-256 blocks and any stack buffer.
func TestHashMatchesSum256Property(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, size := range []int{0, 1, 31, 32, 40, 55, 56, 64, 255, 256, 257, 4096, 70000} {
		for trial := 0; trial < 20; trial++ {
			data := make([]byte, size)
			rng.Read(data)
			want := Digest(sha256.Sum256(data))
			var chunks [][]byte
			for rest := data; ; {
				if rng.Intn(4) == 0 {
					chunks = append(chunks, []byte{}) // empty chunk
				}
				if len(rest) == 0 {
					break
				}
				k := rng.Intn(len(rest) + 1)
				chunks = append(chunks, rest[:k])
				rest = rest[k:]
			}
			if got := Hash(chunks...); got != want {
				t.Fatalf("size %d, %d chunks: Hash != sha256.Sum256 of the concatenation", size, len(chunks))
			}
		}
	}
	if Hash() != Digest(sha256.Sum256(nil)) {
		t.Fatal("Hash() != sha256 of the empty input")
	}
}

// TestHashUint64MatchesHash pins HashUint64(d, v) to Hash(d, be64(v)).
func TestHashUint64MatchesHash(t *testing.T) {
	f := func(seed []byte, v uint64) bool {
		d := Hash(seed)
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], v)
		return HashUint64(d, v) == Hash(d[:], b[:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestHashDoesNotAllocate pins the allocation-free paths: HashUint64, a
// single-chunk Hash, and a short multi-chunk Hash over a stack array.
func TestHashDoesNotAllocate(t *testing.T) {
	payload := bytes.Repeat([]byte("p"), 4096)
	d := Hash([]byte("tag"))
	var sink Digest
	cases := []struct {
		name string
		f    func()
	}{
		{"HashUint64", func() { sink = HashUint64(d, 42) }},
		{"single chunk", func() { sink = Hash(payload) }},
		{"tag+digest", func() {
			var id Digest
			sink = Hash([]byte("atum-gossip"), id[:])
		}},
	}
	for _, c := range cases {
		if allocs := testing.AllocsPerRun(100, c.f); allocs != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", c.name, allocs)
		}
	}
	_ = sink
}

// TestSimSchemeMatchesHMAC pins SimScheme signatures to the crypto/hmac
// reference HMAC-SHA256(H("atum-sim" || pub), msg), so the allocation-free
// MAC changes no signature byte.
func TestSimSchemeMatchesHMAC(t *testing.T) {
	var s SimScheme
	rng := rand.New(rand.NewSource(1))
	for _, seed := range []string{"", "node-1", "node-2", "bench", "a much longer signer seed than one hash block"} {
		signer := s.NewSigner([]byte(seed))
		pub := signer.Public()
		key := Hash([]byte("atum-sim"), pub)
		for _, size := range []int{0, 1, 32, 96, 200} {
			msg := make([]byte, size)
			rng.Read(msg)
			mac := hmac.New(sha256.New, key[:])
			mac.Write(msg)
			want := mac.Sum(nil)
			if got := signer.Sign(msg); !bytes.Equal(got, want) {
				t.Fatalf("seed %q, %d-byte msg: Sign = %x, want %x", seed, size, got, want)
			}
			if !s.Verify(pub, msg, want) {
				t.Fatalf("seed %q, %d-byte msg: Verify rejected the reference HMAC", seed, size)
			}
			bad := bytes.Clone(want)
			bad[size%len(bad)] ^= 1
			if s.Verify(pub, msg, bad) {
				t.Fatalf("seed %q, %d-byte msg: Verify accepted a flipped signature", seed, size)
			}
		}
	}
}

// TestSimSchemeAllocations bounds SimScheme on a 32-byte digest, the
// message every SMR signature covers: Sign allocates only the returned
// slice and Verify allocates nothing.
func TestSimSchemeAllocations(t *testing.T) {
	var s SimScheme
	signer := s.NewSigner([]byte("allocs"))
	pub := signer.Public()
	msg := Hash([]byte("digest"))
	sig := signer.Sign(msg[:])
	if allocs := testing.AllocsPerRun(100, func() { sig = signer.Sign(msg[:]) }); allocs > 1 {
		t.Errorf("Sign: %.1f allocs/op, want <= 1", allocs)
	}
	ok := true
	if allocs := testing.AllocsPerRun(100, func() { ok = s.Verify(pub, msg[:], sig) }); allocs != 0 {
		t.Errorf("Verify: %.1f allocs/op, want 0", allocs)
	}
	if !ok {
		t.Error("Verify rejected a valid signature")
	}
}
