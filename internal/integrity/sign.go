package integrity

import (
	"crypto/ed25519"
	"crypto/rand"
	"fmt"
	"os"
	"sync/atomic"
)

// rootContext domain-separates root signatures from any other Ed25519
// use of the same key.
const rootContext = "tsdb-merkle-root-v1"

// SignedRoot is one sealed epoch root: the relation's tree root at a
// given size, signed by the primary. A client that pins the public key
// can verify any root offline; a follower compares its own recomputed
// root at the same size against the primary's signature.
type SignedRoot struct {
	Rel  string
	Size uint64
	Root Hash
	Sig  []byte // Ed25519 signature, empty on unsigned (follower) roots
	Key  []byte // Ed25519 public key the signature verifies under
}

// rootMessage is the byte string a root signature covers.
func rootMessage(rel string, size uint64, root Hash) []byte {
	msg := make([]byte, 0, len(rootContext)+1+8+HashSize+len(rel))
	msg = append(msg, rootContext...)
	msg = append(msg, 0)
	msg = append(msg,
		byte(size>>56), byte(size>>48), byte(size>>40), byte(size>>32),
		byte(size>>24), byte(size>>16), byte(size>>8), byte(size))
	msg = append(msg, root[:]...)
	msg = append(msg, rel...)
	return msg
}

// Signer signs sealed roots with a persistent Ed25519 key.
type Signer struct {
	priv ed25519.PrivateKey
	pub  ed25519.PublicKey
	// signed counts the signatures made, for /metrics: a signature costs
	// tens of microseconds, so where they are made is worth watching.
	signed atomic.Uint64
}

// NewSigner wraps an existing 32-byte seed.
func NewSigner(seed []byte) (*Signer, error) {
	if len(seed) != ed25519.SeedSize {
		return nil, fmt.Errorf("integrity: signer seed is %d bytes, want %d", len(seed), ed25519.SeedSize)
	}
	priv := ed25519.NewKeyFromSeed(seed)
	return &Signer{priv: priv, pub: priv.Public().(ed25519.PublicKey)}, nil
}

// LoadOrCreateSigner loads the seed file at path, minting and
// persisting a fresh random seed (0600) when absent, so a data
// directory keeps one signing identity across restarts.
func LoadOrCreateSigner(path string) (*Signer, error) {
	seed, err := os.ReadFile(path)
	if err == nil {
		return NewSigner(seed)
	}
	if !os.IsNotExist(err) {
		return nil, fmt.Errorf("integrity: reading signer key: %w", err)
	}
	seed = make([]byte, ed25519.SeedSize)
	if _, err := rand.Read(seed); err != nil {
		return nil, fmt.Errorf("integrity: minting signer key: %w", err)
	}
	if err := os.WriteFile(path, seed, 0o600); err != nil {
		return nil, fmt.Errorf("integrity: persisting signer key: %w", err)
	}
	return NewSigner(seed)
}

// Public returns the signer's public key.
func (s *Signer) Public() []byte {
	return append([]byte(nil), s.pub...)
}

// Signatures reports how many roots this signer has signed.
func (s *Signer) Signatures() uint64 { return s.signed.Load() }

// Sign seals one root.
func (s *Signer) Sign(rel string, size uint64, root Hash) SignedRoot {
	s.signed.Add(1)
	return SignedRoot{
		Rel:  rel,
		Size: size,
		Root: root,
		Sig:  ed25519.Sign(s.priv, rootMessage(rel, size, root)),
		Key:  s.Public(),
	}
}

// VerifyRoot checks a sealed root's signature under the given public
// key (normally the client's pinned key, not the one the server sent).
func VerifyRoot(key []byte, sr SignedRoot) bool {
	if len(key) != ed25519.PublicKeySize || len(sr.Sig) != ed25519.SignatureSize {
		return false
	}
	return ed25519.Verify(ed25519.PublicKey(key), rootMessage(sr.Rel, sr.Size, sr.Root), sr.Sig)
}
