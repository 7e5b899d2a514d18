// Package group provides the cyclic-group key agreement used by the
// blinding protocol of Section 6 ("Blinding factors"). Each eyeWnder user
// holds a Diffie–Hellman key pair (x_i, y_i = g^x_i); any two users derive
// the same pairwise secret from which additive random shares of zero are
// expanded.
//
// The one suite is P256: NIST P-256 ECDH via crypto/ecdh (stdlib-only,
// small keys, fast, constant-time). The protocol is agnostic to the
// suite.
package group

import (
	"crypto/ecdh"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
)

// ErrBadPublicKey marks a malformed peer public key.
var ErrBadPublicKey = errors.New("group: malformed peer public key")

// Suite is a cyclic group supporting Diffie–Hellman key agreement.
type Suite interface {
	// Name identifies the suite ("P256").
	Name() string
	// GenerateKey draws a fresh key pair from rand.
	GenerateKey(rand io.Reader) (PrivateKey, error)
	// PublicKeySize is the encoded public key length in bytes.
	PublicKeySize() int
}

// PrivateKey is one party's secret key x with its public share y = g^x.
type PrivateKey interface {
	// PublicKey returns the encoded public share to publish on the
	// bulletin board.
	PublicKey() []byte
	// SharedSecret derives the 32-byte pairwise secret with the peer
	// holding the given encoded public key. SharedSecret is symmetric:
	// a.SharedSecret(b.PublicKey()) == b.SharedSecret(a.PublicKey()).
	// It only reads the key, so it is safe for concurrent use: callers
	// may derive secrets with many peers in parallel.
	SharedSecret(peerPublic []byte) ([]byte, error)
}

// --- P-256 ECDH suite ---

type p256Suite struct{}

// P256 returns the NIST P-256 ECDH suite.
func P256() Suite { return p256Suite{} }

func (p256Suite) Name() string { return "P256" }

func (p256Suite) PublicKeySize() int { return 65 } // uncompressed point

func (p256Suite) GenerateKey(rand io.Reader) (PrivateKey, error) {
	k, err := ecdh.P256().GenerateKey(rand)
	if err != nil {
		return nil, err
	}
	return &p256Key{k: k}, nil
}

type p256Key struct{ k *ecdh.PrivateKey }

func (p *p256Key) PublicKey() []byte { return p.k.PublicKey().Bytes() }

func (p *p256Key) SharedSecret(peerPublic []byte) ([]byte, error) {
	pub, err := ecdh.P256().NewPublicKey(peerPublic)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadPublicKey, err)
	}
	secret, err := p.k.ECDH(pub)
	if err != nil {
		return nil, err
	}
	// Hash the raw x-coordinate into a uniform 32-byte key.
	sum := sha256.Sum256(secret)
	return sum[:], nil
}
