// Package group provides the cyclic-group key agreement used by the
// blinding protocol of Section 6 ("Blinding factors"). Each eyeWnder user
// holds a Diffie–Hellman key pair (x_i, y_i = g^x_i); any two users derive
// the same pairwise secret from which additive random shares of zero are
// expanded.
//
// Two suites are provided, both stdlib-only:
//
//   - P256: NIST P-256 ECDH via crypto/ecdh (the default; small keys,
//     fast, constant-time).
//   - MODP2048: the classic finite-field group of the paper's exposition
//     (g generates a prime-order subgroup mod a 2048-bit safe prime,
//     RFC 3526 group 14), where Computational Diffie–Hellman is assumed
//     hard.
//
// The MODP suite exists so the "blinding group" ablation bench can compare
// the two; the protocol is agnostic to the suite.
package group

import (
	"crypto/ecdh"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/big"
)

// Errors returned by the package.
var (
	ErrBadPublicKey = errors.New("group: malformed peer public key")
	ErrUnknownSuite = errors.New("group: unknown suite")
)

// Suite is a cyclic group supporting Diffie–Hellman key agreement.
type Suite interface {
	// Name identifies the suite ("P256" or "MODP2048").
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

// BySuiteName returns the suite with the given Name.
func BySuiteName(name string) (Suite, error) {
	switch name {
	case "P256":
		return P256(), nil
	case "MODP2048":
		return MODP2048(), nil
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownSuite, name)
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

// --- RFC 3526 2048-bit MODP suite ---

// modp2048P is the 2048-bit safe prime of RFC 3526 group 14.
const modp2048PHex = "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1" +
	"29024E088A67CC74020BBEA63B139B22514A08798E3404DD" +
	"EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245" +
	"E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED" +
	"EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3D" +
	"C2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F" +
	"83655D23DCA3AD961C62F356208552BB9ED529077096966D" +
	"670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B" +
	"E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9" +
	"DE2BCBF6955817183995497CEA956AE515D2261898FA0510" +
	"15728E5A8AACAA68FFFFFFFFFFFFFFFF"

type modpSuite struct {
	p, q, g *big.Int
}

var modp2048 *modpSuite

func init() {
	p, ok := new(big.Int).SetString(modp2048PHex, 16)
	if !ok {
		panic("group: bad MODP constant")
	}
	q := new(big.Int).Rsh(new(big.Int).Sub(p, big.NewInt(1)), 1) // (p-1)/2
	modp2048 = &modpSuite{p: p, q: q, g: big.NewInt(2)}
}

// MODP2048 returns the RFC 3526 group-14 finite-field suite.
func MODP2048() Suite { return modp2048 }

func (s *modpSuite) Name() string { return "MODP2048" }

func (s *modpSuite) PublicKeySize() int { return 256 }

func (s *modpSuite) GenerateKey(rand io.Reader) (PrivateKey, error) {
	// x uniform in [2, q).
	max := new(big.Int).Sub(s.q, big.NewInt(2))
	x, err := randInt(rand, max)
	if err != nil {
		return nil, err
	}
	x.Add(x, big.NewInt(2))
	y := new(big.Int).Exp(s.g, x, s.p)
	return &modpKey{suite: s, x: x, y: y}, nil
}

type modpKey struct {
	suite *modpSuite
	x, y  *big.Int
}

func (k *modpKey) PublicKey() []byte {
	out := make([]byte, k.suite.PublicKeySize())
	k.y.FillBytes(out)
	return out
}

func (k *modpKey) SharedSecret(peerPublic []byte) ([]byte, error) {
	if len(peerPublic) != k.suite.PublicKeySize() {
		return nil, ErrBadPublicKey
	}
	y := new(big.Int).SetBytes(peerPublic)
	// Reject identity / out-of-range elements.
	if y.Cmp(big.NewInt(2)) < 0 || y.Cmp(new(big.Int).Sub(k.suite.p, big.NewInt(1))) >= 0 {
		return nil, ErrBadPublicKey
	}
	shared := new(big.Int).Exp(y, k.x, k.suite.p)
	buf := make([]byte, k.suite.PublicKeySize())
	shared.FillBytes(buf)
	sum := sha256.Sum256(buf)
	return sum[:], nil
}

// randInt returns a uniform integer in [0, max) using rejection sampling.
func randInt(rand io.Reader, max *big.Int) (*big.Int, error) {
	if max.Sign() <= 0 {
		return nil, errors.New("group: non-positive bound")
	}
	bitLen := max.BitLen()
	byteLen := (bitLen + 7) / 8
	buf := make([]byte, byteLen)
	for {
		if _, err := io.ReadFull(rand, buf); err != nil {
			return nil, err
		}
		// Mask excess top bits to cut the rejection rate.
		if excess := 8*byteLen - bitLen; excess > 0 {
			buf[0] &= 0xff >> excess
		}
		v := new(big.Int).SetBytes(buf)
		if v.Cmp(max) < 0 {
			return v, nil
		}
	}
}
