// Package oprf implements the RSA-based oblivious pseudo-random function
// of Jarecki and Liu that eyeWnder uses to map ad URLs to ad IDs
// (Section 6, "OPRF").
//
// The oprf-server holds an RSA triple (N, d, e) and publishes (N, e). For
// an ad URL x the client computes the blinded request
//
//	x' = H(x) · r^e  mod N
//
// for a fresh random r; the server answers y = (x')^d mod N; the client
// unblinds y' = y · r⁻¹ = H(x)^d mod N and outputs the ad ID
//
//	F(k, x) = G(H(x)^d)
//
// where H hashes strings into Z_N and G hashes group elements to l output
// bytes. The server learns nothing about x (the request is uniformly
// random in Z_N*), the client learns nothing about d beyond the single
// evaluation, and without d nobody can relate an ad ID back to its URL —
// which is exactly the property the back-end must not have.
//
// The client verifies each response (y'^e ≡ H(x) mod N), so a misbehaving
// server cannot silently corrupt the ad-ID mapping.
package oprf

import (
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"io"
	"math/big"
)

// OutputSize is the ad-ID length l in bytes produced by G.
const OutputSize = 32

// Errors returned by the package.
var (
	ErrVerifyFailed = errors.New("oprf: server response failed verification")
	ErrBadElement   = errors.New("oprf: element outside Z_N")
	ErrKeyTooSmall  = errors.New("oprf: modulus below 1024 bits")
)

// Server holds the RSA secret key and evaluates blinded requests.
type Server struct {
	key *rsa.PrivateKey
}

// NewServer generates a fresh RSA key of the given modulus size (bits) and
// returns the server. The paper's deployment uses 1024-bit keys; 2048 is
// the recommended modern default.
func NewServer(bits int) (*Server, error) {
	if bits < 1024 {
		return nil, ErrKeyTooSmall
	}
	key, err := rsa.GenerateKey(rand.Reader, bits)
	if err != nil {
		return nil, err
	}
	return &Server{key: key}, nil
}

// NewServerFromKey wraps an existing RSA key (used by tests and by
// deployments that persist the oprf key). A nil key is rejected like an
// undersized one: Go 1.24+ refuses to generate sub-1024-bit keys, so
// callers probing small keys hold a nil *rsa.PrivateKey.
func NewServerFromKey(key *rsa.PrivateKey) (*Server, error) {
	if key == nil || key.N == nil || key.N.BitLen() < 1024 {
		return nil, ErrKeyTooSmall
	}
	return &Server{key: key}, nil
}

// PublicKey returns the public parameters (N, e) that clients need.
func (s *Server) PublicKey() PublicKey {
	return PublicKey{N: new(big.Int).Set(s.key.N), E: s.key.E}
}

// Evaluate answers one blinded request: y = x'^d mod N.
func (s *Server) Evaluate(blinded *big.Int) (*big.Int, error) {
	if blinded.Sign() <= 0 || blinded.Cmp(s.key.N) >= 0 {
		return nil, ErrBadElement
	}
	return new(big.Int).Exp(blinded, s.key.D, s.key.N), nil
}

// PublicKey is the public half of the OPRF key.
type PublicKey struct {
	N *big.Int
	E int
}

// Client performs the blinding side of the protocol.
type Client struct {
	pub  PublicKey
	rand io.Reader
}

// NewClient returns a client for the given server public key. If rng is
// nil, crypto/rand is used.
func NewClient(pub PublicKey, rng io.Reader) *Client {
	if rng == nil {
		rng = rand.Reader
	}
	return &Client{pub: pub, rand: rng}
}

// Request is the client-side state for one in-flight evaluation.
type Request struct {
	// Blinded is the value x' = H(x)·r^e mod N to send to the server.
	Blinded *big.Int
	x       []byte
	rInv    *big.Int
	hx      *big.Int
}

// Blind prepares a blinded request for input x.
func (c *Client) Blind(x []byte) (*Request, error) {
	n := c.pub.N
	hx := hashToZN(x, n)
	// Draw r uniform in Z_N*, keeping its inverse for unblinding.
	var r, rInv *big.Int
	for {
		var err error
		r, err = rand.Int(c.rand, n)
		if err != nil {
			return nil, err
		}
		if r.Sign() == 0 {
			continue
		}
		rInv = new(big.Int).ModInverse(r, n)
		if rInv != nil {
			break
		}
	}
	re := new(big.Int).Exp(r, big.NewInt(int64(c.pub.E)), n)
	blinded := re.Mul(re, hx)
	blinded.Mod(blinded, n)
	return &Request{Blinded: blinded, x: x, rInv: rInv, hx: hx}, nil
}

// Finalize unblinds the server's answer, verifies it against H(x), and
// returns the OutputSize-byte ad ID.
func (c *Client) Finalize(req *Request, response *big.Int) ([]byte, error) {
	n := c.pub.N
	if response.Sign() <= 0 || response.Cmp(n) >= 0 {
		return nil, ErrBadElement
	}
	y := new(big.Int).Mul(response, req.rInv)
	y.Mod(y, n)
	// Verify: y^e must equal H(x) mod N.
	check := new(big.Int).Exp(y, big.NewInt(int64(c.pub.E)), n)
	if check.Cmp(req.hx) != 0 {
		return nil, ErrVerifyFailed
	}
	return finalize(y, n), nil
}

// hashToZN maps an arbitrary byte string into [0, N) by expanding SHA-256
// with a counter until the byte length covers N, then reducing mod N.
// The 2^-|excess| bias from the reduction is negligible because we expand
// 128 bits beyond |N|.
func hashToZN(x []byte, n *big.Int) *big.Int {
	byteLen := (n.BitLen() + 7) / 8
	need := byteLen + 16
	buf := make([]byte, 0, need+sha256.Size)
	var ctr [4]byte
	for i := 0; len(buf) < need; i++ {
		binary.BigEndian.PutUint32(ctr[:], uint32(i))
		h := sha256.New()
		h.Write([]byte("eyewnder-oprf-H"))
		h.Write(ctr[:])
		h.Write(x)
		buf = h.Sum(buf)
	}
	v := new(big.Int).SetBytes(buf[:need])
	v.Mod(v, n)
	if v.Sign() == 0 {
		v.SetInt64(1)
	}
	return v
}

// finalize implements G: hash the canonical encoding of the group element
// into OutputSize bytes.
func finalize(y *big.Int, n *big.Int) []byte {
	buf := make([]byte, (n.BitLen()+7)/8)
	y.FillBytes(buf)
	h := sha256.New()
	h.Write([]byte("eyewnder-oprf-G"))
	h.Write(buf)
	return h.Sum(nil)
}
