package oprf

import (
	"bytes"
	"crypto/rand"
	"crypto/rsa"
	"math/big"
	"sync"
	"testing"
)

// testServer caches one RSA key across tests — keygen dominates runtime.
var (
	serverOnce sync.Once
	testSrv    *Server
)

func server(t testing.TB) *Server {
	serverOnce.Do(func() {
		key, err := rsa.GenerateKey(rand.Reader, 1024)
		if err != nil {
			panic(err)
		}
		s, err := NewServerFromKey(key)
		if err != nil {
			panic(err)
		}
		testSrv = s
	})
	return testSrv
}

// direct computes F(k, x) = G(H(x)^d) without blinding. Only the key
// holder can do this; it is the reference the blinded protocol is
// checked against.
func direct(s *Server, x []byte) []byte {
	hx := hashToZN(x, s.key.N)
	y := new(big.Int).Exp(hx, s.key.D, s.key.N)
	return finalize(y, s.key.N)
}

func evaluate(t *testing.T, s *Server, c *Client, x []byte) []byte {
	t.Helper()
	req, err := c.Blind(x)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s.Evaluate(req.Blinded)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Finalize(req, resp)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestBlindEvaluateMatchesDirect(t *testing.T) {
	s := server(t)
	c := NewClient(s.PublicKey(), nil)
	for _, url := range []string{
		"https://ads.example.com/creative/1",
		"https://cdn.adnet.io/banner?id=42",
		"",
		"a",
	} {
		got := evaluate(t, s, c, []byte(url))
		want := direct(s, []byte(url))
		if !bytes.Equal(got, want) {
			t.Fatalf("blind evaluation of %q differs from direct", url)
		}
		if len(got) != OutputSize {
			t.Fatalf("output size %d", len(got))
		}
	}
}

func TestDeterministicPerInput(t *testing.T) {
	s := server(t)
	c := NewClient(s.PublicKey(), nil)
	a := evaluate(t, s, c, []byte("x"))
	b := evaluate(t, s, c, []byte("x"))
	if !bytes.Equal(a, b) {
		t.Fatal("same input produced different ad IDs")
	}
	d := evaluate(t, s, c, []byte("y"))
	if bytes.Equal(a, d) {
		t.Fatal("distinct inputs collided")
	}
}

func TestBlindedRequestsDiffer(t *testing.T) {
	// Fresh randomness per request: the same URL must produce different
	// wire values, otherwise the server could link repeated lookups.
	s := server(t)
	c := NewClient(s.PublicKey(), nil)
	r1, err := c.Blind([]byte("same-url"))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Blind([]byte("same-url"))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Blinded.Cmp(r2.Blinded) == 0 {
		t.Fatal("blinded requests are linkable")
	}
}

func TestFinalizeDetectsCorruptResponse(t *testing.T) {
	s := server(t)
	c := NewClient(s.PublicKey(), nil)
	req, err := c.Blind([]byte("url"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s.Evaluate(req.Blinded)
	if err != nil {
		t.Fatal(err)
	}
	bad := new(big.Int).Add(resp, big.NewInt(1))
	if _, err := c.Finalize(req, bad); err != ErrVerifyFailed {
		t.Fatalf("corrupt response err = %v, want ErrVerifyFailed", err)
	}
}

func TestEvaluateRejectsOutOfRange(t *testing.T) {
	s := server(t)
	if _, err := s.Evaluate(big.NewInt(0)); err != ErrBadElement {
		t.Fatalf("zero err = %v", err)
	}
	if _, err := s.Evaluate(new(big.Int).Set(s.PublicKey().N)); err != ErrBadElement {
		t.Fatalf("N err = %v", err)
	}
	c := NewClient(s.PublicKey(), nil)
	req, _ := c.Blind([]byte("x"))
	if _, err := c.Finalize(req, big.NewInt(0)); err != ErrBadElement {
		t.Fatalf("finalize zero err = %v", err)
	}
}

func TestNewServerRejectsSmallKey(t *testing.T) {
	if _, err := NewServer(512); err != ErrKeyTooSmall {
		t.Fatalf("err = %v", err)
	}
	key, _ := rsa.GenerateKey(rand.Reader, 512)
	if _, err := NewServerFromKey(key); err != ErrKeyTooSmall {
		t.Fatalf("err = %v", err)
	}
}

func BenchmarkOPRFRoundTrip(b *testing.B) {
	s := server(b)
	c := NewClient(s.PublicKey(), nil)
	x := []byte("https://ads.example.com/creative/123456")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req, err := c.Blind(x)
		if err != nil {
			b.Fatal(err)
		}
		resp, err := s.Evaluate(req.Blinded)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Finalize(req, resp); err != nil {
			b.Fatal(err)
		}
	}
}
