package group

import (
	"bytes"
	"crypto/rand"
	"sync"
	"testing"
)

func suites() []Suite { return []Suite{P256()} }

func TestSharedSecretSymmetry(t *testing.T) {
	for _, s := range suites() {
		t.Run(s.Name(), func(t *testing.T) {
			a, err := s.GenerateKey(rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			b, err := s.GenerateKey(rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			ab, err := a.SharedSecret(b.PublicKey())
			if err != nil {
				t.Fatal(err)
			}
			ba, err := b.SharedSecret(a.PublicKey())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ab, ba) {
				t.Fatal("shared secrets differ")
			}
			if len(ab) != 32 {
				t.Fatalf("secret length %d, want 32", len(ab))
			}
		})
	}
}

func TestDistinctPairsDistinctSecrets(t *testing.T) {
	for _, s := range suites() {
		t.Run(s.Name(), func(t *testing.T) {
			a, _ := s.GenerateKey(rand.Reader)
			b, _ := s.GenerateKey(rand.Reader)
			c, _ := s.GenerateKey(rand.Reader)
			ab, _ := a.SharedSecret(b.PublicKey())
			ac, _ := a.SharedSecret(c.PublicKey())
			if bytes.Equal(ab, ac) {
				t.Fatal("secrets for distinct peers collide")
			}
		})
	}
}

func TestPublicKeySize(t *testing.T) {
	for _, s := range suites() {
		t.Run(s.Name(), func(t *testing.T) {
			k, _ := s.GenerateKey(rand.Reader)
			if got := len(k.PublicKey()); got != s.PublicKeySize() {
				t.Fatalf("public key size %d, want %d", got, s.PublicKeySize())
			}
		})
	}
}

func TestRejectsBadPublicKey(t *testing.T) {
	for _, s := range suites() {
		t.Run(s.Name(), func(t *testing.T) {
			k, _ := s.GenerateKey(rand.Reader)
			if _, err := k.SharedSecret([]byte{1, 2, 3}); err == nil {
				t.Fatal("short key accepted")
			}
		})
	}
}

// SharedSecret is documented as safe for concurrent use; the blinding
// derives a party's pair keys from many goroutines at once. Under -race
// this also catches a suite that writes to its key while deriving.
func TestSharedSecretConcurrent(t *testing.T) {
	const peers, workers = 32, 8
	for _, s := range suites() {
		t.Run(s.Name(), func(t *testing.T) {
			own, err := s.GenerateKey(rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			pubs := make([][]byte, peers)
			want := make([][]byte, peers)
			for j := range pubs {
				k, err := s.GenerateKey(rand.Reader)
				if err != nil {
					t.Fatal(err)
				}
				pubs[j] = k.PublicKey()
				if want[j], err = own.SharedSecret(pubs[j]); err != nil {
					t.Fatal(err)
				}
			}
			got := make([][]byte, peers)
			errs := make([]error, peers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for j := w; j < peers; j += workers {
						got[j], errs[j] = own.SharedSecret(pubs[j])
					}
				}(w)
			}
			wg.Wait()
			for j := range got {
				if errs[j] != nil {
					t.Fatalf("peer %d: %v", j, errs[j])
				}
				if !bytes.Equal(got[j], want[j]) {
					t.Fatalf("peer %d: concurrent secret differs from the serial one", j)
				}
			}
		})
	}
}

func BenchmarkSharedSecretP256(b *testing.B) {
	s := P256()
	a, _ := s.GenerateKey(rand.Reader)
	peer, _ := s.GenerateKey(rand.Reader)
	pub := peer.PublicKey()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.SharedSecret(pub); err != nil {
			b.Fatal(err)
		}
	}
}
