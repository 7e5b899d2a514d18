package taxonomy

import (
	"fmt"
	"testing"
)

func TestNamesCoverAllTopics(t *testing.T) {
	if len(names) != Count {
		t.Fatalf("names has %d entries, taxonomy has %d topics", len(names), Count)
	}
	seen := map[string]bool{}
	for _, topic := range All() {
		s := topic.String()
		if s == "" {
			t.Fatalf("topic %d has empty name", topic)
		}
		if seen[s] {
			t.Fatalf("duplicate topic name %q", s)
		}
		seen[s] = true
	}
}

func TestByNameRoundTrip(t *testing.T) {
	for _, topic := range All() {
		got, ok := ByName(topic.String())
		if !ok || got != topic {
			t.Fatalf("ByName(%q) = %v, %v", topic.String(), got, ok)
		}
	}
	if _, ok := ByName("no-such-topic"); ok {
		t.Fatal("ByName accepted garbage")
	}
}

func TestStringOutOfRange(t *testing.T) {
	for _, topic := range []Topic{-1, Topic(Count), 999} {
		if got, want := topic.String(), fmt.Sprintf("Topic(%d)", int(topic)); got != want {
			t.Fatalf("String() = %q, want %q", got, want)
		}
	}
}

func TestOverlapReflexiveSymmetric(t *testing.T) {
	for _, a := range All() {
		if !Overlap(a, a) {
			t.Fatalf("Overlap(%v,%v) = false", a, a)
		}
		for _, b := range All() {
			if Overlap(a, b) != Overlap(b, a) {
				t.Fatalf("Overlap asymmetric for %v,%v", a, b)
			}
		}
	}
}

func TestPaperIndirectExamplesDoNotOverlap(t *testing.T) {
	// Section 7.3.3's indirect-OBA examples must register as
	// non-overlapping, otherwise the CB baseline would catch them and
	// they would not be "indirect".
	cases := [][2]Topic{
		{Computers, Dating},      // example (1): techies → dating site
		{Computers, FastFood},    // example (2): programmers → KFC
		{Beauty, Seafood},        // example (3): beauty/fitness → seafood
		{Government, RealEstate}, // example (4) — gov't sites → housing
	}
	for _, c := range cases {
		if Overlap(c[0], c[1]) {
			t.Errorf("Overlap(%v, %v) = true, paper treats as indirect", c[0], c[1])
		}
	}
}

func TestDirectExamplesOverlap(t *testing.T) {
	cases := [][2]Topic{
		{Computers, Electronics},
		{Fitness, Health},
		{Food, Seafood},
		{Sports, Fitness},
	}
	for _, c := range cases {
		if !Overlap(c[0], c[1]) {
			t.Errorf("Overlap(%v, %v) = false, want true", c[0], c[1])
		}
	}
}

func TestOverlapAny(t *testing.T) {
	if !OverlapAny([]Topic{Cars, Beauty}, Fashion) {
		t.Fatal("OverlapAny missed beauty~fashion")
	}
	if OverlapAny([]Topic{Computers}, Seafood) {
		t.Fatal("OverlapAny false positive")
	}
	if OverlapAny(nil, Seafood) {
		t.Fatal("OverlapAny on empty set")
	}
}

func TestNonOverlapping(t *testing.T) {
	for _, a := range All() {
		b := NonOverlapping(a)
		if Overlap(a, b) {
			t.Fatalf("NonOverlapping(%v) = %v overlaps", a, b)
		}
	}
}
