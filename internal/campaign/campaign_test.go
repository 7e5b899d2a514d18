package campaign

import (
	"bytes"
	"errors"
	"testing"

	"eyewnder/internal/blind"
	"eyewnder/internal/privacy"
)

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		c    Campaign
		ok   bool
	}{
		{"minimal", Campaign{ID: 1, Name: "cars"}, true},
		{"full", Campaign{ID: 7, Name: "travel", Epsilon: 0.01, Delta: 0.02, IDSpace: 4096,
			Keystream: blind.KeystreamAESCTR, KeystreamSet: true, RetainRounds: 3, CadenceSec: 60}, true},
		{"id zero", Campaign{ID: 0, Name: "cars"}, false},
		{"empty name", Campaign{ID: 1}, false},
		{"long name", Campaign{ID: 1, Name: string(make([]byte, MaxName+1))}, false},
		{"epsilon too big", Campaign{ID: 1, Name: "x", Epsilon: 1}, false},
		{"negative delta", Campaign{ID: 1, Name: "x", Delta: -0.1}, false},
		{"bad keystream", Campaign{ID: 1, Name: "x", Keystream: 0x7f, KeystreamSet: true}, false},
		{"negative retain", Campaign{ID: 1, Name: "x", RetainRounds: -1}, false},
		{"id space at the limit", Campaign{ID: 1, Name: "x", IDSpace: privacy.MaxIDSpace}, true},
		{"id space over the limit", Campaign{ID: 1, Name: "x", IDSpace: privacy.MaxIDSpace + 1}, false},
		{"id space huge", Campaign{ID: 1, Name: "x", IDSpace: 1 << 62}, false},
	}
	for _, tc := range cases {
		err := tc.c.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
		if err != nil && !errors.Is(err, ErrBadCampaign) {
			t.Errorf("%s: Validate() = %v, want ErrBadCampaign", tc.name, err)
		}
	}
}

// The shared decoder — wire directory frame, WAL record, snapshot
// section — refuses an encoded definition whose ID space is over the
// limit, so no entry point can hand one to a round.
func TestDecodeBinaryRefusesOversizedIDSpace(t *testing.T) {
	enc := Campaign{ID: 3, Name: "big", IDSpace: 1 << 40}.AppendBinary(nil)
	if _, _, err := DecodeBinary(enc); !errors.Is(err, ErrBadCampaign) {
		t.Fatalf("DecodeBinary(id space 2^40) = %v, want ErrBadCampaign", err)
	}
}

func TestParamsInheritance(t *testing.T) {
	base := privacy.Params{Epsilon: 0.001, Delta: 0.002, IDSpace: 100000, Keystream: blind.KeystreamAESCTR}
	c := Campaign{ID: 1, Name: "cars", Epsilon: 0.05, IDSpace: 512}
	p := c.Params(base)
	if p.Epsilon != 0.05 || p.Delta != 0.002 || p.IDSpace != 512 {
		t.Fatalf("resolved params %+v", p)
	}
	if p.Keystream != blind.KeystreamAESCTR {
		t.Fatalf("keystream should inherit base, got %v", p.Keystream)
	}
	c2 := Campaign{ID: 2, Name: "travel", Keystream: blind.KeystreamHMACSHA256, KeystreamSet: true}
	if got := c2.Params(base).Keystream; got != blind.KeystreamHMACSHA256 {
		t.Fatalf("explicit keystream not applied: %v", got)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	cases := []Campaign{
		{ID: 1, Name: "cars"},
		{ID: 42, Name: "travel", Epsilon: 0.01, Delta: 0.001, IDSpace: 1 << 20,
			Keystream: blind.KeystreamAESCTR, KeystreamSet: true, RetainRounds: 5, CadenceSec: 3600},
		{ID: 0xFFFFFFFF, Name: "x"},
	}
	for _, c := range cases {
		enc := c.AppendBinary(nil)
		if len(enc) != c.EncodedSize() {
			t.Fatalf("EncodedSize %d != len %d", c.EncodedSize(), len(enc))
		}
		got, n, err := DecodeBinary(enc)
		if err != nil {
			t.Fatalf("decode %+v: %v", c, err)
		}
		if n != len(enc) {
			t.Fatalf("consumed %d of %d", n, len(enc))
		}
		if got != c {
			t.Fatalf("round trip: got %+v want %+v", got, c)
		}
		// Re-encode: byte-identical (the canonical-encoding property the
		// store and wire layers rely on).
		if !bytes.Equal(got.AppendBinary(nil), enc) {
			t.Fatalf("re-encode differs for %+v", c)
		}
	}
}

func TestDecodeBinaryRejects(t *testing.T) {
	c := Campaign{ID: 1, Name: "cars"}
	enc := c.AppendBinary(nil)
	if _, _, err := DecodeBinary(enc[:len(enc)-1]); err == nil {
		t.Fatal("truncated name accepted")
	}
	if _, _, err := DecodeBinary(enc[:10]); err == nil {
		t.Fatal("short fixed prefix accepted")
	}
	bad := append([]byte(nil), enc...)
	bad[29] |= 0x80 // unknown flag bit
	if _, _, err := DecodeBinary(bad); err == nil {
		t.Fatal("unknown flags accepted")
	}
	zero := Campaign{Name: "x"}.AppendBinary(nil)
	if _, _, err := DecodeBinary(zero); err == nil {
		t.Fatal("campaign 0 decoded")
	}
}

func TestDirectory(t *testing.T) {
	var d Directory
	if err := d.Add(Campaign{ID: 2, Name: "travel"}); err != nil {
		t.Fatal(err)
	}
	if err := d.Add(Campaign{ID: 1, Name: "cars"}); err != nil {
		t.Fatal(err)
	}
	if err := d.Add(Campaign{ID: 2, Name: "dup"}); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate add: %v", err)
	}
	if err := d.Add(Campaign{ID: 0, Name: "zero"}); !errors.Is(err, ErrBadCampaign) {
		t.Fatalf("campaign 0 add: %v", err)
	}
	list := d.List()
	if len(list) != 2 || list[0].ID != 1 || list[1].ID != 2 {
		t.Fatalf("list order: %+v", list)
	}
	if c, ok := d.Get(1); !ok || c.Name != "cars" {
		t.Fatalf("get: %+v %v", c, ok)
	}
	if _, ok := d.Get(9); ok {
		t.Fatal("unknown id found")
	}
	if d.Len() != 2 {
		t.Fatalf("len %d", d.Len())
	}
}

func TestParseSpec(t *testing.T) {
	got, err := ParseSpec("id=1,name=cars,eps=0.01,delta=0.02;id=2,name=travel,ids=4096,ks=aes-ctr,retain=3,cadence=60")
	if err != nil {
		t.Fatal(err)
	}
	want := []Campaign{
		{ID: 1, Name: "cars", Epsilon: 0.01, Delta: 0.02},
		{ID: 2, Name: "travel", IDSpace: 4096, Keystream: blind.KeystreamAESCTR, KeystreamSet: true,
			RetainRounds: 3, CadenceSec: 60},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d campaigns", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d: got %+v want %+v", i, got[i], want[i])
		}
	}
	for _, bad := range []string{
		"id=0,name=x", // reserved id
		"name=x",      // missing id
		"id=1",        // missing name
		"id=1,name=x,ks=rot13",
		"id=1,name=x,eps=nope",
		"id=1,name=a;id=1,name=b", // duplicate id
		"id=1,name=x,bogus=1",
		"id=1,name=x,noequals",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
	if got, err := ParseSpec(" ; "); err != nil || len(got) != 0 {
		t.Fatalf("blank spec: %v %v", got, err)
	}
}
