package htmlscan

import (
	"testing"
	"testing/quick"
)

// scanAll scans the whole document and returns every token.
func scanAll(src string) []*Token {
	sc := NewScanner(src)
	var out []*Token
	for tok := sc.Next(); tok != nil; tok = sc.Next() {
		out = append(out, tok)
	}
	return out
}

func TestBasicDocument(t *testing.T) {
	src := `<html><body><p class="x">Hello</p><br/></body></html>`
	toks := scanAll(src)
	if len(toks) == 0 {
		t.Fatal("no tokens")
	}
	var names []string
	for _, tok := range toks {
		if tok.Type == StartTag {
			names = append(names, tok.Name)
		}
	}
	want := []string{"html", "body", "p", "br"}
	if len(names) != len(want) {
		t.Fatalf("start tags %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("start tags %v, want %v", names, want)
		}
	}
}

func TestAttributes(t *testing.T) {
	src := `<a href="https://x.example/p?a=1&b=2" target=_blank data-ad>link</a>`
	toks := scanAll(src)
	a := toks[0]
	if a.Type != StartTag || a.Name != "a" {
		t.Fatalf("first token %+v", a)
	}
	if v, ok := a.Attr("href"); !ok || v != "https://x.example/p?a=1&b=2" {
		t.Fatalf("href = %q, %v", v, ok)
	}
	if v, ok := a.Attr("target"); !ok || v != "_blank" {
		t.Fatalf("target = %q, %v", v, ok)
	}
	if _, ok := a.Attr("data-ad"); !ok {
		t.Fatal("bare attribute missing")
	}
	if _, ok := a.Attr("nope"); ok {
		t.Fatal("phantom attribute")
	}
}

func TestSingleQuotedAndAngleInAttr(t *testing.T) {
	src := `<div onclick='go("https://t.example/x?a<b")'>x</div>`
	toks := scanAll(src)
	d := toks[0]
	if v, _ := d.Attr("onclick"); v != `go("https://t.example/x?a<b")` {
		t.Fatalf("onclick = %q", v)
	}
}

func TestScriptBodyIsRawText(t *testing.T) {
	src := `<script type="text/javascript">if (a < b) { window.open("https://lp.example/x"); }</script><p>after</p>`
	toks := scanAll(src)
	if toks[0].Type != StartTag || toks[0].Name != "script" {
		t.Fatalf("tok0 = %+v", toks[0])
	}
	if toks[1].Type != Text || !contains(toks[1].Data, "window.open") || !contains(toks[1].Data, "a < b") {
		t.Fatalf("script body = %+v", toks[1])
	}
	if toks[2].Type != EndTag || toks[2].Name != "script" {
		t.Fatalf("tok2 = %+v", toks[2])
	}
	if toks[3].Type != StartTag || toks[3].Name != "p" {
		t.Fatalf("tok3 = %+v", toks[3])
	}
}

func TestComments(t *testing.T) {
	src := `<!-- ad slot 3 --><p>x</p><!doctype html>`
	toks := scanAll(src)
	if toks[0].Type != Comment || toks[0].Data != " ad slot 3 " {
		t.Fatalf("comment = %+v", toks[0])
	}
	last := toks[len(toks)-1]
	if last.Type != Comment {
		t.Fatalf("doctype token = %+v", last)
	}
}

func TestUnterminatedStructures(t *testing.T) {
	// Truncated documents must not loop or panic.
	for _, src := range []string{
		"<a href=\"x",
		"<!-- never closed",
		"<script>var x = 1;",
		"<",
		"<>",
		"text only",
		"</closing>",
	} {
		toks := scanAll(src)
		_ = toks // reaching here without a hang is the assertion
	}
}

func TestSelfClosingScriptDoesNotSwallow(t *testing.T) {
	src := `<script src="https://ads.example/x.js"/><p>visible</p>`
	toks := scanAll(src)
	foundP := false
	for _, tok := range toks {
		if tok.Type == StartTag && tok.Name == "p" {
			foundP = true
		}
	}
	if !foundP {
		t.Fatal("self-closing script swallowed following markup")
	}
}

func TestCaseInsensitiveTags(t *testing.T) {
	toks := scanAll(`<IFRAME SRC="https://adx.example/f"></IFRAME>`)
	if toks[0].Name != "iframe" {
		t.Fatalf("name = %q", toks[0].Name)
	}
	if v, _ := toks[0].Attr("src"); v != "https://adx.example/f" {
		t.Fatalf("src = %q", v)
	}
	if toks[1].Type != EndTag || toks[1].Name != "iframe" {
		t.Fatalf("end tag = %+v", toks[1])
	}
}

func TestTextBetweenTags(t *testing.T) {
	toks := scanAll(`<b>bold</b> and plain`)
	if toks[1].Type != Text || toks[1].Data != "bold" {
		t.Fatalf("inner text = %+v", toks[1])
	}
	last := toks[len(toks)-1]
	if last.Type != Text || last.Data != " and plain" {
		t.Fatalf("tail text = %+v", last)
	}
}

// Property: the scanner terminates and never panics on arbitrary input.
func TestPropertyNeverPanics(t *testing.T) {
	f := func(src string) bool {
		if len(src) > 4096 {
			src = src[:4096]
		}
		scanAll(src)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
