// Package htmlscan is a minimal, dependency-free HTML tokenizer: enough
// of the language for the ad-detection heuristics of package addetect to
// walk a page's elements, attributes, and script bodies. It is not a
// validating parser — real browsers aren't either — and it tolerates the
// malformed markup ad networks routinely emit.
package htmlscan

import (
	"strings"
)

// TokenType discriminates scanner output.
type TokenType uint8

// Token types.
const (
	// StartTag is <name attr=...>, including self-closing tags.
	StartTag TokenType = iota
	// EndTag is </name>.
	EndTag
	// Text is character data between tags.
	Text
	// Comment is <!-- ... -->.
	Comment
)

// Token is one scanned unit.
type Token struct {
	Type TokenType
	// Name is the lower-cased tag name (StartTag/EndTag only).
	Name string
	// Attrs holds lower-cased attribute names mapped to their raw values
	// (StartTag only).
	Attrs map[string]string
	// Data is the text content (Text/Comment) or the raw tag body.
	Data string
	// SelfClosing marks <tag ... /> forms.
	SelfClosing bool
}

// Attr fetches an attribute by (lower-case) name; ok is false if absent.
func (t *Token) Attr(name string) (value string, ok bool) {
	if t.Attrs == nil {
		return "", false
	}
	v, ok := t.Attrs[name]
	return v, ok
}

// Scanner walks an HTML document token by token.
type Scanner struct {
	src string
	pos int
	// rawEnd, when non-empty, is the closing tag we are skipping to
	// verbatim (script/style bodies).
	rawTag string
}

// NewScanner returns a scanner over src.
func NewScanner(src string) *Scanner { return &Scanner{src: src} }

// Next returns the next token, or nil at end of input.
func (s *Scanner) Next() *Token {
	if s.pos >= len(s.src) {
		return nil
	}
	// Inside a raw-text element (<script>, <style>): everything until the
	// matching close tag is a single Text token.
	if s.rawTag != "" {
		end := s.findCloseTag(s.rawTag)
		data := s.src[s.pos:end]
		s.pos = end
		s.rawTag = ""
		if data != "" {
			return &Token{Type: Text, Data: data}
		}
		return s.Next()
	}
	if s.src[s.pos] != '<' {
		// Character data until the next tag.
		end := strings.IndexByte(s.src[s.pos:], '<')
		if end < 0 {
			end = len(s.src) - s.pos
		}
		data := s.src[s.pos : s.pos+end]
		s.pos += end
		return &Token{Type: Text, Data: data}
	}
	// Comment?
	if strings.HasPrefix(s.src[s.pos:], "<!--") {
		end := strings.Index(s.src[s.pos+4:], "-->")
		if end < 0 {
			data := s.src[s.pos+4:]
			s.pos = len(s.src)
			return &Token{Type: Comment, Data: data}
		}
		data := s.src[s.pos+4 : s.pos+4+end]
		s.pos += 4 + end + 3
		return &Token{Type: Comment, Data: data}
	}
	// Tag.
	end := s.findTagEnd(s.pos)
	if end <= s.pos {
		// Lone '<' at end of input.
		s.pos = len(s.src)
		return nil
	}
	raw := s.src[s.pos+1 : end] // without < >
	s.pos = end + 1
	raw = strings.TrimSpace(raw)
	if raw == "" {
		return s.Next()
	}
	if raw[0] == '/' {
		return &Token{Type: EndTag, Name: strings.ToLower(strings.TrimSpace(raw[1:])), Data: raw}
	}
	if raw[0] == '!' || raw[0] == '?' {
		// Doctype / processing instruction: surface as comment.
		return &Token{Type: Comment, Data: raw}
	}
	tok := parseStartTag(raw)
	if tok.Name == "script" || tok.Name == "style" {
		if !tok.SelfClosing {
			s.rawTag = tok.Name
		}
	}
	return tok
}

// findTagEnd locates the '>' terminating the tag that starts at `start`,
// honoring quoted attribute values that may contain '>'.
func (s *Scanner) findTagEnd(start int) int {
	inQuote := byte(0)
	for i := start + 1; i < len(s.src); i++ {
		c := s.src[i]
		switch {
		case inQuote != 0:
			if c == inQuote {
				inQuote = 0
			}
		case c == '"' || c == '\'':
			inQuote = c
		case c == '>':
			return i
		}
	}
	// Unterminated tag: consume the rest of the input as the tag body.
	return len(s.src)
}

// findCloseTag returns the index where </tag appears (case-insensitive),
// or end of input.
func (s *Scanner) findCloseTag(tag string) int {
	needle := "</" + tag
	lower := strings.ToLower(s.src[s.pos:])
	if i := strings.Index(lower, needle); i >= 0 {
		return s.pos + i
	}
	return len(s.src)
}

// parseStartTag splits "name attr=val attr2='val'" into a StartTag token.
func parseStartTag(raw string) *Token {
	selfClosing := strings.HasSuffix(raw, "/")
	if selfClosing {
		raw = strings.TrimSpace(raw[:len(raw)-1])
	}
	nameEnd := len(raw)
	for i, c := range raw {
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			nameEnd = i
			break
		}
	}
	tok := &Token{
		Type:        StartTag,
		Name:        strings.ToLower(raw[:nameEnd]),
		Data:        raw,
		SelfClosing: selfClosing,
	}
	rest := raw[nameEnd:]
	tok.Attrs = parseAttrs(rest)
	return tok
}

// parseAttrs parses an attribute list. Values may be double-quoted,
// single-quoted, or bare; bare attributes get "".
func parseAttrs(s string) map[string]string {
	attrs := make(map[string]string)
	i := 0
	n := len(s)
	for i < n {
		// Skip whitespace.
		for i < n && isSpace(s[i]) {
			i++
		}
		if i >= n {
			break
		}
		// Attribute name.
		start := i
		for i < n && !isSpace(s[i]) && s[i] != '=' {
			i++
		}
		name := strings.ToLower(s[start:i])
		if name == "" {
			i++
			continue
		}
		// Skip whitespace before '='.
		for i < n && isSpace(s[i]) {
			i++
		}
		if i >= n || s[i] != '=' {
			attrs[name] = ""
			continue
		}
		i++ // consume '='
		for i < n && isSpace(s[i]) {
			i++
		}
		if i >= n {
			attrs[name] = ""
			break
		}
		var val string
		if s[i] == '"' || s[i] == '\'' {
			quote := s[i]
			i++
			vstart := i
			for i < n && s[i] != quote {
				i++
			}
			val = s[vstart:i]
			if i < n {
				i++
			}
		} else {
			vstart := i
			for i < n && !isSpace(s[i]) {
				i++
			}
			val = s[vstart:i]
		}
		attrs[name] = val
	}
	return attrs
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }
