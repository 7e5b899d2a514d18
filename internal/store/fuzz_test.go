package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// FuzzReadWALRecord hammers the WAL record decoder with arbitrary
// bytes: it must never panic, never allocate beyond the declared record
// cap, and classify every input as either a clean stream of records, a
// clean EOF, or a corrupt record — the exact trichotomy crash recovery
// relies on to stop at the last valid record of a torn segment. The
// copying path (a plain reader) and the in-place path (a buffered reader
// at 16 B, where nearly every record is too large for the buffer, and at
// 4 KiB) must agree record for record: same kinds, same bodies, same
// terminal error class. Each accepted record's body must also survive
// its kind-specific parse without panicking, and report bodies must
// re-encode byte-identically (the codec is its own reference).
func FuzzReadWALRecord(f *testing.F) {
	// Seed with one well-formed stream of every record kind plus the
	// classic torn shapes: empty input, a bare length, a length with no
	// body, a checksum off by one bit, and a stream cut mid-record.
	var seed bytes.Buffer
	var enc RecordEncoder
	enc.register(&seed, 2, []byte("pk"))
	enc.open(&seed, 0, 4, 8, 2, 4, 7, 1, 3, 2)
	enc.Report(&seed, 0, 4, 2, 2, 4, 3, 7, 1, 3, make([]uint64, 8))
	enc.adjust(&seed, 0, 4, 2, []uint64{1, 2, 3})
	enc.config(&seed, 3, 2)
	enc.close(&seed, 0, 4)
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte{5})
	f.Add([]byte{5, 0, 0, 0, recClose})
	torn := append([]byte(nil), seed.Bytes()...)
	torn[len(torn)-1] ^= 1
	f.Add(torn)
	f.Add(seed.Bytes()[:len(seed.Bytes())-40])

	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantEnd := readWALStream(t, bytes.NewReader(data))
		for _, size := range []int{16, 4 << 10} {
			got, end := readWALStream(t, bufio.NewReaderSize(bytes.NewReader(data), size))
			if end != wantEnd || len(got) != len(want) {
				t.Fatalf("%d-byte buffered reader: %d records ending %v, plain reader %d ending %v",
					size, len(got), end, len(want), wantEnd)
			}
			for i := range want {
				if got[i].kind != want[i].kind || !bytes.Equal(got[i].body, want[i].body) {
					t.Fatalf("%d-byte buffered reader: record %d differs from the plain reader's", size, i)
				}
			}
		}
		for _, rec := range want {
			checkRecordBody(t, rec.kind, rec.body)
		}
	})
}

// walRecordCopy is one record read by readWALStream, body copied out.
type walRecordCopy struct {
	kind byte
	body []byte
}

// readWALStream reads records until the decoder stops, returning them
// and the terminal error class: io.EOF (clean end) or ErrCorruptRecord
// (stop point). Any other class fails the test.
func readWALStream(t *testing.T, r io.Reader) ([]walRecordCopy, error) {
	var out []walRecordCopy
	var buf []byte
	for {
		kind, body, nbuf, err := ReadWALRecord(r, buf)
		buf = nbuf
		if err == io.EOF {
			return out, io.EOF
		}
		if errors.Is(err, ErrCorruptRecord) {
			return out, ErrCorruptRecord
		}
		if err != nil {
			t.Fatalf("unexpected error class: %v", err)
		}
		out = append(out, walRecordCopy{kind, append([]byte(nil), body...)})
	}
}

// checkRecordBody runs an accepted record's kind-specific parse; a
// report that parses must re-encode byte-identically.
func checkRecordBody(t *testing.T, kind byte, body []byte) {
	switch kind {
	case recRegister:
		decodeRegisterBody(body)
	case recOpen:
		decodeOpenBody(body)
	case recReport:
		rec, err := decodeReportBody(body)
		if err != nil {
			return
		}
		// Re-encode through the production encoder and compare:
		// decode(encode(decode(x))) must equal decode(x).
		cells := make([]uint64, rec.D*rec.W)
		for i := range cells {
			cells[i] = binary.LittleEndian.Uint64(rec.Cells[8*i:])
		}
		var out bytes.Buffer
		var enc RecordEncoder
		if err := enc.Report(&out, 0, rec.Round, int(rec.User), int(rec.D), int(rec.W),
			rec.N, rec.Seed, rec.Keystream, rec.ConfigVersion, cells); err != nil {
			t.Fatalf("re-encode of accepted report failed: %v", err)
		}
		kind2, body2, _, err := ReadWALRecord(bytes.NewReader(out.Bytes()), nil)
		if err != nil || kind2 != recReport || !bytes.Equal(body2, body) {
			t.Fatalf("report round-trip mismatch: %v", err)
		}
	case recAdjust:
		decodeAdjustBody(body)
	case recConfig:
		decodeConfigBody(body)
	}
}
