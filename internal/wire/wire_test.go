package wire

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	type payload struct {
		A int    `json:"a"`
		B string `json:"b"`
	}
	if err := writeMsg(&buf, new([]byte), "test.msg", payload{A: 7, B: "x"}); err != nil {
		t.Fatal(err)
	}
	m, err := ReadMsg(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != "test.msg" {
		t.Fatalf("type = %q", m.Type)
	}
	var p payload
	if err := m.Decode(&p); err != nil {
		t.Fatal(err)
	}
	if p.A != 7 || p.B != "x" {
		t.Fatalf("payload = %+v", p)
	}
}

func TestNilPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := writeMsg(&buf, new([]byte), "ping", nil); err != nil {
		t.Fatal(err)
	}
	m, err := ReadMsg(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != "ping" {
		t.Fatalf("type = %q", m.Type)
	}
	var v struct{}
	if err := m.Decode(&v); err == nil {
		t.Fatal("decoding empty payload should error")
	}
}

func TestReadRejectsOversizedFrame(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := ReadMsg(&buf); err != ErrFrameTooLarge {
		t.Fatalf("err = %v", err)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 3})
	buf.WriteString("xyz")
	if _, err := ReadMsg(&buf); err == nil {
		t.Fatal("garbage frame accepted")
	}
}

func TestReadTruncated(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 100})
	buf.WriteString("short")
	if _, err := ReadMsg(&buf); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

func echoHandler(m *Msg) (string, interface{}, error) {
	switch m.Type {
	case "echo":
		var v map[string]interface{}
		if err := m.Decode(&v); err != nil {
			return "", nil, err
		}
		return "echo_ok", v, nil
	case "boom":
		return "", nil, errors.New("kaboom")
	}
	return "", nil, fmt.Errorf("unknown type %q", m.Type)
}

func TestServerClientExchange(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	var resp map[string]interface{}
	if err := cli.Do("echo", map[string]interface{}{"k": "v"}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp["k"] != "v" {
		t.Fatalf("resp = %v", resp)
	}
}

func TestServerErrorPropagates(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	err = cli.Do("boom", map[string]string{}, nil)
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v", err)
	}
	// The connection survives a handler error.
	var resp map[string]interface{}
	if err := cli.Do("echo", map[string]interface{}{"again": "yes"}, &resp); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentClients(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const n = 8
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cli, err := Dial(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer cli.Close()
			for j := 0; j < 20; j++ {
				var resp map[string]interface{}
				key := fmt.Sprintf("c%d-%d", i, j)
				if err := cli.Do("echo", map[string]interface{}{"k": key}, &resp); err != nil {
					errs <- err
					return
				}
				if resp["k"] != key {
					errs <- fmt.Errorf("mismatched response %v", resp)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestClientAfterClose(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cli.Do("echo", map[string]string{}, nil); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if err := cli.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cli.Do("echo", map[string]string{"a": "b"}, nil); err == nil {
		t.Fatal("Do succeeded after server close")
	}
}

func TestLargeFrame(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	// ~1 MB payload — bigger than a paper-sized blinded CMS.
	big := strings.Repeat("x", 1<<20)
	var resp map[string]interface{}
	if err := cli.Do("echo", map[string]interface{}{"blob": big}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp["blob"] != big {
		t.Fatal("large payload corrupted")
	}
}
