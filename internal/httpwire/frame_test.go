package httpwire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

func TestFrameRoundTrip(t *testing.T) {
	cases := []Frame{
		{Type: 0, Flags: 0, Payload: nil},
		{Type: 1, Flags: 0xFF, Payload: []byte("x")},
		{Type: 7, Flags: 2, Payload: []byte("hello frame payload")},
		{Type: 255, Flags: 255, Payload: bytes.Repeat([]byte{0xAB}, 70000)}, // > one bufio buffer
	}
	for i, want := range cases {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, want); err != nil {
			t.Fatalf("case %d: write: %v", i, err)
		}
		got, err := ReadFrame(bufio.NewReader(&buf))
		if err != nil {
			t.Fatalf("case %d: read: %v", i, err)
		}
		if got.Type != want.Type || got.Flags != want.Flags || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("case %d: round trip mismatch: got %v want %v", i, got, want)
		}
	}
}

func TestFrameBackToBack(t *testing.T) {
	var buf bytes.Buffer
	frames := []Frame{
		{Type: 1, Payload: []byte("first")},
		{Type: 2, Flags: 1},
		{Type: 3, Payload: []byte("third")},
	}
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	br := bufio.NewReader(&buf)
	for i, want := range frames {
		got, err := ReadFrame(br)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != want.Type || got.Flags != want.Flags || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d mismatch: got %v want %v", i, got, want)
		}
	}
	if _, err := ReadFrame(br); err != io.EOF {
		t.Fatalf("after last frame: err = %v, want io.EOF", err)
	}
}

func TestFrameTruncated(t *testing.T) {
	full := AppendFrame(nil, Frame{Type: 9, Flags: 1, Payload: []byte("payload bytes")})
	for cut := 1; cut < len(full); cut++ {
		_, err := ReadFrame(bufio.NewReader(bytes.NewReader(full[:cut])))
		if !errors.Is(err, ErrFrameTruncated) {
			t.Fatalf("cut=%d: err = %v, want ErrFrameTruncated", cut, err)
		}
		if _, _, err := DecodeFrame(full[:cut]); !errors.Is(err, ErrFrameTruncated) {
			t.Fatalf("decode cut=%d: err = %v, want ErrFrameTruncated", cut, err)
		}
	}
}

func TestFrameOversized(t *testing.T) {
	hdr := make([]byte, FrameHeaderLen)
	binary.BigEndian.PutUint32(hdr[2:], uint32(MaxFramePayload)+1)
	if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(hdr))); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("read: err = %v, want ErrFrameTooLarge", err)
	}
	if _, _, err := DecodeFrame(hdr); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("decode: err = %v, want ErrFrameTooLarge", err)
	}
	if err := WriteFrame(io.Discard, Frame{Payload: make([]byte, MaxFramePayload+1)}); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("write: err = %v, want ErrFrameTooLarge", err)
	}
}

// TestChannelConnConcurrentWriters drives many goroutines through one
// ChannelConn; the reader on the far side must see every frame intact —
// the write mutex may not let frames interleave.
func TestChannelConnConcurrentWriters(t *testing.T) {
	client, server := net.Pipe()
	cc := NewChannelConn(client, nil)
	defer cc.Close()
	defer server.Close()

	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			payload := bytes.Repeat([]byte{byte('a' + w)}, 100+w)
			for i := 0; i < perWriter; i++ {
				if err := cc.WriteFrame(Frame{Type: byte(w), Payload: payload}); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}

	br := bufio.NewReader(server)
	for n := 0; n < writers*perWriter; n++ {
		f, err := ReadFrame(br)
		if err != nil {
			t.Fatalf("frame %d: %v", n, err)
		}
		want := bytes.Repeat([]byte{byte('a' + f.Type)}, 100+int(f.Type))
		if !bytes.Equal(f.Payload, want) {
			t.Fatalf("frame %d (type %d): interleaved payload", n, f.Type)
		}
	}
	wg.Wait()
}

// TestUpgradeHijack exercises the full handshake: a handler accepts the
// upgrade, the server hands the connection over, and both sides exchange
// frames in both directions on the one socket.
func TestUpgradeHijack(t *testing.T) {
	served := make(chan error, 1)
	addr, _ := startTestServer(t, HandlerFunc(func(req *Request) *Response {
		if req.Path() != "/channel" {
			return NewResponse(404, "text/plain", []byte("not found\n"))
		}
		resp := NewResponse(101, "", nil)
		resp.Hijack = func(conn net.Conn, br *bufio.Reader) {
			ch := NewChannelConn(conn, br)
			for {
				f, err := ch.ReadFrame()
				if err != nil {
					served <- err
					return
				}
				// Echo with type+1.
				if err := ch.WriteFrame(Frame{Type: f.Type + 1, Payload: f.Payload}); err != nil {
					served <- err
					return
				}
			}
		}
		return resp
	}))

	c := NewClient(tcpDialer)
	defer c.Close()
	ch, resp, err := c.Upgrade(addr, NewRequest("POST", "/channel"), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if ch == nil {
		t.Fatalf("upgrade refused: %d", resp.StatusCode)
	}
	defer ch.Close()
	for i := 0; i < 5; i++ {
		payload := []byte(fmt.Sprintf("frame %d", i))
		if err := ch.WriteFrame(Frame{Type: byte(i), Payload: payload}); err != nil {
			t.Fatal(err)
		}
		f, err := ch.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if f.Type != byte(i)+1 || !bytes.Equal(f.Payload, payload) {
			t.Fatalf("echo %d: got type=%d payload=%q", i, f.Type, f.Payload)
		}
	}
	ch.Close()
	if err := <-served; err == nil {
		t.Fatal("server read loop ended without error after client close")
	}
}

// TestUpgradeRefused verifies a non-101 answer comes back as a plain
// response with the connection torn down.
func TestUpgradeRefused(t *testing.T) {
	addr, _ := startTestServer(t, HandlerFunc(func(req *Request) *Response {
		resp := NewResponse(503, "text/plain", []byte("shed\n"))
		resp.Header.Set("Rcb-Close-Reason", "OVERCOMMITTED")
		return resp
	}))
	c := NewClient(tcpDialer)
	defer c.Close()
	ch, resp, err := c.Upgrade(addr, NewRequest("POST", "/channel"), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if ch != nil {
		t.Fatal("got a channel from a refused upgrade")
	}
	if resp.StatusCode != 503 || resp.Header.Get("Rcb-Close-Reason") != "OVERCOMMITTED" {
		t.Fatalf("refusal = %d %v", resp.StatusCode, resp.Header)
	}
}

// TestServerCloseSeversChannel proves a hijacked connection is killed by
// Server.Close like any other tracked connection — the restart-mid-stream
// story the degradation ladder depends on.
func TestServerCloseSeversChannel(t *testing.T) {
	readErr := make(chan error, 1)
	addr, srv := startTestServer(t, HandlerFunc(func(req *Request) *Response {
		resp := NewResponse(101, "", nil)
		resp.Hijack = func(conn net.Conn, br *bufio.Reader) {
			ch := NewChannelConn(conn, br)
			_, err := ch.ReadFrame()
			readErr <- err
		}
		return resp
	}))
	c := NewClient(tcpDialer)
	defer c.Close()
	ch, _, err := c.Upgrade(addr, NewRequest("POST", "/channel"), 2*time.Second)
	if err != nil || ch == nil {
		t.Fatalf("upgrade: ch=%v err=%v", ch, err)
	}
	defer ch.Close()
	srv.Close() // must unblock the hijacked read loop
	select {
	case err := <-readErr:
		if err == nil {
			t.Fatal("hijacked read returned nil after server close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server Close did not sever the hijacked channel")
	}
	if _, err := ch.ReadFrame(); err == nil {
		t.Fatal("client read succeeded after server close")
	}
}

// FuzzChannelFrame fuzzes the frame codec: no panics on arbitrary input,
// truncated/oversized input fails hard, and any successful decode
// re-encodes to exactly the consumed bytes (decode→encode fixed point).
func FuzzChannelFrame(f *testing.F) {
	f.Add(AppendFrame(nil, Frame{}))
	f.Add(AppendFrame(nil, Frame{Type: 1, Flags: 2, Payload: []byte("seed payload")}))
	f.Add(AppendFrame(nil, Frame{Type: 0xFF, Flags: 0xFF, Payload: bytes.Repeat([]byte{0}, 300)}))
	f.Add([]byte{1, 2, 3})                                              // truncated header
	f.Add([]byte{0, 0, 0xFF, 0xFF, 0xFF, 0xFF})                         // oversized length
	f.Add(AppendFrame(nil, Frame{Payload: []byte{0}})[:FrameHeaderLen]) // truncated payload
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := DecodeFrame(data)
		if err != nil {
			if !errors.Is(err, ErrFrameTruncated) && !errors.Is(err, ErrFrameTooLarge) {
				t.Fatalf("decode error %v is neither truncated nor oversized", err)
			}
			return
		}
		if n < FrameHeaderLen || n > len(data) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(data))
		}
		if got := AppendFrame(nil, fr); !bytes.Equal(got, data[:n]) {
			t.Fatalf("decode→encode not a fixed point:\n in: %x\nout: %x", data[:n], got)
		}
		// The stream reader must agree with the slice decoder.
		sr, err := ReadFrame(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			t.Fatalf("ReadFrame failed where DecodeFrame succeeded: %v", err)
		}
		if sr.Type != fr.Type || sr.Flags != fr.Flags || !bytes.Equal(sr.Payload, fr.Payload) {
			t.Fatalf("ReadFrame %v != DecodeFrame %v", sr, fr)
		}
	})
}
