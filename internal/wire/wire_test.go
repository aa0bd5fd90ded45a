package wire

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	msgs := []Message{
		{Header: Header{Op: OpPut, Key: "obj", Index: 4}},
		{Header: Header{Op: OpOK}, Body: []byte("chunk-bytes")},
		{Header: Header{Op: OpHint, Key: "k", Indices: []int{4, 3, 9}}},
		{Header: Header{Op: OpError, Error: "boom"}},
		{Header: Header{Op: OpDigest, Region: "dublin", Seq: 7, Groups: map[string][]int{"k": {0, 5}}}},
		{Header: Header{Op: OpDigestAck, Seq: 7}},
	}
	for _, m := range msgs {
		buf, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(buf[4:])
		if err != nil {
			t.Fatal(err)
		}
		if got.Header.Op != m.Header.Op || got.Header.Key != m.Header.Key ||
			got.Header.Index != m.Header.Index || got.Header.Error != m.Header.Error {
			t.Fatalf("header mismatch: %+v vs %+v", got.Header, m.Header)
		}
		if !bytes.Equal(got.Body, m.Body) {
			t.Fatalf("body mismatch")
		}
		if len(m.Header.Indices) > 0 && len(got.Header.Indices) != len(m.Header.Indices) {
			t.Fatal("indices lost")
		}
		if got.Header.Region != m.Header.Region || got.Header.Seq != m.Header.Seq {
			t.Fatalf("coop fields mismatch: %+v vs %+v", got.Header, m.Header)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode([]byte{1}); err == nil {
		t.Fatal("accepted short frame")
	}
	if _, err := Decode([]byte{0xFF, 0xFF, 1, 2, 3}); err == nil {
		t.Fatal("accepted header overrun")
	}
	if _, err := Decode([]byte{0, 2, '{', 'x'}); err == nil {
		t.Fatal("accepted bad JSON header")
	}
}

func TestReadWriteStream(t *testing.T) {
	var buf bytes.Buffer
	want := Message{Header: Header{Op: OpPut, Key: "k", Index: 2}, Body: []byte("data")}
	if err := Write(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Header.Key != "k" || !bytes.Equal(got.Body, []byte("data")) {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestReadRejectsHugeFrame(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := Read(&buf); err != ErrFrameTooLarge {
		t.Fatalf("err = %v", err)
	}
}

func TestCallOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		req, err := Read(conn)
		if err != nil {
			return
		}
		Write(conn, Message{Header: Header{Op: OpOK, Key: req.Header.Key}, Body: []byte("pong")})
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	resp, err := Call(conn, Message{Header: Header{Op: OpPut, Key: "ping"}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Key != "ping" || string(resp.Body) != "pong" {
		t.Fatalf("resp = %+v", resp)
	}
	<-done
}

func TestCallSurfacesRemoteError(t *testing.T) {
	ln, _ := net.Listen("tcp", "127.0.0.1:0")
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := Read(conn); err != nil {
			return
		}
		Write(conn, ErrorMessage(ErrBadFrame))
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := Call(conn, Message{Header: Header{Op: OpPut}}); err == nil {
		t.Fatal("remote error not surfaced")
	}
}

func TestUDPDatagramRoundTrip(t *testing.T) {
	server, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	clientConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer clientConn.Close()

	done := make(chan error, 1)
	go func() {
		buf := make([]byte, 64<<10)
		req, addr, err := ReadDatagram(server, buf)
		if err != nil {
			done <- err
			return
		}
		done <- WriteDatagram(server, addr, Message{
			Header: Header{Op: OpOK, Key: req.Header.Key, Indices: []int{1, 2, 3}},
		})
	}()

	err = WriteDatagram(clientConn, server.LocalAddr(), Message{Header: Header{Op: OpHint, Key: "obj"}})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64<<10)
	resp, _, err := ReadDatagram(clientConn, buf)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Key != "obj" || len(resp.Header.Indices) != 3 {
		t.Fatalf("resp = %+v", resp)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestEncodeDecodeQuick(t *testing.T) {
	f := func(key string, index uint8, body []byte) bool {
		m := Message{Header: Header{Op: OpPut, Key: key, Index: int(index)}, Body: body}
		buf, err := Encode(m)
		if err != nil {
			return false
		}
		got, err := Decode(buf[4:])
		if err != nil {
			return false
		}
		return got.Header.Key == key && got.Header.Index == int(index) && bytes.Equal(got.Body, body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestDecodeHeaderLengthValidation table-drives Decode over frames whose
// declared header length disagrees with the frame's actual size.
func TestDecodeHeaderLengthValidation(t *testing.T) {
	valid, err := Encode(Message{Header: Header{Op: OpPut, Key: "k"}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		frame   []byte
		wantErr error
	}{
		{"empty frame", nil, ErrBadFrame},
		{"one-byte frame", []byte{0}, ErrBadFrame},
		{"header length one past frame end", []byte{0, 3, '{', '}'}, ErrBadFrame},
		{"header length far past frame end", []byte{0xFF, 0xFF, '{', '}'}, ErrBadFrame},
		{"header fills frame exactly", []byte{0, 2, '{', '}'}, nil},
		{"valid encoded frame", valid[4:], nil},
	}
	for _, c := range cases {
		_, err := Decode(c.frame)
		if c.wantErr == nil {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if !errors.Is(err, c.wantErr) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.wantErr)
		}
	}
}

// TestReadTruncatedFrames table-drives Read over streams that end mid-frame:
// every truncation must surface ErrTruncated, not a hang or a generic error,
// while a clean end-of-stream stays io.EOF.
func TestReadTruncatedFrames(t *testing.T) {
	whole, err := Encode(Message{Header: Header{Op: OpPut, Key: "obj", Index: 1}, Body: []byte("chunk")})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		stream  []byte
		wantErr error
	}{
		{"clean EOF before any frame", nil, io.EOF},
		{"cut inside length prefix", whole[:2], ErrTruncated},
		{"cut after length prefix", whole[:4], ErrTruncated},
		{"cut inside header", whole[:8], ErrTruncated},
		{"cut one byte short of the body", whole[:len(whole)-1], ErrTruncated},
		{"whole frame", whole, nil},
	}
	for _, c := range cases {
		_, err := Read(bytes.NewReader(c.stream))
		if c.wantErr == nil {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if !errors.Is(err, c.wantErr) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.wantErr)
		}
	}
}

// TestReadTruncatedOverTCP exercises the torn-connection path end to end:
// the peer closes mid-frame and Read must return ErrTruncated promptly.
func TestReadTruncatedOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		frame, _ := Encode(Message{Header: Header{Op: OpOK}, Body: make([]byte, 1024)})
		conn.Write(frame[:len(frame)/2])
		conn.Close()
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := Read(conn); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
}
