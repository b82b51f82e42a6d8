package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

// TestAppendFrameRejectsLongFrom pins the fix for a silent corruption: a
// sender name longer than 65535 bytes used to truncate into the uint16
// length field, producing a frame the receiver would misparse. It must be
// rejected outright, with dst unmodified, so a valid frame appended
// afterwards is the first thing on the wire.
func TestAppendFrameRejectsLongFrom(t *testing.T) {
	buf, err := AppendFrame(nil, strings.Repeat("x", maxFrom+1), []byte("payload"))
	if err == nil {
		t.Fatal("AppendFrame accepted a from name longer than 65535 bytes")
	}
	if len(buf) != 0 {
		t.Fatalf("rejected frame left %d bytes in dst", len(buf))
	}
	buf, err = AppendFrame(buf, "ok", []byte("payload"))
	if err != nil {
		t.Fatalf("valid frame after rejected frame: %v", err)
	}
	from, data, err := ReadFrame(bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("read valid frame: %v", err)
	}
	if from != "ok" || string(data) != "payload" {
		t.Fatalf("frame corrupted by rejected predecessor: from=%q data=%q", from, data)
	}
}

// TestAppendFrameRejectsOversizedPayload bounds the total frame length.
func TestAppendFrameRejectsOversizedPayload(t *testing.T) {
	data := make([]byte, maxFrame-1) // 2 + len(from) pushes it over
	buf, err := AppendFrame(nil, "name", data)
	if err == nil {
		t.Fatal("AppendFrame accepted a frame larger than maxFrame")
	}
	if len(buf) != 0 {
		t.Fatalf("rejected frame left %d bytes in dst", len(buf))
	}
}

// TestAppendFrameRoundTrip: frames appended back to back split correctly on
// the read side (the invariant the writev batch path relies on).
func TestAppendFrameRoundTrip(t *testing.T) {
	var wire []byte
	var err error
	payloads := []string{"a", "", "third frame with more bytes"}
	for _, p := range payloads {
		wire, err = AppendFrame(wire, "n0", []byte(p))
		if err != nil {
			t.Fatal(err)
		}
	}
	r := bytes.NewReader(wire)
	for i, want := range payloads {
		from, data, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if from != "n0" || string(data) != want {
			t.Fatalf("frame %d corrupted: from=%q data=%q", i, from, data)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("%d trailing bytes after all frames read", r.Len())
	}
}

// TestReadFrameMalformedHeader covers headers whose claimed lengths are
// inconsistent or hostile: the reader must error out, not allocate or
// misparse.
func TestReadFrameMalformedHeader(t *testing.T) {
	cases := map[string]func(hdr []byte){
		"total-exceeds-max": func(hdr []byte) {
			binary.BigEndian.PutUint32(hdr[:4], maxFrame+1)
			binary.BigEndian.PutUint16(hdr[4:], 0)
		},
		"fromlen-exceeds-total": func(hdr []byte) {
			binary.BigEndian.PutUint32(hdr[:4], 10)
			binary.BigEndian.PutUint16(hdr[4:], 20)
		},
		"total-below-minimum": func(hdr []byte) {
			binary.BigEndian.PutUint32(hdr[:4], 1)
			binary.BigEndian.PutUint16(hdr[4:], 0)
		},
	}
	for name, fill := range cases {
		t.Run(name, func(t *testing.T) {
			hdr := make([]byte, 6)
			fill(hdr)
			if _, _, err := ReadFrame(bytes.NewReader(hdr)); err == nil {
				t.Fatal("ReadFrame accepted a malformed header")
			}
		})
	}
}

// TestReadFrameHostileLengthNoUpfrontAlloc: a header claiming a huge frame
// followed by connection loss must fail with a bounded allocation — the
// incremental reader only commits readChunk before any payload arrives.
func TestReadFrameHostileLengthNoUpfrontAlloc(t *testing.T) {
	hdr := make([]byte, 6)
	binary.BigEndian.PutUint32(hdr[:4], maxFrame) // maximal plausible claim
	binary.BigEndian.PutUint16(hdr[4:], 0)
	if _, _, err := ReadFrame(bytes.NewReader(hdr)); err == nil {
		t.Fatal("ReadFrame accepted a truncated frame")
	}
	// Directly verify the reader survives the first chunk arriving and then
	// the stream dying, without committing total-2 upfront.
	var buf bytes.Buffer
	buf.Write(hdr)
	buf.Write(make([]byte, readChunk)) // first chunk arrives, then EOF
	if _, _, err := ReadFrame(&buf); err == nil {
		t.Fatal("ReadFrame accepted a frame cut off mid-payload")
	}
}

// TestReadFrameLargePayloadRoundTrip exercises the incremental growth path
// end to end (payload spanning several readChunk doublings).
func TestReadFrameLargePayloadRoundTrip(t *testing.T) {
	payload := make([]byte, 3*readChunk+17)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	wire, err := AppendFrame(nil, "sender", payload)
	if err != nil {
		t.Fatal(err)
	}
	from, data, err := ReadFrame(bytes.NewReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	if from != "sender" || !bytes.Equal(data, payload) {
		t.Fatalf("large frame corrupted: from=%q len=%d", from, len(data))
	}
}

// TestReadFrameBufferedReader: the TCP read loop and the faultnet relay
// read frames through NewFrameReader's bufio.Reader. Whatever chunking the
// socket delivers — the whole stream, one byte at a time, half of each request —
// the same frames come out, and a returned payload never aliases the
// reader's buffer: every payload is checked only after the whole stream,
// whose later frames recycle that buffer, has been read.
func TestReadFrameBufferedReader(t *testing.T) {
	sizes := []int{0, 1, 100, 4 << 10, readChunk + 1234, 17, readChunk - 6, 3, 900}
	var wire []byte
	payloads := make([][]byte, len(sizes))
	for i, n := range sizes {
		payloads[i] = bytes.Repeat([]byte{byte('a' + i)}, n)
		var err error
		wire, err = AppendFrame(wire, fmt.Sprintf("n%d", i), payloads[i])
		if err != nil {
			t.Fatal(err)
		}
	}
	sources := map[string]func(io.Reader) io.Reader{
		"whole":    func(r io.Reader) io.Reader { return r },
		"one-byte": iotest.OneByteReader,
		"half":     iotest.HalfReader,
	}
	for name, wrap := range sources {
		t.Run(name, func(t *testing.T) {
			r := NewFrameReader(wrap(bytes.NewReader(wire)))
			var froms []string
			var datas [][]byte
			for {
				from, data, err := ReadFrame(r)
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("frame %d: %v", len(datas), err)
				}
				froms = append(froms, from)
				datas = append(datas, data)
			}
			if len(datas) != len(sizes) {
				t.Fatalf("read %d frames, want %d", len(datas), len(sizes))
			}
			for i := range datas {
				if want := fmt.Sprintf("n%d", i); froms[i] != want || !bytes.Equal(datas[i], payloads[i]) {
					t.Fatalf("frame %d changed after later reads: from=%q len=%d, want from=%q len=%d",
						i, froms[i], len(datas[i]), want, len(payloads[i]))
				}
			}
		})
	}
}
