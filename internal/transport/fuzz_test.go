package transport

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
	"testing/iotest"
)

// corpusStreams builds the seed byte streams for FuzzReadFrame: well-formed
// frame sequences, and streams cut off or corrupted at each header field.
func corpusStreams(tb testing.TB) [][]byte {
	frame := func(dst []byte, from string, data []byte) []byte {
		out, err := AppendFrame(dst, from, data)
		if err != nil {
			tb.Fatal(err)
		}
		return out
	}
	header := func(total uint32, fromLen uint16) []byte {
		h := make([]byte, 6)
		binary.BigEndian.PutUint32(h[:4], total)
		binary.BigEndian.PutUint16(h[4:], fromLen)
		return h
	}
	one := frame(nil, "d00", []byte("heartbeat"))
	three := frame(frame(frame(nil, "d01", []byte("a")), "d02", nil), "d00", bytes.Repeat([]byte{0xab}, 2000))
	return [][]byte{
		nil,
		one,
		three,
		frame(nil, "", nil),
		frame(nil, strings.Repeat("n", 300), []byte("name longer than the pooled scratch")),
		append(append([]byte(nil), one...), three[:len(three)-7]...), // cut mid-payload
		append(append([]byte(nil), one...), 0, 0),                    // cut mid-header
		header(10, 20),                // fromLen exceeds total
		header(1, 0),                  // total below minimum
		header(maxFrame+1, 0),         // total over the cap
		header(maxFrame, 0),           // hostile claim, then the stream ends
		append(header(9, 3), "d0"...), // cut mid-name
	}
}

// FuzzReadFrame reads an arbitrary byte stream as frames two ways — through
// NewFrameReader, as the TCP read loop and the faultnet relay do, and one
// byte per read — and requires both to yield the same frames and stop with
// the same error, never panicking. Every accepted frame must re-encode
// through AppendFrame to exactly the bytes it consumed.
func FuzzReadFrame(f *testing.F) {
	for _, s := range corpusStreams(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, stream []byte) {
		if len(stream) > 1<<20 {
			return // bound the work per input
		}
		type frame struct {
			from string
			data []byte
		}
		var buffered []frame
		br := NewFrameReader(bytes.NewReader(stream))
		var bufErr error
		for {
			from, data, err := ReadFrame(br)
			if err != nil {
				bufErr = err
				break
			}
			buffered = append(buffered, frame{from, data})
		}

		src := bytes.NewReader(stream)
		one := iotest.OneByteReader(src)
		for i, start := 0, 0; ; i++ {
			from, data, err := ReadFrame(one)
			if err != nil {
				if i != len(buffered) || err.Error() != bufErr.Error() {
					t.Fatalf("one-byte reads stopped at frame %d with %v; buffered reads at frame %d with %v",
						i, err, len(buffered), bufErr)
				}
				return
			}
			if i >= len(buffered) || buffered[i].from != from || !bytes.Equal(buffered[i].data, data) {
				t.Fatalf("frame %d differs between buffered and one-byte reads", i)
			}
			end := len(stream) - src.Len()
			enc, err := AppendFrame(nil, from, data)
			if err != nil || !bytes.Equal(enc, stream[start:end]) {
				t.Fatalf("frame %d does not re-encode to the %d bytes it consumed (err %v)", i, end-start, err)
			}
			start = end
		}
	})
}
