package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sync"
)

// Wire framing shared by the TCP transport and the faultnet proxy:
// [4-byte total][2-byte fromLen][from][data], where total counts everything
// after the 4-byte length prefix.
const (
	maxFrame = 64 << 20 // 64 MiB sanity cap
	maxFrom  = 65535    // fromLen travels as uint16

	// readChunk bounds the allocation made on the strength of an
	// unverified header: a hostile 64 MiB length prefix only costs
	// memory as fast as the peer actually delivers bytes.
	readChunk = 64 << 10
)

// AppendFrame appends one encoded frame for (from, data) to dst and returns
// the extended slice. It rejects frames that cannot travel: sender names
// longer than 65535 bytes (the length field would truncate and corrupt the
// stream) and frames larger than the 64 MiB cap. On error dst is returned
// unmodified.
func AppendFrame(dst []byte, from string, data []byte) ([]byte, error) {
	if len(from) > maxFrom {
		return dst, fmt.Errorf("transport: from name too long (%d bytes)", len(from))
	}
	total := 2 + len(from) + len(data)
	if total > maxFrame {
		return dst, fmt.Errorf("transport: frame too large (%d bytes)", total)
	}
	var hdr [6]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(total))
	binary.BigEndian.PutUint16(hdr[4:], uint16(len(from)))
	dst = append(dst, hdr[:]...)
	dst = append(dst, from...)
	dst = append(dst, data...)
	return dst, nil
}

// NewFrameReader wraps a connection for ReadFrame, as the TCP read loop and
// the faultnet relay both read: one read syscall serves every frame of a
// writev batch.
func NewFrameReader(conn io.Reader) *bufio.Reader {
	return bufio.NewReaderSize(conn, readChunk)
}

// fromPool recycles the scratch buffer the sender name is read into (the
// name itself is a fresh string; the scratch never escapes).
var fromPool = sync.Pool{New: func() any {
	b := make([]byte, 256)
	return &b
}}

// ReadFrame reads one frame from r. The returned data buffer is freshly
// allocated (it escapes to handlers, which may retain it).
func ReadFrame(r io.Reader) (string, []byte, error) {
	var hdr [6]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return "", nil, err
	}
	total := binary.BigEndian.Uint32(hdr[:4])
	fromLen := int(binary.BigEndian.Uint16(hdr[4:]))
	if total > maxFrame || int(total) < 2+fromLen {
		return "", nil, fmt.Errorf("transport: bad frame header")
	}

	fb := fromPool.Get().(*[]byte)
	if cap(*fb) < fromLen {
		*fb = make([]byte, fromLen)
	}
	scratch := (*fb)[:fromLen]
	if _, err := io.ReadFull(r, scratch); err != nil {
		fromPool.Put(fb)
		return "", nil, err
	}
	from := string(scratch)
	fromPool.Put(fb)

	// The data buffer escapes to the handler (decoded messages alias it),
	// so it cannot be pooled — but it can be grown incrementally so the
	// header alone never commits more than readChunk of memory.
	n := int(total) - 2 - fromLen
	data := make([]byte, min(n, readChunk))
	for filled := 0; ; {
		if _, err := io.ReadFull(r, data[filled:]); err != nil {
			return "", nil, err
		}
		filled = len(data)
		if filled >= n {
			break
		}
		data = slices.Grow(data, min(n-filled, filled))[:min(2*filled, n)]
	}
	return from, data, nil
}
