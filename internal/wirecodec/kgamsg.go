package wirecodec

import "repro/internal/kga"

// kga.Message's field encoding lives here, next to the primitives, so the
// secure layer envelope (internal/core) composes it like any other field.

// AppendKGAMessage appends a kga.Message's fields (presence byte first, so
// nil pointers survive round trips).
func AppendKGAMessage(b []byte, m *kga.Message) []byte {
	if m == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	b = AppendString(b, m.Proto)
	b = AppendInt(b, int64(m.Type))
	b = AppendString(b, m.From)
	b = AppendString(b, m.To)
	return AppendBytes(b, m.Body)
}

// KGAMessage reads a kga.Message encoded by AppendKGAMessage, or nil. The
// Body retains its backing storage out of the decoder input.
func (d *Dec) KGAMessage() *kga.Message {
	if !d.Bool() {
		return nil
	}
	m := &kga.Message{}
	m.Proto = d.String()
	m.Type = int(d.Int())
	m.From = d.String()
	m.To = d.String()
	m.Body = d.Bytes()
	if d.err != nil {
		return nil
	}
	return m
}
