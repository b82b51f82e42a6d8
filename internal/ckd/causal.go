package ckd

import (
	"repro/internal/kga"
	"repro/internal/wirecodec"
)

// Causal tracing of CKD protocol bodies, mirroring internal/cliques:
// encoded bodies carry the sender's HLC and a "wire-send" event reference
// in the frame's versioned extension; decoding merges the clock and
// records "wire-recv" with the causal parent edge. MACs are computed over
// auth.Canon forms, never over encodings, so the extension cannot break
// authentication.

// msgTypeName labels a protocol message type for traces.
func msgTypeName(t int) string {
	switch t {
	case MsgCtrlHello:
		return "ctrl-hello"
	case MsgMemberResp:
		return "member-resp"
	case MsgKeyDist:
		return "key-dist"
	default:
		return "type(?)"
	}
}

// SetCausal implements kga.CausalSetter.
func (m *Member) SetCausal(c kga.Causal) { m.causal = c }

// encBody encodes a protocol body of the given message type, stamping it
// with a causal-tracing extension when a hook is attached.
func (m *Member) encBody(t int, v any) ([]byte, error) {
	var ext *wirecodec.Ext
	if m.causal != nil {
		from, h := m.causal.StampSend("kind=" + msgTypeName(t))
		ext = &wirecodec.Ext{From: from, HLC: h}
	}
	return encodeBody(v, ext)
}

// decBody decodes a received protocol body and, when the frame carries an
// extension, merges the sender's clock and records the causal edge.
func (m *Member) decBody(msg kga.Message, v any) error {
	ext, err := decodeBody(msg.Body, v)
	if err != nil {
		return err
	}
	if ext != nil && m.causal != nil {
		m.causal.ObserveRecv(ext.From, ext.HLC,
			"kind="+msgTypeName(msg.Type)+" from="+msg.From)
	}
	return nil
}
