package ckd

import (
	"repro/internal/kga"
	"repro/internal/wirecodec"
)

// Causal tracing of CKD protocol bodies, as in internal/cliques. MACs are
// computed over auth.Canon forms, never over encodings, so the extension
// cannot break authentication.

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
func (m *Member) SetCausal(c *kga.Causal) { m.causal = c }

// encBody encodes a protocol body of the given message type with the
// engine's causal stamp.
func (m *Member) encBody(t int, v any) ([]byte, error) {
	return encodeBody(v, wirecodec.KGASendExt(m.causal, msgTypeName(t)))
}

// decBody decodes a received protocol body and records its causal edge.
func (m *Member) decBody(msg kga.Message, v any) error {
	ext, err := decodeBody(msg.Body, v)
	if err == nil {
		ext.ObserveKGA(m.causal, msgTypeName(msg.Type), msg.From)
	}
	return err
}
