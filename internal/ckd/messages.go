package ckd

import (
	"crypto/sha256"
	"fmt"
	"math/big"

	"repro/internal/kga/auth"
	"repro/internal/wirecodec"
)

type helloBody struct {
	Members     []string
	GR1         *big.Int // alpha^r_1
	SenderPub   *big.Int
	TargetEpoch uint64
	MAC         []byte // keyed under the long-term pairwise key
}

func helloCanon(from, to string, b *helloBody) []byte {
	return auth.Canon("ckd-hello", from, to, b.Members, b.GR1, b.SenderPub, b.TargetEpoch)
}

type respBody struct {
	Blinded     *big.Int // alpha^(r_i * K_1i)
	SenderPub   *big.Int
	TargetEpoch uint64
	MAC         []byte // keyed under the long-term pairwise key
}

func respCanon(from string, b *respBody) []byte {
	return auth.Canon("ckd-resp", from, b.Blinded, b.SenderPub, b.TargetEpoch)
}

type keyDistBody struct {
	Members     []string
	Left        []string
	Entries     map[string]*big.Int // Ks blinded per member
	EntryMACs   map[string][]byte   // keyed under the pairwise blinding key
	SenderPub   *big.Int
	TargetEpoch uint64
}

func entryCanon(from, member string, entry *big.Int, epoch uint64) []byte {
	return auth.Canon("ckd-entry", from, member, entry, epoch)
}

// eMACKey derives a MAC key from a pairwise blinding exponent so key-dist
// entries are authenticated without extra exponentiations.
func eMACKey(e *big.Int) []byte {
	h := sha256.Sum256(append([]byte("ckd entry mac v1:"), e.Bytes()...))
	return h[:]
}

// encodeBody writes a protocol body with the binary wire codec; ext is
// the sender's causal-tracing stamp, nil when it has none. The body type
// is implied by kga.Message.Type; MACs are computed over auth.Canon
// forms, never over encodings.
func encodeBody(v any, ext *wirecodec.Ext) ([]byte, error) {
	b := wirecodec.AppendPreambleExt(nil, ext)
	switch body := v.(type) {
	case *helloBody:
		b = wirecodec.AppendStrings(b, body.Members)
		b = wirecodec.AppendBigInt(b, body.GR1)
		b = wirecodec.AppendBigInt(b, body.SenderPub)
		b = wirecodec.AppendUvarint(b, body.TargetEpoch)
		b = wirecodec.AppendBytes(b, body.MAC)
	case *respBody:
		b = wirecodec.AppendBigInt(b, body.Blinded)
		b = wirecodec.AppendBigInt(b, body.SenderPub)
		b = wirecodec.AppendUvarint(b, body.TargetEpoch)
		b = wirecodec.AppendBytes(b, body.MAC)
	case *keyDistBody:
		b = wirecodec.AppendStrings(b, body.Members)
		b = wirecodec.AppendStrings(b, body.Left)
		b = wirecodec.AppendBigIntMap(b, body.Entries)
		b = wirecodec.AppendBytesMap(b, body.EntryMACs)
		b = wirecodec.AppendBigInt(b, body.SenderPub)
		b = wirecodec.AppendUvarint(b, body.TargetEpoch)
	default:
		return nil, fmt.Errorf("encode ckd body: unsupported type %T", v)
	}
	return b, nil
}

// decodeBody reads a protocol body into v and returns the frame's
// causal-tracing extension (nil when the sender had no stamp).
func decodeBody(data []byte, v any) (*wirecodec.Ext, error) {
	d := wirecodec.NewDec(data)
	switch body := v.(type) {
	case *helloBody:
		body.Members = d.Strings()
		body.GR1 = d.BigInt()
		body.SenderPub = d.BigInt()
		body.TargetEpoch = d.Uvarint()
		body.MAC = d.Bytes()
	case *respBody:
		body.Blinded = d.BigInt()
		body.SenderPub = d.BigInt()
		body.TargetEpoch = d.Uvarint()
		body.MAC = d.Bytes()
	case *keyDistBody:
		body.Members = d.Strings()
		body.Left = d.Strings()
		body.Entries = d.BigIntMap()
		body.EntryMACs = d.BytesMap()
		body.SenderPub = d.BigInt()
		body.TargetEpoch = d.Uvarint()
	default:
		return nil, fmt.Errorf("decode ckd body: unsupported type %T", v)
	}
	if err := d.Close(); err != nil {
		return nil, fmt.Errorf("decode ckd body: %w", err)
	}
	return d.Ext(), nil
}
