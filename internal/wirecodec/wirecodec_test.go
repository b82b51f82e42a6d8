package wirecodec

import (
	"bytes"
	"errors"
	"math/big"
	"reflect"
	"testing"

	"repro/internal/kga"
	"repro/internal/obs"
)

func TestPrimitivesRoundTrip(t *testing.T) {
	b := AppendPreambleExt(nil, nil)
	b = AppendUvarint(b, 0)
	b = AppendUvarint(b, 1<<63)
	b = AppendInt(b, -1)
	b = AppendInt(b, 1<<40)
	b = AppendBool(b, true)
	b = AppendBool(b, false)
	b = AppendBytes(b, nil)
	b = AppendBytes(b, []byte{})
	b = AppendBytes(b, []byte("payload"))
	b = AppendString(b, "")
	b = AppendString(b, "member#daemon")
	b = AppendStrings(b, nil)
	b = AppendStrings(b, []string{"a", "", "c"})
	b = AppendBigInt(b, nil)
	b = AppendBigInt(b, big.NewInt(0))
	b = AppendBigInt(b, big.NewInt(-42))
	b = AppendBigInt(b, new(big.Int).Lsh(big.NewInt(1), 511))

	d := NewDec(b)
	if got := d.Uvarint(); got != 0 {
		t.Fatalf("uvarint 0: got %d", got)
	}
	if got := d.Uvarint(); got != 1<<63 {
		t.Fatalf("uvarint 1<<63: got %d", got)
	}
	if got := d.Int(); got != -1 {
		t.Fatalf("int -1: got %d", got)
	}
	if got := d.Int(); got != 1<<40 {
		t.Fatalf("int 1<<40: got %d", got)
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("bool round trip")
	}
	if got := d.Bytes(); got != nil {
		t.Fatalf("nil bytes: got %v", got)
	}
	if got := d.Bytes(); got == nil || len(got) != 0 {
		t.Fatalf("empty bytes: got %v", got)
	}
	if got := d.Bytes(); string(got) != "payload" {
		t.Fatalf("bytes: got %q", got)
	}
	if got := d.String(); got != "" {
		t.Fatalf("empty string: got %q", got)
	}
	if got := d.String(); got != "member#daemon" {
		t.Fatalf("string: got %q", got)
	}
	if got := d.Strings(); got != nil {
		t.Fatalf("nil strings: got %v", got)
	}
	if got := d.Strings(); !reflect.DeepEqual(got, []string{"a", "", "c"}) {
		t.Fatalf("strings: got %v", got)
	}
	if got := d.BigInt(); got != nil {
		t.Fatalf("nil bigint: got %v", got)
	}
	if got := d.BigInt(); got == nil || got.Sign() != 0 {
		t.Fatalf("zero bigint: got %v", got)
	}
	if got := d.BigInt(); got == nil || got.Int64() != -42 {
		t.Fatalf("negative bigint: got %v", got)
	}
	want := new(big.Int).Lsh(big.NewInt(1), 511)
	if got := d.BigInt(); got == nil || got.Cmp(want) != 0 {
		t.Fatalf("large bigint: got %v", got)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestDecRejectsBadPreamble pins the single format generation: anything
// but [Magic][Version] and a well-formed extension block is rejected with
// the error the per-package decoders wrap.
func TestDecRejectsBadPreamble(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   []byte
		want error
	}{
		{"empty", nil, ErrNotCodec},
		{"magic only", []byte{Magic}, ErrNotCodec},
		{"gob length prefix", []byte{0x42, Version, 0}, ErrNotCodec},
		{"retired version 1", []byte{Magic, 0x01, 0}, ErrBadVersion},
		{"unknown version", []byte{Magic, 0x7f, 0}, ErrBadVersion},
		{"missing ext-len", []byte{Magic, Version}, ErrTruncated},
		{"ext-len overruns frame", []byte{Magic, Version, 9, 1, 'a'}, ErrTruncated},
		{"ext fields overrun ext-len", []byte{Magic, Version, 2, 5, 'a', 'b', 'c', 'd', 'e', 0, 0, 0}, ErrTruncated},
	} {
		if err := NewDec(tc.in).Err(); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestExtRoundTrip: the extension block survives with and without a stamp,
// and a block longer than the known fields is skipped, not rejected.
func TestExtRoundTrip(t *testing.T) {
	if d := NewDec(AppendPreambleExt(nil, nil)); d.Err() != nil || d.Ext() != nil || d.Len() != 0 {
		t.Fatalf("stampless preamble: err=%v ext=%v left=%d", d.Err(), d.Ext(), d.Len())
	}
	ext := &Ext{From: obs.EventRef{Node: "d01", Seq: 42}, HLC: obs.HLC{Wall: -7, Logical: 3}}
	b := AppendPreambleExt(nil, ext)
	d := NewDec(b)
	if d.Err() != nil || d.Ext() == nil || *d.Ext() != *ext || d.Len() != 0 {
		t.Fatalf("stamped preamble: err=%v ext=%v left=%d", d.Err(), d.Ext(), d.Len())
	}
	// A later sender appends a field to the block: ext-len grows by one.
	grown := append([]byte{Magic, Version, b[2] + 1}, b[3:]...)
	grown = append(grown, 0x55)
	d = NewDec(AppendUvarint(grown, 9))
	if d.Ext() == nil || *d.Ext() != *ext || d.Uvarint() != 9 || d.Close() != nil {
		t.Fatalf("grown ext block: err=%v ext=%v", d.Err(), d.Ext())
	}
}

// TestDecTruncation checks that every truncation of a valid encoding fails
// cleanly (no panic, ErrTruncated or a tag error) rather than fabricating
// values.
func TestDecTruncation(t *testing.T) {
	b := AppendPreambleExt(nil, nil)
	b = AppendUvarint(b, 300)
	b = AppendBytes(b, bytes.Repeat([]byte{7}, 40))
	b = AppendString(b, "hello")
	b = AppendBigInt(b, big.NewInt(123456789))
	for cut := 2; cut < len(b); cut++ {
		d := NewDec(b[:cut])
		d.Uvarint()
		d.Bytes()
		_ = d.String()
		d.BigInt()
		if err := d.Close(); err == nil {
			t.Fatalf("cut=%d: truncated input decoded cleanly", cut)
		}
	}
}

// TestDecHostileCount pins that a corrupt count cannot force a giant
// allocation: counts are bounded by the remaining input.
func TestDecHostileCount(t *testing.T) {
	b := AppendPreambleExt(nil, nil)
	b = AppendUvarint(b, 1<<40) // claims ~1e12 elements
	d := NewDec(b)
	if got := d.Strings(); got != nil {
		t.Fatalf("hostile count decoded: %d elems", len(got))
	}
	if d.Err() == nil {
		t.Fatal("hostile count: want error")
	}
}

func TestDecTrailing(t *testing.T) {
	b := AppendPreambleExt(nil, nil)
	b = AppendUvarint(b, 7)
	b = append(b, 0xff)
	d := NewDec(b)
	if got := d.Uvarint(); got != 7 {
		t.Fatalf("got %d", got)
	}
	if err := d.Close(); err != ErrTrailing {
		t.Fatalf("close: %v, want ErrTrailing", err)
	}
}

func TestKGAMessageRoundTrip(t *testing.T) {
	msgs := []*kga.Message{
		nil,
		{},
		{Proto: "cliques", Type: 3, From: "a#d0", To: "b#d1", Body: []byte{1, 2, 3}},
		{Proto: "ckd", Type: -1, From: "x", Body: nil},
	}
	for i, m := range msgs {
		b := AppendKGAMessage(AppendPreambleExt(nil, nil), m)
		d := NewDec(b)
		got := d.KGAMessage()
		if err := d.Close(); err != nil {
			t.Fatalf("msg %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("msg %d: got %#v want %#v", i, got, m)
		}
	}
}

func TestBufPoolRecycles(t *testing.T) {
	b := GetBuf()
	if len(b) != 0 {
		t.Fatalf("pooled buffer not empty: len=%d", len(b))
	}
	b = append(b, make([]byte, 1024)...)
	PutBuf(b)
	// Oversized buffers must not be retained.
	PutBuf(make([]byte, 0, maxPooledBuf+1))
	c := GetBuf()
	if cap(c) > maxPooledBuf {
		t.Fatalf("oversized buffer retained: cap=%d", cap(c))
	}
	PutBuf(c)
}
