// Package auth holds the message-authentication helpers shared by the key
// agreement modules: canonical byte encoding for MAC inputs and
// HMAC-SHA256 tagging.
package auth

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/big"
	"sort"
)

// MACTag computes HMAC-SHA256 over parts under key.
func MACTag(key []byte, parts ...[]byte) []byte {
	m := hmac.New(sha256.New, key)
	for _, p := range parts {
		m.Write(p)
	}
	return m.Sum(nil)
}

// MACOK verifies tag over parts under key in constant time.
func MACOK(key []byte, tag []byte, parts ...[]byte) bool {
	return hmac.Equal(tag, MACTag(key, parts...))
}

// Canon builds a deterministic byte string from heterogeneous fields for
// MAC computation. Gob map encoding is nondeterministic, so MACs must never
// be computed over raw message encodings.
func Canon(parts ...any) []byte {
	var buf bytes.Buffer
	writeBytes := func(b []byte) {
		var n [4]byte
		binary.BigEndian.PutUint32(n[:], uint32(len(b)))
		buf.Write(n[:])
		buf.Write(b)
	}
	for _, p := range parts {
		switch v := p.(type) {
		case string:
			writeBytes([]byte(v))
		case []byte:
			writeBytes(v)
		case uint64:
			var n [8]byte
			binary.BigEndian.PutUint64(n[:], v)
			buf.Write(n[:])
		case int:
			var n [8]byte
			binary.BigEndian.PutUint64(n[:], uint64(v))
			buf.Write(n[:])
		case *big.Int:
			if v == nil {
				writeBytes(nil)
			} else {
				writeBytes(v.Bytes())
			}
		case []string:
			var n [4]byte
			binary.BigEndian.PutUint32(n[:], uint32(len(v)))
			buf.Write(n[:])
			for _, s := range v {
				writeBytes([]byte(s))
			}
		case map[string]*big.Int:
			keys := make([]string, 0, len(v))
			for k := range v {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			var n [4]byte
			binary.BigEndian.PutUint32(n[:], uint32(len(keys)))
			buf.Write(n[:])
			for _, k := range keys {
				writeBytes([]byte(k))
				writeBytes(v[k].Bytes())
			}
		default:
			panic(fmt.Sprintf("auth: canon: unsupported type %T", p))
		}
	}
	return buf.Bytes()
}
