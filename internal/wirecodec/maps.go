package wirecodec

import (
	"math/big"
	"sort"
)

// String-keyed map encodings, used by the key-agreement message bodies
// (cliques, ckd). Keys travel sorted so encoding is deterministic; those
// protocols still MAC canonical forms rather than encodings.

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// AppendBigIntMap appends a nil-preserving map[string]*big.Int.
func AppendBigIntMap(b []byte, m map[string]*big.Int) []byte {
	if m == nil {
		return AppendUvarint(b, 0)
	}
	b = AppendUvarint(b, uint64(len(m))+1)
	for _, k := range sortedKeys(m) {
		b = AppendString(b, k)
		b = AppendBigInt(b, m[k])
	}
	return b
}

// BigIntMap reads a map written by AppendBigIntMap.
func (d *Dec) BigIntMap() map[string]*big.Int {
	n, present := d.Count()
	if !present {
		return nil
	}
	m := make(map[string]*big.Int, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		k := d.String()
		m[k] = d.BigInt()
	}
	return m
}

// AppendBytesMap appends a nil-preserving map[string][]byte.
func AppendBytesMap(b []byte, m map[string][]byte) []byte {
	if m == nil {
		return AppendUvarint(b, 0)
	}
	b = AppendUvarint(b, uint64(len(m))+1)
	for _, k := range sortedKeys(m) {
		b = AppendString(b, k)
		b = AppendBytes(b, m[k])
	}
	return b
}

// BytesMap reads a map written by AppendBytesMap.
func (d *Dec) BytesMap() map[string][]byte {
	n, present := d.Count()
	if !present {
		return nil
	}
	m := make(map[string][]byte, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		k := d.String()
		m[k] = d.Bytes()
	}
	return m
}
