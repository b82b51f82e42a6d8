// Package crypt provides the bulk-data privacy and integrity services of the
// secure group layer: a pluggable cipher suite registry (the paper's
// "drop-in replacement of encryption modules"), key derivation from a group
// secret, and an encrypt-then-MAC message framing.
//
// The paper's implementation used Blowfish for privacy; we register
// Blowfish-CBC as the default and AES-CTR as the drop-in alternative the
// paper anticipated adding via OpenSSL, plus a null suite for measuring pure
// group-communication overhead.
package crypt

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"

	"repro/internal/blowfish"
)

// Suite names registered by default.
const (
	SuiteBlowfish = "blowfish-cbc"
	// SuiteAESCTR is a stream-cipher-style suite (AES in counter mode):
	// the paper notes encryption "can be done with almost no overhead if
	// certain types of stream ciphers are used".
	SuiteAESCTR = "aes-ctr"
	SuiteNull   = "null"
)

// Errors returned by Open.
var (
	ErrAuth       = errors.New("crypt: message authentication failed")
	ErrShortFrame = errors.New("crypt: frame too short")
	ErrBadPadding = errors.New("crypt: invalid padding")
)

// Suite seals and opens application payloads under keys derived from a group
// secret. Implementations are safe for concurrent use.
type Suite interface {
	// Name returns the registered suite name.
	Name() string
	// Seal encrypts and authenticates plaintext.
	Seal(plaintext []byte) ([]byte, error)
	// Open verifies and decrypts a sealed frame.
	Open(frame []byte) ([]byte, error)
	// Overhead returns the maximum bytes added to a plaintext by Seal.
	Overhead() int
}

// AppendSealer is the allocation-free variant of Seal: the sealed frame is
// appended into dst's spare capacity (a pooled buffer on the data plane),
// so seal -> encode -> send reuses one buffer instead of allocating and
// copying at every hop. All built-in suites implement it; third-party
// suites may not, so callers go through the SealAppend helper.
type AppendSealer interface {
	SealAppend(dst, plaintext []byte) ([]byte, error)
}

// SealAppend appends the sealed frame for plaintext to dst, using the
// suite's append fast path when available and Seal plus a copy otherwise.
func SealAppend(s Suite, dst, plaintext []byte) ([]byte, error) {
	if as, ok := s.(AppendSealer); ok {
		return as.SealAppend(dst, plaintext)
	}
	frame, err := s.Seal(plaintext)
	if err != nil {
		return nil, err
	}
	return append(dst, frame...), nil
}

// Constructor builds a Suite from key material. The registry hands each
// constructor a stream of key bytes derived from the group secret.
type Constructor func(keyMaterial io.Reader) (Suite, error)

var (
	registryMu sync.RWMutex
	registry   = map[string]Constructor{
		SuiteBlowfish: newBlowfishCBC,
		SuiteAESCTR:   newAESCTR,
		SuiteNull:     newNull,
	}
)

// Register adds a cipher suite constructor under name, implementing the
// modular "drop-in replacement" design of the paper (Section 5.1). It
// returns an error if the name is already taken.
func Register(name string, c Constructor) error {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		return fmt.Errorf("crypt: suite %q already registered", name)
	}
	registry[name] = c
	return nil
}

// Suites returns the registered suite names in sorted order.
func Suites() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// NewSuite derives keys from the group secret and instantiates the named
// suite. The context string binds the keys to their use (e.g. the group
// name and key epoch) so the same secret can never key two different
// channels identically.
func NewSuite(name string, secret, context []byte) (Suite, error) {
	registryMu.RLock()
	ctor, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("crypt: unknown suite %q", name)
	}
	return ctor(NewKDF(secret, context))
}

// cbcSuite is the Blowfish-CBC + HMAC-SHA256 encrypt-then-MAC suite. It
// runs blowfish's fused CBC kernel directly on the frame buffers.
type cbcSuite struct {
	block *blowfish.Cipher
	mac   *macPool
}

const macSize = sha256.Size

func newBlowfishCBC(km io.Reader) (Suite, error) {
	key := make([]byte, 16) // 128-bit Blowfish key as in common deployments
	if _, err := io.ReadFull(km, key); err != nil {
		return nil, fmt.Errorf("derive blowfish key: %w", err)
	}
	blk, err := blowfish.NewCipher(key)
	if err != nil {
		return nil, err
	}
	macKey := make([]byte, 32)
	if _, err := io.ReadFull(km, macKey); err != nil {
		return nil, fmt.Errorf("derive mac key: %w", err)
	}
	return &cbcSuite{block: blk, mac: newMACPool(macKey)}, nil
}

func (s *cbcSuite) Name() string { return SuiteBlowfish }

func (s *cbcSuite) Overhead() int {
	// IV + up to one block of padding + MAC.
	return 2*blowfish.BlockSize + macSize
}

func (s *cbcSuite) Seal(plaintext []byte) ([]byte, error) {
	// One allocation: SealAppend grows nil to the exact frame size and
	// MACs into its spare capacity.
	return s.SealAppend(nil, plaintext)
}

// SealAppend implements AppendSealer: the frame is built in dst's spare
// capacity, allocating only if dst is too small.
func (s *cbcSuite) SealAppend(dst, plaintext []byte) ([]byte, error) {
	const bs = blowfish.BlockSize
	padN := bs - len(plaintext)%bs
	bodyLen := bs + len(plaintext) + padN
	dst = slices.Grow(dst, bodyLen+macSize)
	frame := dst[len(dst) : len(dst)+bodyLen]
	dst = dst[:len(dst)+bodyLen]
	iv := frame[:bs]
	if _, err := rand.Read(iv); err != nil {
		return nil, fmt.Errorf("draw iv: %w", err)
	}
	padded := frame[bs:]
	copy(padded, plaintext)
	for i := len(plaintext); i < len(padded); i++ {
		padded[i] = byte(padN)
	}
	s.block.EncryptCBC(iv, padded)
	countSeal(len(plaintext))
	return s.mac.sumAppend(dst, frame), nil
}

// Open verifies the MAC, then decrypts, then unpads.
func (s *cbcSuite) Open(frame []byte) ([]byte, error) {
	const bs = blowfish.BlockSize
	if len(frame) < bs+bs+macSize {
		return nil, ErrShortFrame
	}
	body, tag := frame[:len(frame)-macSize], frame[len(frame)-macSize:]
	if !s.mac.verify(body, tag) {
		openFails.Inc()
		return nil, ErrAuth
	}
	ct := body[bs:]
	if len(ct)%bs != 0 {
		return nil, ErrShortFrame
	}
	pt := make([]byte, len(ct))
	s.block.DecryptCBC(body[:bs], pt, ct)
	countOpen(len(frame))
	return unpad(pt, bs)
}

// ctrSuite is the stream-style encrypt-then-MAC suite: counter mode needs
// no padding, so the frame is IV + len(plaintext) + MAC.
type ctrSuite struct {
	block cipher.Block
	mac   *macPool
}

func newAESCTR(km io.Reader) (Suite, error) {
	key := make([]byte, 16)
	if _, err := io.ReadFull(km, key); err != nil {
		return nil, fmt.Errorf("derive aes-ctr key: %w", err)
	}
	blk, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	macKey := make([]byte, 32)
	if _, err := io.ReadFull(km, macKey); err != nil {
		return nil, fmt.Errorf("derive mac key: %w", err)
	}
	return &ctrSuite{block: blk, mac: newMACPool(macKey)}, nil
}

func (s *ctrSuite) Name() string { return SuiteAESCTR }

func (s *ctrSuite) Overhead() int { return s.block.BlockSize() + macSize }

func (s *ctrSuite) Seal(plaintext []byte) ([]byte, error) {
	return s.SealAppend(nil, plaintext)
}

// SealAppend implements AppendSealer.
func (s *ctrSuite) SealAppend(dst, plaintext []byte) ([]byte, error) {
	bs := s.block.BlockSize()
	bodyLen := bs + len(plaintext)
	dst = slices.Grow(dst, bodyLen+macSize)
	frame := dst[len(dst) : len(dst)+bodyLen]
	dst = dst[:len(dst)+bodyLen]
	iv := frame[:bs]
	if _, err := rand.Read(iv); err != nil {
		return nil, fmt.Errorf("draw iv: %w", err)
	}
	cipher.NewCTR(s.block, iv).XORKeyStream(frame[bs:], plaintext)
	countSeal(len(plaintext))
	return s.mac.sumAppend(dst, frame), nil
}

func (s *ctrSuite) Open(frame []byte) ([]byte, error) {
	bs := s.block.BlockSize()
	if len(frame) < bs+macSize {
		return nil, ErrShortFrame
	}
	body, tag := frame[:len(frame)-macSize], frame[len(frame)-macSize:]
	if !s.mac.verify(body, tag) {
		openFails.Inc()
		return nil, ErrAuth
	}
	ct := body[bs:]
	pt := make([]byte, len(ct))
	cipher.NewCTR(s.block, body[:bs]).XORKeyStream(pt, ct)
	countOpen(len(frame))
	return pt, nil
}

// nullSuite authenticates but does not encrypt: it isolates the cost of the
// group communication and key agreement from the cost of encryption in
// ablation benchmarks.
type nullSuite struct {
	mac *macPool
}

func newNull(km io.Reader) (Suite, error) {
	macKey := make([]byte, 32)
	if _, err := io.ReadFull(km, macKey); err != nil {
		return nil, fmt.Errorf("derive mac key: %w", err)
	}
	return &nullSuite{mac: newMACPool(macKey)}, nil
}

func (s *nullSuite) Name() string  { return SuiteNull }
func (s *nullSuite) Overhead() int { return macSize }

func (s *nullSuite) Seal(plaintext []byte) ([]byte, error) {
	return s.SealAppend(nil, plaintext)
}

// SealAppend implements AppendSealer.
func (s *nullSuite) SealAppend(dst, plaintext []byte) ([]byte, error) {
	dst = slices.Grow(dst, len(plaintext)+macSize)
	off := len(dst)
	dst = append(dst, plaintext...)
	countSeal(len(plaintext))
	return s.mac.sumAppend(dst, dst[off:]), nil
}

func (s *nullSuite) Open(frame []byte) ([]byte, error) {
	if len(frame) < macSize {
		return nil, ErrShortFrame
	}
	body, tag := frame[:len(frame)-macSize], frame[len(frame)-macSize:]
	if !s.mac.verify(body, tag) {
		openFails.Inc()
		return nil, ErrAuth
	}
	out := make([]byte, len(body))
	copy(out, body)
	countOpen(len(frame))
	return out, nil
}

// unpad strips and validates PKCS#7 padding.
func unpad(data []byte, bs int) ([]byte, error) {
	if len(data) == 0 || len(data)%bs != 0 {
		return nil, ErrBadPadding
	}
	n := int(data[len(data)-1])
	if n == 0 || n > bs || n > len(data) {
		return nil, ErrBadPadding
	}
	for _, b := range data[len(data)-n:] {
		if int(b) != n {
			return nil, ErrBadPadding
		}
	}
	return data[:len(data)-n], nil
}
