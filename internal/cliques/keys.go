// Package cliques implements the Cliques contributory group key agreement
// suite (group Diffie-Hellman) behind a transport-agnostic API modeled on
// CLQ_API: the caller feeds membership events and protocol messages in, and
// gets protocol messages and completed group keys out.
//
// The group secret for n members is g^(N_1 N_2 ... N_n) mod p where N_i is
// member M_i's private share. The controller role floats: it is always the
// newest (most recently joined) member. Supported operations are JOIN,
// MERGE, LEAVE (single or mass) and REFRESH, per Section 4 of the paper.
//
// Authentication: join messages are authenticated with pairwise long-term
// Diffie-Hellman keys (the "long term key computation" entries of the
// paper's Tables 2-3); leave/refresh broadcasts are authenticated under a
// key derived from the previous group secret. Member certification (binding
// long-term public keys to identities) is explicitly out of scope in the
// paper (Section 1.2); public keys are resolved through a caller-supplied
// kga.Directory.
package cliques

import (
	"crypto/hmac"
	"crypto/sha256"
	"fmt"
	"math/big"

	"repro/internal/dh"
	"repro/internal/kga"
)

// pairwiseKey derives the long-term pairwise key between us (private x) and
// the named peer, counting one exponentiation under label. The result keys
// an HMAC; it is the K_bar of A-GDH-style member authentication.
func pairwiseKey(g *dh.Group, x *big.Int, dir kga.Directory, peer string, c *dh.Counter, label string) ([]byte, error) {
	pub, err := peerPub(g, dir, peer)
	if err != nil {
		return nil, err
	}
	return g.Exp(pub, x, c, label).Bytes(), nil
}

// peerPub resolves the peer's long-term public key and validates it as a
// group element: the base of every pairwise key, computed either by
// pairwiseKey or as a job of a step's exponentiation batch.
func peerPub(g *dh.Group, dir kga.Directory, peer string) (*big.Int, error) {
	pub, err := dir.PubKey(peer)
	if err != nil {
		return nil, fmt.Errorf("pubkey of %s: %w", peer, err)
	}
	if err := g.CheckElement(pub); err != nil {
		return nil, fmt.Errorf("pubkey of %s: %w", peer, err)
	}
	return pub, nil
}

// macTag computes HMAC-SHA256 over parts under key.
func macTag(key []byte, parts ...[]byte) []byte {
	m := hmac.New(sha256.New, key)
	for _, p := range parts {
		m.Write(p)
	}
	return m.Sum(nil)
}

// macOK verifies tag over parts under key in constant time.
func macOK(key []byte, tag []byte, parts ...[]byte) bool {
	return hmac.Equal(tag, macTag(key, parts...))
}

// groupMACKey derives the broadcast-authentication key from a group secret.
// Leave and refresh broadcasts are MACed under the previous group secret:
// every surviving member can verify, and forging requires the old secret
// (an outsider cannot; a just-departed insider is excluded by the secure
// layer's membership-ordered delivery, as in the paper's trust model).
func groupMACKey(secret *big.Int) []byte {
	h := sha256.Sum256(append([]byte("cliques broadcast mac v1:"), secret.Bytes()...))
	return h[:]
}
