package core

import (
	"crypto/sha256"
	"fmt"
	"math/big"

	"repro/internal/kga"
	"repro/internal/wirecodec"
)

// Envelope kinds carried inside flush-layer data messages.
const (
	envAnnounce = iota + 1
	envKGA
	envData
	envRefreshStart
	envRefreshRequest
)

// envelope is the secure layer's wire format.
type envelope struct {
	Kind int

	// envAnnounce: per-view state announcement.
	Ann *announceBody

	// envKGA: a key-agreement protocol message.
	KGA *kga.Message

	// envData: encrypted application payload.
	Epoch uint64
	Frame []byte
}

// announceBody carries the state a member advertises at the start of every
// view: its long-term public key (member certification is out of scope per
// the paper, Section 1.2) and the alignment information used to choose
// between the incremental operation and the full re-key.
type announceBody struct {
	Name string
	Pub  *big.Int
	// Epoch is the committed key epoch (0 = no group context).
	Epoch uint64
	// Digest is a key-confirmation digest of the committed secret.
	Digest []byte
	// Members is the committed member list, oldest first.
	Members []string
	// Proto is the key agreement module in use, for mismatch detection.
	Proto string
}

// envKindName labels an envelope kind for traces.
func envKindName(k int) string {
	switch k {
	case envAnnounce:
		return "announce"
	case envKGA:
		return "kga"
	case envData:
		return "data"
	case envRefreshStart:
		return "refresh-start"
	case envRefreshRequest:
		return "refresh-req"
	default:
		return fmt.Sprintf("kind(%d)", k)
	}
}

// envKindDetail is "kind=" + envKindName(k) without the per-call
// concatenation: the envelope trace hot path stamps it on every frame.
func envKindDetail(k int) string {
	switch k {
	case envAnnounce:
		return "kind=announce"
	case envKGA:
		return "kind=kga"
	case envData:
		return "kind=data"
	case envRefreshStart:
		return "kind=refresh-start"
	case envRefreshRequest:
		return "kind=refresh-req"
	default:
		return "kind=" + envKindName(k)
	}
}

// encodeEnvelope writes a secure-layer envelope with the binary wire
// codec; ext is the sender's causal-tracing stamp, nil when it has none.
func encodeEnvelope(e *envelope, ext *wirecodec.Ext) ([]byte, error) {
	// Sized up front: the ciphertext frame dominates the envelope, and
	// letting append grow from nil re-copies it several times per message.
	b := wirecodec.AppendPreambleExt(make([]byte, 0, len(e.Frame)+96), ext)
	b = wirecodec.AppendInt(b, int64(e.Kind))
	if e.Ann == nil {
		b = append(b, 0)
	} else {
		b = append(b, 1)
		b = wirecodec.AppendString(b, e.Ann.Name)
		b = wirecodec.AppendBigInt(b, e.Ann.Pub)
		b = wirecodec.AppendUvarint(b, e.Ann.Epoch)
		b = wirecodec.AppendBytes(b, e.Ann.Digest)
		b = wirecodec.AppendStrings(b, e.Ann.Members)
		b = wirecodec.AppendString(b, e.Ann.Proto)
	}
	b = wirecodec.AppendKGAMessage(b, e.KGA)
	b = wirecodec.AppendUvarint(b, e.Epoch)
	b = wirecodec.AppendBytes(b, e.Frame)
	return b, nil
}

// decodeEnvelope reads a secure-layer envelope and its causal-tracing
// extension (nil when the sender had no stamp).
func decodeEnvelope(data []byte) (*envelope, *wirecodec.Ext, error) {
	d := wirecodec.NewDec(data)
	e := &envelope{Kind: int(d.Int())}
	if d.Bool() {
		ann := &announceBody{}
		ann.Name = d.String()
		ann.Pub = d.BigInt()
		ann.Epoch = d.Uvarint()
		ann.Digest = d.Bytes()
		ann.Members = d.Strings()
		ann.Proto = d.String()
		e.Ann = ann
	}
	e.KGA = d.KGAMessage()
	e.Epoch = d.Uvarint()
	e.Frame = d.Bytes()
	if err := d.Close(); err != nil {
		return nil, nil, fmt.Errorf("decode secure envelope: %w", err)
	}
	return e, d.Ext(), nil
}

// keyDigest is the key-confirmation value exchanged in announcements: it
// proves knowledge of the committed secret without revealing it.
func keyDigest(secret []byte, epoch uint64) []byte {
	h := sha256.New()
	h.Write([]byte("secure-spread key confirmation v1"))
	fmt.Fprintf(h, "%d:", epoch)
	h.Write(secret)
	return h.Sum(nil)
}

// suiteContext binds derived data keys to their group and epoch.
func suiteContext(group string, epoch uint64) []byte {
	return []byte(fmt.Sprintf("secure-spread/%s/epoch-%d", group, epoch))
}

// membersEqual compares two member name lists.
func membersEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
