// Package attest simulates the hardware roots of trust the paper leans on
// (Section 4): TPM-style platform configuration registers and quotes,
// remote attestation of a platform's integrity before interaction, and the
// geographical-fencing certification of [44] ("Trustworthy Geographically
// Fenced Hybrid Clouds").
//
// Substitution note (see DESIGN.md): real deployments would use TPM 2.0,
// SGX or TrustZone. The middleware only consumes the *protocol* surface —
// "produce a signed statement binding this platform's identity to its
// measured configuration, fresh for my nonce" — which this package
// reproduces in software with Ed25519 signatures.
package attest

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"lciot/internal/pki"
)

// Errors reported by attestation.
var (
	ErrBadQuote     = errors.New("attest: quote signature invalid")
	ErrStaleNonce   = errors.New("attest: nonce mismatch")
	ErrMeasurement  = errors.New("attest: measurement does not match policy")
	ErrNoSuchRegion = errors.New("attest: platform not certified for region")
)

// NumPCRs is the number of platform configuration registers, matching the
// TPM 1.2 minimum.
const NumPCRs = 24

// A TPM is a simulated trusted platform module: a key that never leaves the
// device and a bank of PCRs extended with code/config measurements.
type TPM struct {
	deviceID string
	keys     *pki.KeyPair

	mu   sync.Mutex
	pcrs [NumPCRs][32]byte
	// region is the geographic region a provisioning authority certified
	// for this platform (empty when uncertified).
	region string
}

// NewTPM manufactures a TPM with a fresh endorsement key.
func NewTPM(deviceID string) (*TPM, error) {
	keys, err := pki.GenerateKeyPair()
	if err != nil {
		return nil, fmt.Errorf("attest: %w", err)
	}
	return &TPM{deviceID: deviceID, keys: keys}, nil
}

// DeviceID returns the platform identifier.
func (t *TPM) DeviceID() string { return t.deviceID }

// EndorsementKey returns the public half of the TPM's identity key, which a
// manufacturer or domain authority certifies out of band.
func (t *TPM) EndorsementKey() ed25519.PublicKey { return t.keys.Public }

// Extend folds a measurement into a PCR: pcr = H(pcr || measurement). This
// is how boot stages and loaded components are recorded.
func (t *TPM) Extend(pcr int, measurement []byte) error {
	if pcr < 0 || pcr >= NumPCRs {
		return fmt.Errorf("attest: pcr %d out of range", pcr)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	h := sha256.New()
	h.Write(t.pcrs[pcr][:])
	h.Write(measurement)
	copy(t.pcrs[pcr][:], h.Sum(nil))
	return nil
}

// PCR returns the current value of a register.
func (t *TPM) PCR(pcr int) ([32]byte, error) {
	if pcr < 0 || pcr >= NumPCRs {
		return [32]byte{}, fmt.Errorf("attest: pcr %d out of range", pcr)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.pcrs[pcr], nil
}

// CertifyRegion records a provisioning authority's geographic certification
// (per [44]); it becomes part of every subsequent quote.
func (t *TPM) CertifyRegion(region string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.region = region
}

// A Quote is a signed statement of platform state, fresh for a verifier's
// nonce.
type Quote struct {
	DeviceID string           `json:"device_id"`
	Nonce    uint64           `json:"nonce"`
	PCRs     map[int][32]byte `json:"pcrs"`
	Region   string           `json:"region,omitempty"`
	IssuedAt time.Time        `json:"issued_at"`
	Sig      []byte           `json:"sig"`
}

// quoteBody serialises the signed portion deterministically.
func quoteBody(q *Quote) []byte {
	// Hash PCRs in index order for determinism.
	h := sha256.New()
	h.Write([]byte(q.DeviceID))
	var nb [8]byte
	binary.BigEndian.PutUint64(nb[:], q.Nonce)
	h.Write(nb[:])
	for i := 0; i < NumPCRs; i++ {
		if v, ok := q.PCRs[i]; ok {
			binary.Write(h, binary.BigEndian, uint32(i)) //nolint:errcheck // hash writes cannot fail
			h.Write(v[:])
		}
	}
	h.Write([]byte(q.Region))
	b, _ := q.IssuedAt.UTC().MarshalBinary() // cannot fail for valid times
	h.Write(b)
	return h.Sum(nil)
}

// GenerateQuote signs the requested PCRs together with the verifier's nonce.
func (t *TPM) GenerateQuote(nonce uint64, pcrs []int) (*Quote, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	q := &Quote{
		DeviceID: t.deviceID,
		Nonce:    nonce,
		PCRs:     make(map[int][32]byte, len(pcrs)),
		Region:   t.region,
		IssuedAt: time.Now(),
	}
	for _, i := range pcrs {
		if i < 0 || i >= NumPCRs {
			return nil, fmt.Errorf("attest: pcr %d out of range", i)
		}
		q.PCRs[i] = t.pcrs[i]
	}
	q.Sig = t.keys.Sign(quoteBody(q))
	return q, nil
}
