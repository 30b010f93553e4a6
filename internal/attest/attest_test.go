package attest

import (
	"errors"
	"testing"
)

func mustTPM(t *testing.T, id string) *TPM {
	t.Helper()
	tpm, err := NewTPM(id)
	if err != nil {
		t.Fatal(err)
	}
	return tpm
}

func TestPCRExtendChangesValue(t *testing.T) {
	tpm := mustTPM(t, "dev")
	before, err := tpm.PCR(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tpm.Extend(0, []byte("bootloader-v1")); err != nil {
		t.Fatal(err)
	}
	after, err := tpm.PCR(0)
	if err != nil {
		t.Fatal(err)
	}
	if before == after {
		t.Fatal("Extend did not change PCR")
	}
	// Extension is order-sensitive: same measurements, different order,
	// different result.
	a := mustTPM(t, "a")
	b := mustTPM(t, "b")
	_ = a.Extend(1, []byte("x"))
	_ = a.Extend(1, []byte("y"))
	_ = b.Extend(1, []byte("y"))
	_ = b.Extend(1, []byte("x"))
	av, _ := a.PCR(1)
	bv, _ := b.PCR(1)
	if av == bv {
		t.Fatal("PCR extension is not order-sensitive")
	}
}

func TestPCRRangeChecks(t *testing.T) {
	tpm := mustTPM(t, "dev")
	if err := tpm.Extend(-1, nil); err == nil {
		t.Fatal("negative pcr accepted")
	}
	if err := tpm.Extend(NumPCRs, nil); err == nil {
		t.Fatal("out-of-range pcr accepted")
	}
	if _, err := tpm.PCR(NumPCRs); err == nil {
		t.Fatal("out-of-range read accepted")
	}
	if _, err := tpm.GenerateQuote(1, []int{NumPCRs}); err == nil {
		t.Fatal("out-of-range quote accepted")
	}
}

func TestRemoteAttestationRound(t *testing.T) {
	tpm := mustTPM(t, "ann-device")
	_ = tpm.Extend(0, []byte("firmware-v7"))
	goodPCR, _ := tpm.PCR(0)

	v := NewVerifier(1)
	v.Enroll("ann-device", tpm.EndorsementKey())

	policy := Policy{ExpectedPCRs: map[int][32]byte{0: goodPCR}}
	if err := v.Attest(tpm, []int{0}, policy); err != nil {
		t.Fatalf("attestation failed: %v", err)
	}

	// Platform compromise: firmware changed, measurement mismatch.
	_ = tpm.Extend(0, []byte("malware"))
	if err := v.Attest(tpm, []int{0}, policy); !errors.Is(err, ErrMeasurement) {
		t.Fatalf("compromised platform = %v, want ErrMeasurement", err)
	}
}

func TestAttestationRejectsUnknownDeviceAndReplay(t *testing.T) {
	tpm := mustTPM(t, "dev")
	v := NewVerifier(1)

	// Unknown device.
	nonce := v.Challenge("dev")
	q, err := tpm.GenerateQuote(nonce, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Validate(q, Policy{}); err == nil {
		t.Fatal("unknown device accepted")
	}

	v.Enroll("dev", tpm.EndorsementKey())
	if err := v.Validate(q, Policy{}); err != nil {
		t.Fatal(err)
	}
	// Replaying the same quote must fail: the nonce was consumed.
	if err := v.Validate(q, Policy{}); !errors.Is(err, ErrStaleNonce) {
		t.Fatalf("replay = %v, want ErrStaleNonce", err)
	}
}

func TestAttestationRejectsForgedQuote(t *testing.T) {
	tpm := mustTPM(t, "dev")
	imposter := mustTPM(t, "dev") // same ID, different key
	v := NewVerifier(1)
	v.Enroll("dev", tpm.EndorsementKey())

	nonce := v.Challenge("dev")
	forged, err := imposter.GenerateQuote(nonce, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Validate(forged, Policy{}); !errors.Is(err, ErrBadQuote) {
		t.Fatalf("forged quote = %v, want ErrBadQuote", err)
	}
}

func TestGeofencePolicy(t *testing.T) {
	tpm := mustTPM(t, "eu-server")
	v := NewVerifier(1)
	v.Enroll("eu-server", tpm.EndorsementKey())

	// Uncertified platform fails an EU-only policy.
	if err := v.Attest(tpm, nil, Policy{Region: "eu"}); !errors.Is(err, ErrNoSuchRegion) {
		t.Fatalf("uncertified platform = %v, want ErrNoSuchRegion", err)
	}
	tpm.CertifyRegion("eu")
	if err := v.Attest(tpm, nil, Policy{Region: "eu"}); err != nil {
		t.Fatalf("certified platform rejected: %v", err)
	}
	if err := v.Attest(tpm, nil, Policy{Region: "us"}); !errors.Is(err, ErrNoSuchRegion) {
		t.Fatalf("wrong region = %v, want ErrNoSuchRegion", err)
	}
}
