// Package pki holds the signing identity the paper's security regime
// assumes every "thing" has (Section 4: "a PKI where 'things' have private
// keys and public key certificates"). Today that is one Ed25519 key pair,
// which the simulated TPM in package attest signs its quotes with.
//
// Substitution note (see DESIGN.md): keys are stdlib Ed25519; the
// certificate authority, certificate chains and revocation the paper
// describes are not built, because no running part of the middleware
// consumes them.
package pki
