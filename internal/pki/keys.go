package pki

import (
	"crypto/ed25519"
	"crypto/rand"
	"fmt"
)

// A KeyPair is an Ed25519 signing identity.
type KeyPair struct {
	Public  ed25519.PublicKey
	private ed25519.PrivateKey
}

// GenerateKeyPair creates a fresh Ed25519 key pair.
func GenerateKeyPair() (*KeyPair, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("pki: generate key: %w", err)
	}
	return &KeyPair{Public: pub, private: priv}, nil
}

// Sign signs the message with the private key.
func (k *KeyPair) Sign(msg []byte) []byte {
	return ed25519.Sign(k.private, msg)
}
