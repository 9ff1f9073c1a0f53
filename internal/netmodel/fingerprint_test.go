package netmodel

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// jsonFingerprint is the reference identity Fingerprint must agree
// with: SHA-256 over the EncodeJSON bytes.
func jsonFingerprint(t testing.TB, n *Network) string {
	t.Helper()
	h := sha256.New()
	if err := n.EncodeJSON(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fpOracle checks Fingerprint against jsonFingerprint over every network
// it is shown: two networks share a fingerprint exactly when their JSON
// bytes are equal, and a network's fingerprint survives a JSON round
// trip.
type fpOracle struct {
	byFP, byJSON map[string]string
}

func newFPOracle() *fpOracle {
	return &fpOracle{byFP: map[string]string{}, byJSON: map[string]string{}}
}

func (o *fpOracle) check(t testing.TB, n *Network) {
	t.Helper()
	fp, js := n.Fingerprint(), jsonFingerprint(t, n)
	if prev, ok := o.byFP[fp]; ok && prev != js {
		t.Fatalf("fingerprint %.16s shared by networks with different JSON", fp)
	}
	if prev, ok := o.byJSON[js]; ok && prev != fp {
		t.Fatalf("networks with equal JSON fingerprint differently: %.16s vs %.16s", prev, fp)
	}
	o.byFP[fp], o.byJSON[js] = js, fp

	var buf bytes.Buffer
	if err := n.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	rb, err := DecodeJSON(&buf)
	if err != nil {
		t.Fatalf("re-decode: %v", err)
	}
	if got := rb.Fingerprint(); got != fp {
		t.Fatalf("fingerprint changed across a JSON round trip: %.16s -> %.16s", fp, got)
	}
}
