package netmodel

import (
	"bytes"
	"strings"
	"testing"
)

// Fuzz targets for the two ingestion parsers: arbitrary input must never
// panic — it either parses into a consistent network or returns an error.
// The seeds double as regression inputs on plain `go test` runs.

func FuzzParseText(f *testing.F) {
	f.Add(sampleText)
	f.Add("family ipv6\ndevice a role=tor\n")
	f.Add("device a\ndevice b\nlink a b 10.0.0.0/31\nroute a 0.0.0.0/0 via b\n")
	f.Add("acl a deny dst=10.0.0.0/8 proto=6 dport=1-9\n")
	f.Add("# comment\n\nroute x 0.0.0.0/0 drop\n")
	f.Add("device a\nedge a p 10.0.0.0/24\nroute a 10.0.0.0/24 out p\n")
	f.Fuzz(func(t *testing.T, in string) {
		n, err := ParseText(strings.NewReader(in))
		if err != nil {
			return
		}
		// A parsed network is internally consistent.
		if !n.MatchSetsComputed() {
			t.Fatal("parsed network not frozen")
		}
		for _, r := range n.Rules {
			_ = r.MatchSet() // must not panic
		}
		// And re-encodable.
		var buf bytes.Buffer
		if err := n.EncodeText(&buf); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
	})
}

func FuzzDecodeJSON(f *testing.F) {
	rich := buildRich(f)
	var seed bytes.Buffer
	rich.EncodeJSON(&seed)
	f.Add(seed.Bytes())
	f.Add([]byte(`{"devices":[{"name":"r","role":"tor"}],"ifaces":[],"rules":[]}`))
	f.Add([]byte(`{"family":"ipv6","devices":[],"ifaces":[],"rules":[]}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, in []byte) {
		n, err := DecodeJSON(bytes.NewReader(in))
		if err != nil {
			return
		}
		for _, r := range n.Rules {
			_ = r.MatchSet()
		}
		var buf bytes.Buffer
		if err := n.EncodeJSON(&buf); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		// The fingerprint is the JSON identity: it matches the seed
		// network's exactly when the JSON does, and round-trips.
		oracle := newFPOracle()
		oracle.check(t, rich)
		oracle.check(t, n)
	})
}
