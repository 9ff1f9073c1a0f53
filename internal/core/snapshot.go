package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"yardstick/internal/netmodel"
)

// Trace snapshots make the accumulate-and-query service model crash
// safe: a daemon periodically writes the accumulated trace together
// with a fingerprint of the network it was recorded against, and on
// restart recovers the trace — but only if the loaded network still
// matches, since rule and location IDs are meaningless against any
// other network.

// ErrSnapshotMismatch is returned by DecodeSnapshot and LoadSnapshot
// when the snapshot was recorded against a different network than the
// one provided. Callers should discard the snapshot and start from an
// empty trace.
var ErrSnapshotMismatch = errors.New("core: snapshot network fingerprint mismatch")

// Fingerprint returns a stable hex digest identifying a network's
// topology and rules: netmodel.Network.Fingerprint. It never fails; the
// error result is kept for existing callers.
func Fingerprint(net *netmodel.Network) (string, error) {
	return net.Fingerprint(), nil
}

type snapshotJSON struct {
	Fingerprint string          `json:"fingerprint"`
	Trace       json.RawMessage `json:"trace"`
}

// EncodeSnapshot writes the trace plus the network's fingerprint.
func EncodeSnapshot(w io.Writer, net *netmodel.Network, t *Trace) error {
	var trace bytes.Buffer
	if err := t.EncodeJSON(&trace); err != nil {
		return fmt.Errorf("core: encode snapshot trace: %w", err)
	}
	return json.NewEncoder(w).Encode(snapshotJSON{
		Fingerprint: net.Fingerprint(),
		Trace:       json.RawMessage(trace.Bytes()),
	})
}

// DecodeSnapshot reads a snapshot recorded against net. It returns
// ErrSnapshotMismatch when the fingerprint does not match net's.
func DecodeSnapshot(r io.Reader, net *netmodel.Network) (*Trace, error) {
	var sj snapshotJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sj); err != nil {
		return nil, fmt.Errorf("core: decode snapshot: %w", err)
	}
	if sj.Fingerprint != net.Fingerprint() {
		return nil, ErrSnapshotMismatch
	}
	return DecodeTraceJSON(net, bytes.NewReader(sj.Trace))
}

// SaveSnapshot atomically writes a JSON snapshot file: the snapshot is
// written to a temporary file in the same directory and renamed into
// place, so a crash mid-write never corrupts the previous snapshot.
func SaveSnapshot(path string, net *netmodel.Network, t *Trace) error {
	return saveAtomic(path, func(w io.Writer) error { return EncodeSnapshot(w, net, t) })
}

// SaveSnapshotArena is SaveSnapshot over the binary arena codec
// (EncodeSnapshotArena): same atomic write, sets persisted as a BDD
// arena instead of cube lists. LoadSnapshot reads either format.
func SaveSnapshotArena(path string, net *netmodel.Network, t *Trace) error {
	return saveAtomic(path, func(w io.Writer) error { return EncodeSnapshotArena(w, net, t) })
}

func saveAtomic(path string, encode func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("core: save snapshot: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := encode(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("core: save snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("core: save snapshot: %w", err)
	}
	return nil
}

// LoadSnapshot reads a snapshot file recorded against net, sniffing the
// codec by magic: arena snapshots (SaveSnapshotArena) decode through
// DecodeSnapshotArena, anything else through the JSON codec. It returns
// fs.ErrNotExist (wrapped) when no snapshot exists and
// ErrSnapshotMismatch when the snapshot belongs to a different network.
func LoadSnapshot(path string, net *netmodel.Network) (*Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if IsSnapshotArena(data) {
		return DecodeSnapshotArena(data, net)
	}
	return DecodeSnapshot(bytes.NewReader(data), net)
}
