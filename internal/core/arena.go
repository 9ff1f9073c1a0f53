// Binary trace snapshots over the BDD arena format.
//
// The JSON snapshot (snapshot.go) serializes packet sets as cube lists —
// exact, but cube extraction can blow up for sets with many disjoint
// cubes, and decoding re-derives every set through full BDD apply
// chains. The arena snapshot instead persists the sets *as a BDD*: the
// per-location sets are extracted into a compact private manager (one
// hdr.Transfer session, so shared structure is stored once), that
// manager's flat node array is dumped via the bdd arena codec, and the
// per-location roots are recorded as plain node indices. Restore decodes
// the arena and transfers the roots back into the live network's space —
// linear in the stored representation, no cube round-trip in either
// direction.
//
// Layout (all integers little-endian):
//
//	offset  size  field
//	0       4     magic "YSS1"
//	4       4     version (currently 1)
//	8       4     fingerprint length F
//	12      F     network fingerprint (netmodel.Network.Fingerprint, hex)
//	…       8     bdd arena length A
//	…       A     bdd arena blob (bdd.AppendArena, self-checksummed)
//	…       4     location count L
//	…       12*L  locations: device i32, iface i32, root u32,
//	              sorted by (device, iface)
//	…       4     rule count R
//	…       4*R   marked rule IDs, i32, ascending
//	…       4     CRC-32 (IEEE) of everything before it
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"

	"yardstick/internal/bdd"
	"yardstick/internal/dataplane"
	"yardstick/internal/hdr"
	"yardstick/internal/netmodel"
)

// Arena snapshot format constants.
const (
	snapMagic   = "YSS1"
	snapVersion = 1
)

// ErrSnapshotFormat marks a structurally invalid arena snapshot: wrong
// magic, truncation, a failed checksum, or indices that do not resolve
// against the network. (A valid snapshot of a *different* network is
// ErrSnapshotMismatch, as with the JSON codec.)
var ErrSnapshotFormat = errors.New("core: invalid arena snapshot")

// IsSnapshotArena reports whether data begins with the arena snapshot
// magic — the sniff LoadSnapshot uses to pick a codec.
func IsSnapshotArena(data []byte) bool {
	return len(data) >= 4 && string(data[:4]) == snapMagic
}

// snapLoc is one encoded location record.
type snapLoc struct {
	dev   netmodel.DeviceID
	iface netmodel.IfaceID
	root  bdd.Node
}

// EncodeSnapshotArena writes the trace plus the network's fingerprint in
// the binary arena format. The set extraction (BDD-manager work, held
// under the trace lock like EncodeJSON's cube extraction) reads net's
// space; the charged transfer work lands on the private extraction
// manager, so a budget installed on net never trips here.
func EncodeSnapshotArena(w io.Writer, net *netmodel.Network, t *Trace) error {
	fp := net.Fingerprint()

	t.mu.Lock()
	locs := make([]dataplane.Loc, 0, len(t.packets))
	for loc := range t.packets {
		locs = append(locs, loc)
	}
	sort.Slice(locs, func(i, j int) bool {
		if locs[i].Device != locs[j].Device {
			return locs[i].Device < locs[j].Device
		}
		return locs[i].Iface < locs[j].Iface
	})
	// Extract the sets into a compact private space: the arena then holds
	// only the nodes the trace actually reaches, not the whole evaluation
	// universe, and shared structure across locations is stored once.
	ex := hdr.NewFamilySpace(net.Family())
	tr := hdr.NewTransfer(net.Space, ex)
	recs := make([]snapLoc, 0, len(locs))
	for _, loc := range locs {
		recs = append(recs, snapLoc{dev: loc.Device, iface: loc.Iface, root: tr.Move(t.packets[loc]).Node()})
	}
	rules := make([]netmodel.RuleID, 0, len(t.rules))
	for r := range t.rules {
		rules = append(rules, r)
	}
	t.mu.Unlock()
	sort.Slice(rules, func(i, j int) bool { return rules[i] < rules[j] })

	am := ex.Manager()
	buf := make([]byte, 0, 4+4+4+len(fp)+8+am.ArenaSize()+4+12*len(recs)+4+4*len(rules)+4)
	buf = append(buf, snapMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, snapVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(fp)))
	buf = append(buf, fp...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(am.ArenaSize()))
	buf = am.AppendArena(buf)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(recs)))
	for _, rec := range recs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(rec.dev))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(rec.iface))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(rec.root))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rules)))
	for _, r := range rules {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(r))
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("core: write arena snapshot: %w", err)
	}
	return nil
}

// DecodeSnapshotArena reads an arena snapshot recorded against net. It
// returns ErrSnapshotMismatch when the fingerprint belongs to another
// network and errors wrapping ErrSnapshotFormat (or the bdd arena
// errors) for damaged input; no input panics. The decoded sets are
// transferred into net's space, charging its budget and observing its
// watched context like any other symbolic work.
func DecodeSnapshotArena(data []byte, net *netmodel.Network) (*Trace, error) {
	// header through fingerprint length, plus the three trailing counts
	// and the CRC.
	if len(data) < 4+4+4+8+4+4+4 {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the minimal snapshot", ErrSnapshotFormat, len(data))
	}
	if !IsSnapshotArena(data) {
		return nil, fmt.Errorf("%w: bad magic %q", ErrSnapshotFormat, data[:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != snapVersion {
		return nil, fmt.Errorf("%w: version %d (want %d)", ErrSnapshotFormat, v, snapVersion)
	}
	if got, sum := binary.LittleEndian.Uint32(data[len(data)-4:]), crc32.ChecksumIEEE(data[:len(data)-4]); got != sum {
		return nil, fmt.Errorf("%w: crc %08x, computed %08x", ErrSnapshotFormat, got, sum)
	}
	rd := &snapReader{data: data[:len(data)-4], off: 8}

	fpLen := rd.u32()
	if fpLen > 1<<10 {
		return nil, fmt.Errorf("%w: fingerprint length %d out of range", ErrSnapshotFormat, fpLen)
	}
	fp := string(rd.bytes(int(fpLen)))
	if rd.short {
		return nil, fmt.Errorf("%w: truncated fingerprint", ErrSnapshotFormat)
	}
	if fp != net.Fingerprint() {
		return nil, ErrSnapshotMismatch
	}

	arenaLen := rd.u64()
	if rd.short || arenaLen > uint64(rd.remaining()) {
		return nil, fmt.Errorf("%w: arena length %d exceeds snapshot", ErrSnapshotFormat, arenaLen)
	}
	am, err := bdd.DecodeArena(rd.bytes(int(arenaLen)))
	if err != nil {
		return nil, fmt.Errorf("core: arena snapshot: %w", err)
	}
	if am.NumVars() != net.Space.NumBits() {
		return nil, fmt.Errorf("%w: arena is %d bits wide, network space is %d", ErrSnapshotFormat, am.NumVars(), net.Space.NumBits())
	}

	nLocs := rd.u32()
	if rd.short || uint64(nLocs)*12 > uint64(rd.remaining()) {
		return nil, fmt.Errorf("%w: location count %d exceeds snapshot", ErrSnapshotFormat, nLocs)
	}
	recs := make([]snapLoc, nLocs)
	for i := range recs {
		recs[i] = snapLoc{
			dev:   netmodel.DeviceID(int32(rd.u32())),
			iface: netmodel.IfaceID(int32(rd.u32())),
			root:  bdd.Node(int32(rd.u32())),
		}
		rec := &recs[i]
		if int(rec.dev) < 0 || int(rec.dev) >= len(net.Devices) {
			return nil, fmt.Errorf("%w: location %d: device %d out of range", ErrSnapshotFormat, i, rec.dev)
		}
		if rec.iface != netmodel.NoIface && (int(rec.iface) < 0 || int(rec.iface) >= len(net.Ifaces)) {
			return nil, fmt.Errorf("%w: location %d: iface %d out of range", ErrSnapshotFormat, i, rec.iface)
		}
		if rec.root < 0 || int(rec.root) >= am.Size() {
			return nil, fmt.Errorf("%w: location %d: root %d outside arena", ErrSnapshotFormat, i, rec.root)
		}
	}
	nRules := rd.u32()
	if rd.short || uint64(nRules)*4 > uint64(rd.remaining()) {
		return nil, fmt.Errorf("%w: rule count %d exceeds snapshot", ErrSnapshotFormat, nRules)
	}
	ruleIDs := make([]netmodel.RuleID, nRules)
	for i := range ruleIDs {
		ruleIDs[i] = netmodel.RuleID(int32(rd.u32()))
		if int(ruleIDs[i]) < 0 || int(ruleIDs[i]) >= len(net.Rules) {
			return nil, fmt.Errorf("%w: rule entry %d: id %d out of range", ErrSnapshotFormat, i, ruleIDs[i])
		}
	}
	if rd.short || rd.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrSnapshotFormat, rd.remaining())
	}

	// Transfer the roots into the live space through one session. Guard:
	// the live manager may carry a budget, and restore work must degrade
	// into an error like any other budgeted evaluation.
	t := NewTrace()
	gerr := bdd.Guard(func() {
		tr := net.Space.Manager().BeginTransfer(am)
		for _, rec := range recs {
			t.MarkPacket(
				dataplane.Loc{Device: rec.dev, Iface: rec.iface},
				net.Space.FromNode(tr.Copy(rec.root)),
			)
		}
	})
	if gerr != nil {
		return nil, fmt.Errorf("core: arena snapshot restore: %w", gerr)
	}
	for _, r := range ruleIDs {
		t.MarkRule(r)
	}
	return t, nil
}

// snapReader is a bounds-tracked cursor over the snapshot payload. A
// read past the end sets short and sticks there, returning zero values;
// decode checks short at every stage boundary, so truncated input is
// always a typed format error, never a panic.
type snapReader struct {
	data  []byte
	off   int
	short bool
}

func (r *snapReader) remaining() int { return len(r.data) - r.off }

func (r *snapReader) take(n int) []byte {
	if r.short || r.remaining() < n {
		r.short = true
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

func (r *snapReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *snapReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *snapReader) bytes(n int) []byte { return r.take(n) }
