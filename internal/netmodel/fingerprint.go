package netmodel

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"net/netip"

	"yardstick/internal/hdr"
)

// fingerprintTag opens the hashed bytes of every fingerprint. Bump its
// version whenever the encoding below changes: identities recorded under
// another version (trace checkpoints, job records, delta bases) then
// mismatch cleanly instead of aliasing a different network.
const fingerprintTag = "yardstick-net/v2\x00"

// Fingerprint returns the network's identity: the hex SHA-256 of a
// compact, versioned, canonical binary encoding of its topology and
// rules. It covers exactly what the JSON encoding carries — the address
// family; every device in ID order (name, role, ASN, loopbacks,
// subnets); every interface (device, name, address, peer, external
// flag); and every rule in ID order (device, table, match fields,
// action, out interfaces, transform, origin, deny) — so two networks
// share a fingerprint exactly when their EncodeJSON bytes are equal.
// Rule-ID order is part of the identity because trace marks are keyed
// by rule ID. Derived state (match sets, table evaluation order) is not
// hashed.
//
// Every variable-length field is length-prefixed and every optional
// field is tagged, so no two distinct networks encode to the same bytes.
func (n *Network) Fingerprint() string {
	e := fpEncoder{h: sha256.New(), buf: make([]byte, 0, fpFlushAt+256)}
	e.buf = append(e.buf, fingerprintTag...)
	e.flag(n.Family() == hdr.V6)

	e.uvarint(len(n.Devices))
	for _, d := range n.Devices {
		e.str(d.Name)
		e.str(string(d.Role))
		e.uvarint(int(d.ASN))
		e.prefixes(d.Loopbacks)
		e.prefixes(d.Subnets)
		e.maybeFlush()
	}

	e.uvarint(len(n.Ifaces))
	for _, ifc := range n.Ifaces {
		e.varint(int64(ifc.Device))
		e.str(ifc.Name)
		e.prefix(ifc.Addr)
		e.varint(int64(ifc.Peer))
		e.flag(ifc.External)
		e.maybeFlush()
	}

	e.uvarint(len(n.Rules))
	for _, r := range n.Rules {
		e.rule(r)
		e.maybeFlush()
	}
	return e.sum()
}

// fpFlushAt is the buffered byte count past which the encoder hands its
// buffer to the hash: large enough to amortize the per-Write cost, small
// enough to stay in cache.
const fpFlushAt = 8 << 10

// fpEncoder appends the canonical encoding to a buffer that it streams
// into the hash in fpFlushAt-sized chunks.
type fpEncoder struct {
	h   hash.Hash
	buf []byte
}

func (e *fpEncoder) maybeFlush() {
	if len(e.buf) >= fpFlushAt {
		e.h.Write(e.buf)
		e.buf = e.buf[:0]
	}
}

func (e *fpEncoder) sum() string {
	e.h.Write(e.buf)
	return hex.EncodeToString(e.h.Sum(nil))
}

func (e *fpEncoder) uvarint(v int) { e.buf = binary.AppendUvarint(e.buf, uint64(v)) }

func (e *fpEncoder) varint(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

func (e *fpEncoder) u16(v uint16) { e.buf = binary.LittleEndian.AppendUint16(e.buf, v) }

func (e *fpEncoder) flag(b bool) {
	if b {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

func (e *fpEncoder) str(s string) {
	e.uvarint(len(s))
	e.buf = append(e.buf, s...)
}

// addrBytes appends an address's family tag (0 absent, 4, 6) and bytes.
// IPv4-mapped IPv6 addresses keep tag 6, as their text form does.
func (e *fpEncoder) addrBytes(a netip.Addr) {
	switch {
	case !a.IsValid():
		e.buf = append(e.buf, 0)
	case a.Is4():
		b := a.As4()
		e.buf = append(append(e.buf, 4), b[:]...)
	default:
		b := a.As16()
		e.buf = append(append(e.buf, 6), b[:]...)
	}
}

// prefix encodes a possibly absent prefix; the address bits are kept
// unmasked, as the text form keeps them.
func (e *fpEncoder) prefix(p netip.Prefix) {
	e.addrBytes(p.Addr())
	if p.IsValid() {
		e.buf = append(e.buf, byte(p.Bits()))
	}
}

func (e *fpEncoder) prefixes(ps []netip.Prefix) {
	e.uvarint(len(ps))
	for _, p := range ps {
		e.prefix(p)
	}
}

func (e *fpEncoder) rule(r *Rule) {
	e.varint(int64(r.Device))
	e.buf = append(e.buf, byte(r.Table))

	m := r.Match
	e.prefix(m.DstPrefix)
	e.prefix(m.SrcPrefix)
	// Proto is optional on the wire: any negative value means "any".
	e.flag(m.Proto >= 0)
	if m.Proto >= 0 {
		e.varint(int64(m.Proto))
	}
	e.u16(m.DstPortLo)
	e.u16(m.DstPortHi)
	e.u16(m.SrcPortLo)
	e.u16(m.SrcPortHi)

	e.buf = append(e.buf, byte(r.Action.Kind))
	// Only forward actions carry out interfaces, as on the wire.
	if r.Action.Kind == ActForward {
		e.uvarint(len(r.Action.OutIfaces))
		for _, out := range r.Action.OutIfaces {
			e.varint(int64(out))
		}
	} else {
		e.uvarint(0)
	}
	tr := r.Action.Transform
	e.flag(tr != nil)
	if tr != nil {
		e.flag(tr.RewriteDst)
		e.flag(tr.RewriteSrc)
		e.addrBytes(tr.Addr)
		e.str(tr.Addr.Zone())
	}

	e.str(string(r.Origin))
	e.flag(r.Deny)
}
