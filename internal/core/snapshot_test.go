package core

import (
	"errors"
	"io/fs"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"yardstick/internal/dataplane"
	"yardstick/internal/netmodel"
)

func TestFingerprintStableAndDiscriminating(t *testing.T) {
	cn := buildChain(t)
	fp1, err := Fingerprint(cn.n)
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := Fingerprint(cn.n)
	if err != nil {
		t.Fatal(err)
	}
	if fp1 != fp2 {
		t.Errorf("fingerprint not stable: %s != %s", fp1, fp2)
	}
	if len(fp1) != 64 {
		t.Errorf("fingerprint length = %d, want 64 hex chars", len(fp1))
	}

	fpOther, err := Fingerprint(buildVariantNet(t))
	if err != nil {
		t.Fatal(err)
	}
	if fpOther == fp1 {
		t.Error("different networks should have different fingerprints")
	}

	// Every encoded field, changed alone, changes the fingerprint — and
	// no two such changes collide. In buildFingerprintNet, rule 0 is the
	// ACL entry, rule 1 the ECMP route with a transform, rule 2 the
	// default drop, and rule 3 b's route out the edge interface 4.
	variants := []struct {
		field  string
		change func(*netmodel.Network)
	}{
		{"device name", func(n *netmodel.Network) { n.Devices[0].Name = "z" }},
		{"device role", func(n *netmodel.Network) { n.Devices[0].Role = netmodel.RoleToR }},
		{"device ASN", func(n *netmodel.Network) { n.Devices[0].ASN = 65003 }},
		{"loopback address", func(n *netmodel.Network) { n.Devices[0].Loopbacks[0] = pfx(t, "192.0.2.2/32") }},
		{"loopback length", func(n *netmodel.Network) { n.Devices[0].Loopbacks[0] = pfx(t, "192.0.2.1/31") }},
		{"extra loopback", func(n *netmodel.Network) {
			n.Devices[0].Loopbacks = append(n.Devices[0].Loopbacks, pfx(t, "192.0.2.9/32"))
		}},
		{"subnet listed as loopback", func(n *netmodel.Network) {
			d := n.Devices[1]
			d.Loopbacks, d.Subnets = d.Subnets, nil
		}},
		{"interface device", func(n *netmodel.Network) { n.Ifaces[4].Device = 0 }},
		{"interface name", func(n *netmodel.Network) { n.Ifaces[0].Name = "x" }},
		{"interface address", func(n *netmodel.Network) { n.Ifaces[0].Addr = pfx(t, "10.255.0.2/31") }},
		{"interface address absent", func(n *netmodel.Network) { n.Ifaces[0].Addr = netip.Prefix{} }},
		{"interface peer", func(n *netmodel.Network) { n.Ifaces[4].Peer = 0 }},
		{"interface external", func(n *netmodel.Network) { n.Ifaces[0].External = true }},
		{"rule device", func(n *netmodel.Network) { n.Rules[3].Device = 0 }},
		{"rule table", func(n *netmodel.Network) { n.Rules[2].Table = netmodel.TableACL }},
		{"dst prefix", func(n *netmodel.Network) { n.Rules[2].Match.DstPrefix = pfx(t, "0.0.0.0/1") }},
		{"dst prefix present", func(n *netmodel.Network) { n.Rules[0].Match.DstPrefix = pfx(t, "0.0.0.0/0") }},
		{"src prefix", func(n *netmodel.Network) { n.Rules[0].Match.SrcPrefix = pfx(t, "10.8.0.0/16") }},
		{"protocol", func(n *netmodel.Network) { n.Rules[0].Match.Proto = 17 }},
		{"protocol any", func(n *netmodel.Network) { n.Rules[0].Match.Proto = -1 }},
		{"dst port low", func(n *netmodel.Network) { n.Rules[0].Match.DstPortLo = 21 }},
		{"dst port high", func(n *netmodel.Network) { n.Rules[0].Match.DstPortHi = 24 }},
		{"src port low", func(n *netmodel.Network) { n.Rules[0].Match.SrcPortLo = 1025 }},
		{"src port high", func(n *netmodel.Network) { n.Rules[0].Match.SrcPortHi = 65534 }},
		{"dst and src port ranges swapped", func(n *netmodel.Network) {
			m := &n.Rules[0].Match
			m.DstPortLo, m.DstPortHi, m.SrcPortLo, m.SrcPortHi = m.SrcPortLo, m.SrcPortHi, m.DstPortLo, m.DstPortHi
		}},
		{"action kind", func(n *netmodel.Network) { n.Rules[2].Action.Kind = netmodel.ActDeliver }},
		{"out interface order", func(n *netmodel.Network) {
			out := n.Rules[1].Action.OutIfaces
			out[0], out[1] = out[1], out[0]
		}},
		{"out interface set", func(n *netmodel.Network) { n.Rules[1].Action.OutIfaces = n.Rules[1].Action.OutIfaces[:1] }},
		{"transform absent", func(n *netmodel.Network) { n.Rules[1].Action.Transform = nil }},
		{"transform rewriteDst", func(n *netmodel.Network) { n.Rules[1].Action.Transform.RewriteDst = false }},
		{"transform rewriteSrc", func(n *netmodel.Network) { n.Rules[1].Action.Transform.RewriteSrc = true }},
		{"transform address", func(n *netmodel.Network) {
			n.Rules[1].Action.Transform.Addr = netip.MustParseAddr("10.1.0.10")
		}},
		{"origin", func(n *netmodel.Network) { n.Rules[2].Origin = netmodel.OriginStatic }},
		{"deny", func(n *netmodel.Network) { n.Rules[0].Deny = false }},
		{"rule ID order", func(n *netmodel.Network) {
			n.Rules[2], n.Rules[3] = n.Rules[3], n.Rules[2]
			n.Rules[2].ID, n.Rules[3].ID = 2, 3
		}},
	}
	base, err := Fingerprint(buildFingerprintNet(t))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]string{base: "base"}
	for _, v := range variants {
		n := buildFingerprintNet(t)
		v.change(n)
		fp, err := Fingerprint(n)
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[fp]; dup {
			t.Errorf("changing %s gives the fingerprint of %s", v.field, prev)
		}
		seen[fp] = v.field
	}

	// Boundary cases: the family alone, string boundaries, and an
	// absent versus a present prefix.
	pairs := []struct {
		what string
		a, b func() *netmodel.Network
	}{
		{"address family", netmodel.New, netmodel.NewV6},
		{"device name boundary", func() *netmodel.Network {
			n := netmodel.New()
			n.AddDevice("ab", netmodel.RoleToR, 0)
			n.AddDevice("c", netmodel.RoleToR, 0)
			return n
		}, func() *netmodel.Network {
			n := netmodel.New()
			n.AddDevice("a", netmodel.RoleToR, 0)
			n.AddDevice("bc", netmodel.RoleToR, 0)
			return n
		}},
		{"device name/role boundary", func() *netmodel.Network {
			n := netmodel.New()
			n.AddDevice("ab", "c", 0)
			return n
		}, func() *netmodel.Network {
			n := netmodel.New()
			n.AddDevice("a", "bc", 0)
			return n
		}},
		{"absent vs present prefix", func() *netmodel.Network {
			n := netmodel.New()
			d := n.AddDevice("a", netmodel.RoleToR, 0)
			n.AddFIBRule(d, netmodel.MatchAll(), netmodel.Action{Kind: netmodel.ActDrop}, netmodel.OriginDefault)
			return n
		}, func() *netmodel.Network {
			n := netmodel.New()
			d := n.AddDevice("a", netmodel.RoleToR, 0)
			n.AddFIBRule(d, netmodel.MatchDst(pfx(t, "0.0.0.0/0")), netmodel.Action{Kind: netmodel.ActDrop}, netmodel.OriginDefault)
			return n
		}},
	}
	for _, p := range pairs {
		fa, _ := Fingerprint(p.a())
		fb, _ := Fingerprint(p.b())
		if fa == fb {
			t.Errorf("%s: both sides fingerprint %s", p.what, fa)
		}
	}
}

// buildFingerprintNet is a small network that populates every field the
// fingerprint encodes: loopbacks and subnets, numbered, unnumbered and
// edge interfaces, an ACL entry with protocol, port, and source
// matches, an ECMP route with a transform, and several origins.
func buildFingerprintNet(t testing.TB) *netmodel.Network {
	t.Helper()
	n := netmodel.New()
	a := n.AddDevice("a", netmodel.RoleLeaf, 65001)
	b := n.AddDevice("b", netmodel.RoleSpine, 65002)
	n.Device(a).Loopbacks = []netip.Prefix{pfx(t, "192.0.2.1/32")}
	n.Device(b).Subnets = []netip.Prefix{pfx(t, "10.1.0.0/24")}
	ia, _ := n.Connect(a, b, pfx(t, "10.255.0.0/31"))
	ia2, _ := n.Connect(a, b, netip.Prefix{})
	edge := n.AddEdgeIface(b, "host0", pfx(t, "10.1.0.0/24"))

	acl := netmodel.MatchAll()
	acl.SrcPrefix = pfx(t, "10.9.0.0/16")
	acl.Proto = 6
	acl.DstPortLo, acl.DstPortHi = 22, 23
	acl.SrcPortLo, acl.SrcPortHi = 1024, 65535
	n.AddACLRule(a, acl, true)
	n.AddFIBRule(a, netmodel.MatchDst(pfx(t, "10.1.0.0/24")), netmodel.Action{
		Kind:      netmodel.ActForward,
		OutIfaces: []netmodel.IfaceID{ia, ia2},
		Transform: &netmodel.Transform{RewriteDst: true, Addr: netip.MustParseAddr("10.1.0.9")},
	}, netmodel.OriginInternal)
	n.AddFIBRule(a, netmodel.MatchDst(pfx(t, "0.0.0.0/0")), netmodel.Action{Kind: netmodel.ActDrop}, netmodel.OriginDefault)
	n.AddFIBRule(b, netmodel.MatchDst(pfx(t, "10.1.0.0/24")),
		netmodel.Action{Kind: netmodel.ActForward, OutIfaces: []netmodel.IfaceID{edge}}, netmodel.OriginConnected)
	n.ComputeMatchSets()
	return n
}

// buildVariantNet is a chain like buildChain's but with an extra drop
// rule, so its fingerprint must differ.
func buildVariantNet(t testing.TB) *netmodel.Network {
	t.Helper()
	n := netmodel.New()
	d1 := n.AddDevice("d1", netmodel.RoleLeaf, 1)
	d2 := n.AddDevice("d2", netmodel.RoleSpine, 2)
	i1, _ := n.Connect(d1, d2, pfx(t, "10.255.0.0/31"))
	n.AddFIBRule(d1, netmodel.MatchDst(pfx(t, "10.0.0.0/8")),
		netmodel.Action{Kind: netmodel.ActForward, OutIfaces: []netmodel.IfaceID{i1}}, netmodel.OriginInternal)
	n.AddFIBRule(d2, netmodel.MatchDst(pfx(t, "192.168.0.0/16")),
		netmodel.Action{Kind: netmodel.ActDrop}, netmodel.OriginStatic)
	n.ComputeMatchSets()
	return n
}

func TestSnapshotRoundTrip(t *testing.T) {
	cn := buildChain(t)
	tr := NewTrace()
	tr.MarkRule(cn.r1)
	tr.MarkPacket(dataplane.Injected(cn.d1), cn.n.Space.DstPrefix(pfx(t, "10.0.0.0/16")))

	path := filepath.Join(t.TempDir(), "trace.snap")
	if err := SaveSnapshot(path, cn.n, tr); err != nil {
		t.Fatal(err)
	}

	got, err := LoadSnapshot(path, cn.n)
	if err != nil {
		t.Fatal(err)
	}
	if !got.RuleMarked(cn.r1) {
		t.Error("restored trace lost the marked rule")
	}
	want := tr.PacketsAt(cn.n.Space, dataplane.Injected(cn.d1))
	if !got.PacketsAt(cn.n.Space, dataplane.Injected(cn.d1)).Equal(want) {
		t.Error("restored trace packets differ")
	}

	// Saving again overwrites atomically and leaves no temp files.
	if err := SaveSnapshot(path, cn.n, tr); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("leftover temp file %s", e.Name())
		}
	}
}

func TestSnapshotFingerprintMismatch(t *testing.T) {
	cn := buildChain(t)
	tr := NewTrace()
	tr.MarkRule(cn.r1)
	path := filepath.Join(t.TempDir(), "trace.snap")
	if err := SaveSnapshot(path, cn.n, tr); err != nil {
		t.Fatal(err)
	}

	if _, err := LoadSnapshot(path, buildVariantNet(t)); !errors.Is(err, ErrSnapshotMismatch) {
		t.Errorf("LoadSnapshot against a different network = %v, want ErrSnapshotMismatch", err)
	}
}

func TestLoadSnapshotMissing(t *testing.T) {
	cn := buildChain(t)
	_, err := LoadSnapshot(filepath.Join(t.TempDir(), "absent.snap"), cn.n)
	if !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("LoadSnapshot on missing file = %v, want fs.ErrNotExist", err)
	}
}
