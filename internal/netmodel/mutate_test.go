package netmodel

import (
	"bytes"
	"math/rand"
	"net/netip"
	"testing"

	"yardstick/internal/bdd"
)

// buildMutable builds a two-device network with overlapping FIBs and an
// ACL, frozen and ready for mutation.
func buildMutable(t *testing.T) (*Network, DeviceID, DeviceID) {
	t.Helper()
	n := New()
	a := n.AddDevice("a", RoleToR, 1)
	b := n.AddDevice("b", RoleSpine, 2)
	aOut := n.AddIface(a, "up")
	bOut := n.AddIface(b, "up")
	aFwd := Action{Kind: ActForward, OutIfaces: []IfaceID{aOut}}
	bFwd := Action{Kind: ActForward, OutIfaces: []IfaceID{bOut}}
	n.AddFIBRule(a, MatchDst(p(t, "0.0.0.0/0")), aFwd, OriginDefault)
	n.AddFIBRule(a, MatchDst(p(t, "10.0.0.0/8")), aFwd, OriginInternal)
	n.AddFIBRule(a, MatchDst(p(t, "10.1.0.0/16")), aFwd, OriginInternal)
	n.AddACLRule(a, MatchDst(p(t, "192.168.0.0/16")), true)
	n.AddFIBRule(b, MatchDst(p(t, "0.0.0.0/0")), bFwd, OriginDefault)
	n.AddFIBRule(b, MatchDst(p(t, "172.16.0.0/12")), bFwd, OriginStatic)
	n.ComputeMatchSets()
	return n, a, b
}

func encodeNet(t *testing.T, n *Network) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := n.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// rebuildJSON rebuilds the network from scratch in a fresh space via its
// own JSON encoding — the from-scratch baseline every mutation must be
// equivalent to.
func rebuildJSON(t *testing.T, n *Network) *Network {
	t.Helper()
	rb, err := DecodeJSON(bytes.NewReader(encodeNet(t, n)))
	if err != nil {
		t.Fatal(err)
	}
	rb.ComputeMatchSets()
	return rb
}

// assertRebuildEquivalent checks the incremental network against its
// from-scratch rebuild: identical JSON (IDs are a fixed point of the
// encoding) and bit-identical per-rule match sets across spaces.
func assertRebuildEquivalent(t *testing.T, live *Network) {
	t.Helper()
	rb := rebuildJSON(t, live)
	if !bytes.Equal(encodeNet(t, live), encodeNet(t, rb)) {
		t.Fatal("JSON round-trip of mutated network is not a fixed point")
	}
	if len(rb.Rules) != len(live.Rules) {
		t.Fatalf("rebuild has %d rules, live %d", len(rb.Rules), len(live.Rules))
	}
	for _, r := range live.Rules {
		want := rb.Rule(r.ID).MatchSet().TransferTo(live.Space)
		if !r.MatchSet().Equal(want) {
			t.Fatalf("rule %d (dev %d): incremental match set differs from rebuild", r.ID, r.Device)
		}
	}
}

func TestMutationRemoveCompactsIDs(t *testing.T) {
	n, a, _ := buildMutable(t)
	before := len(n.Rules)
	mut := n.BeginMutation()
	if err := mut.Remove(1); err != nil {
		t.Fatal(err)
	}
	res, err := mut.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Rules) != before-1 {
		t.Fatalf("rules = %d, want %d", len(n.Rules), before-1)
	}
	if res.Remap[1] != NoRule {
		t.Errorf("removed rule remap = %d, want NoRule", res.Remap[1])
	}
	if res.Remap[0] != 0 || res.Remap[2] != 1 || res.Remap[before-1] != RuleID(before-2) {
		t.Errorf("compaction remap wrong: %v", res.Remap)
	}
	for i, r := range n.Rules {
		if r.ID != RuleID(i) {
			t.Fatalf("rule at index %d has ID %d", i, r.ID)
		}
	}
	if len(res.Touched) != 1 || res.Touched[0] != a {
		t.Errorf("touched = %v, want [%d]", res.Touched, a)
	}
	assertRebuildEquivalent(t, n)
}

func TestMutationAddAndModify(t *testing.T) {
	n, a, b := buildMutable(t)
	mut := n.BeginMutation()
	// Narrow the 10/8 route (rule 1) and add a more-specific on b.
	def := RuleDef{
		Device: a, Table: TableFIB,
		Match:  MatchDst(p(t, "10.0.0.0/9")),
		Action: n.Rule(1).Action,
		Origin: OriginStatic,
	}
	if err := mut.Modify(1, def); err != nil {
		t.Fatal(err)
	}
	add := RuleDef{
		Device: b, Table: TableFIB,
		Match:  MatchDst(p(t, "172.16.5.0/24")),
		Action: n.Rule(4).Action,
		Origin: OriginInternal,
	}
	if err := mut.Add(add); err != nil {
		t.Fatal(err)
	}
	rm, md, ad := mut.Pending()
	if rm != 0 || md != 1 || ad != 1 {
		t.Fatalf("Pending = %d,%d,%d", rm, md, ad)
	}
	res, err := mut.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Added) != 1 {
		t.Fatalf("Added = %v", res.Added)
	}
	nr := n.Rule(res.Added[0])
	if nr.Device != b || nr.Match.DstPrefix != p(t, "172.16.5.0/24") {
		t.Errorf("added rule wrong: %+v", nr)
	}
	if n.Rule(1).Origin != OriginStatic || n.Rule(1).Match.DstPrefix != p(t, "10.0.0.0/9") {
		t.Errorf("modified rule wrong: %+v", n.Rule(1))
	}
	// The new /24 must have claimed its packets from b's /12.
	sp := n.Space
	if n.Rule(4).ID != 4 {
		t.Fatalf("unexpected compaction: %v", n.Rule(4))
	}
	if n.Rule(5).MatchSet().Overlaps(nr.MatchSet()) {
		t.Error("b's /12 still overlaps the added /24")
	}
	if !nr.MatchSet().Equal(sp.DstPrefix(p(t, "172.16.5.0/24"))) {
		t.Error("added /24 should keep its full prefix (most specific)")
	}
	assertRebuildEquivalent(t, n)
}

func TestMutationUntouchedDeviceKeepsSets(t *testing.T) {
	n, a, b := buildMutable(t)
	// b's rules are untouched by a mutation on a: their set values must
	// survive verbatim (same BDD nodes, not merely equal sets).
	bRules := n.DeviceRules(b)
	type pair struct{ raw, match bdd.Node }
	before := make(map[RuleID]pair)
	for _, id := range bRules {
		r := n.Rule(id)
		before[id] = pair{raw: r.raw.Node(), match: r.match.Node()}
	}
	mut := n.BeginMutation()
	if err := mut.Remove(0); err != nil {
		t.Fatal(err)
	}
	res, err := mut.Commit()
	if err != nil {
		t.Fatal(err)
	}
	for _, dev := range res.Touched {
		if dev == b {
			t.Fatal("b should not be touched")
		}
	}
	for old, want := range before {
		nr := n.Rule(res.Remap[old])
		if nr.raw.Node() != want.raw || nr.match.Node() != want.match {
			t.Fatalf("untouched rule %d: set nodes changed", old)
		}
	}
	_ = a
}

func TestMutationValidation(t *testing.T) {
	n, a, b := buildMutable(t)
	fwd := n.Rule(0).Action
	mut := n.BeginMutation()
	if err := mut.Remove(RuleID(len(n.Rules))); err == nil {
		t.Error("out-of-range remove accepted")
	}
	if err := mut.Remove(0); err != nil {
		t.Fatal(err)
	}
	if err := mut.Remove(0); err == nil {
		t.Error("double remove accepted")
	}
	if err := mut.Modify(0, RuleDef{Device: a, Table: TableFIB, Match: MatchAll(), Action: fwd}); err == nil {
		t.Error("modify of removed rule accepted")
	}
	if err := mut.Modify(1, RuleDef{Device: b, Table: TableFIB, Match: MatchAll(), Action: fwd}); err == nil {
		t.Error("cross-device modify accepted")
	}
	if err := mut.Modify(1, RuleDef{Device: a, Table: TableACL, Match: MatchAll()}); err == nil {
		t.Error("table-change modify accepted")
	}
	if err := mut.Add(RuleDef{Device: DeviceID(99), Table: TableFIB, Match: MatchAll(), Action: fwd}); err == nil {
		t.Error("out-of-range device add accepted")
	}
	if err := mut.Add(RuleDef{Device: b, Table: TableFIB, Match: MatchAll(), Action: Action{Kind: ActForward}}); err == nil {
		t.Error("forward with no out ifaces accepted")
	}
	if err := mut.Add(RuleDef{Device: b, Table: TableFIB, Match: MatchAll(), Action: fwd}); err == nil {
		t.Error("foreign out iface accepted")
	}
	if _, err := mut.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := mut.Remove(0); err == nil {
		t.Error("mutation reusable after commit")
	}
	if _, err := mut.Commit(); err == nil {
		t.Error("double commit accepted")
	}
}

func TestBeginMutationBeforeComputePanics(t *testing.T) {
	n := New()
	n.AddDevice("r", RoleToR, 1)
	defer func() {
		if recover() == nil {
			t.Error("BeginMutation before ComputeMatchSets did not panic")
		}
	}()
	n.BeginMutation()
}

// TestMutationCommitAtomicOnBudgetTrip drives Commit into a BDD budget
// trip and checks the network is untouched: same JSON, every rule still
// frozen with its old sets.
func TestMutationCommitAtomicOnBudgetTrip(t *testing.T) {
	n, a, _ := buildMutable(t)
	before := encodeNet(t, n)
	fwd := n.Rule(0).Action
	mut := n.BeginMutation()
	// New matches the memo has never seen force fresh symbolic work.
	for i := 0; i < 8; i++ {
		if err := mut.Add(RuleDef{
			Device: a, Table: TableFIB,
			Match:  MatchDst(p(t, "10.9.0.0/16")),
			Action: fwd, Origin: OriginStatic,
		}); err != nil {
			t.Fatal(err)
		}
	}
	n.Space.SetLimits(bdd.Limits{MaxOps: 1})
	gerr := bdd.Guard(func() { mut.Commit() })
	n.Space.SetLimits(bdd.Limits{})
	if gerr == nil {
		t.Skip("budget did not trip (all work memoized)")
	}
	if !bytes.Equal(before, encodeNet(t, n)) {
		t.Fatal("network changed despite aborted commit")
	}
	for _, r := range n.Rules {
		if !r.matchOK {
			t.Fatalf("rule %d left unfrozen by aborted commit", r.ID)
		}
	}
	// The network still works: a fresh mutation commits cleanly.
	mut = n.BeginMutation()
	if err := mut.Add(RuleDef{
		Device: a, Table: TableFIB,
		Match:  MatchDst(p(t, "10.9.0.0/16")),
		Action: fwd, Origin: OriginStatic,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := mut.Commit(); err != nil {
		t.Fatal(err)
	}
	assertRebuildEquivalent(t, n)
}

// randomDef generates a valid random FIB or ACL definition for dev.
func randomDef(rng *rand.Rand, n *Network, dev DeviceID) RuleDef {
	if rng.Intn(4) == 0 {
		return randomDefTable(rng, n, dev, TableACL)
	}
	return randomDefTable(rng, n, dev, TableFIB)
}

// randomDefTable is randomDef pinned to a table (what a modify needs).
func randomDefTable(rng *rand.Rand, n *Network, dev DeviceID, table TableKind) RuleDef {
	pf := netip.PrefixFrom(
		netip.AddrFrom4([4]byte{byte(rng.Intn(4) * 64), byte(rng.Intn(256)), 0, 0}),
		rng.Intn(25),
	).Masked()
	if table == TableACL {
		deny := rng.Intn(2) == 0
		act := Action{Kind: ActForward} // permit: continue to FIB
		if deny {
			act = Action{Kind: ActDrop}
		}
		return RuleDef{Device: dev, Table: TableACL, Match: MatchDst(pf), Action: act, Deny: deny, Origin: OriginACL}
	}
	var out []IfaceID
	for _, ifc := range n.Ifaces {
		if ifc.Device == dev {
			out = append(out, ifc.ID)
		}
	}
	act := Action{Kind: ActDrop}
	if len(out) > 0 && rng.Intn(4) > 0 {
		act = Action{Kind: ActForward, OutIfaces: out[:1+rng.Intn(len(out))]}
	}
	return RuleDef{Device: dev, Table: TableFIB, Match: MatchDst(pf), Action: act, Origin: OriginInternal}
}

// TestPropertyMutationEquivalence runs random mutation batches against
// random networks and checks, after every commit, that the incremental
// state is bit-identical to a from-scratch rebuild.
func TestPropertyMutationEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	oracle := newFPOracle()
	for trial := 0; trial < 6; trial++ {
		n := New()
		devs := make([]DeviceID, 2+rng.Intn(3))
		for i := range devs {
			devs[i] = n.AddDevice(string(rune('a'+i)), RoleToR, uint32(i+1))
			n.AddIface(devs[i], "up")
			n.AddIface(devs[i], "down")
		}
		for i := 0; i < 5+rng.Intn(10); i++ {
			dev := devs[rng.Intn(len(devs))]
			def := randomDef(rng, n, dev)
			n.addDef(def)
		}
		n.ComputeMatchSets()

		for step := 0; step < 4; step++ {
			mut := n.BeginMutation()
			used := map[RuleID]bool{}
			for op := 0; op < 1+rng.Intn(4); op++ {
				switch k := rng.Intn(3); {
				case k == 0 && len(n.Rules) > 0:
					id := RuleID(rng.Intn(len(n.Rules)))
					if !used[id] {
						used[id] = true
						if err := mut.Remove(id); err != nil {
							t.Fatal(err)
						}
					}
				case k == 1 && len(n.Rules) > 0:
					id := RuleID(rng.Intn(len(n.Rules)))
					if !used[id] {
						used[id] = true
						old := n.Rule(id)
						def := randomDefTable(rng, n, old.Device, old.Table)
						if err := mut.Modify(id, def); err != nil {
							t.Fatal(err)
						}
					}
				default:
					def := randomDef(rng, n, devs[rng.Intn(len(devs))])
					if err := mut.Add(def); err != nil {
						t.Fatal(err)
					}
				}
			}
			if _, err := mut.Commit(); err != nil {
				t.Fatal(err)
			}
			assertRebuildEquivalent(t, n)
			oracle.check(t, n)
		}
	}
}

// TestPropertyMemoNeverStale is the match-memo staleness check: after a
// mutation batch, every rule's cached raw set must equal a from-scratch
// evaluation of its match, and every disjoint set must equal a fresh
// claimed-union walk — i.e. memo hits during incremental re-derivation
// never served a set for the wrong match value.
func TestPropertyMemoNeverStale(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n, a, b := buildMutable(t)
	devs := []DeviceID{a, b}
	for step := 0; step < 8; step++ {
		mut := n.BeginMutation()
		if len(n.Rules) > 0 && rng.Intn(2) == 0 {
			id := RuleID(rng.Intn(len(n.Rules)))
			old := n.Rule(id)
			def := randomDefTable(rng, n, old.Device, old.Table)
			if err := mut.Modify(id, def); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := mut.Add(randomDef(rng, n, devs[rng.Intn(2)])); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := mut.Commit(); err != nil {
			t.Fatal(err)
		}
		for _, d := range n.Devices {
			for _, order := range [][]RuleID{d.ACL, d.FIB} {
				claimed := n.Space.Empty()
				for i, id := range order {
					r := n.Rules[id]
					fresh := r.Match.Set(n.Space) // bypasses the memo
					if !fresh.Equal(r.raw) {
						t.Fatalf("step %d: rule %d raw set is stale", step, id)
					}
					want := fresh
					if i > 0 {
						want = fresh.Diff(claimed)
					}
					if !want.Equal(r.match) {
						t.Fatalf("step %d: rule %d disjoint set is stale", step, id)
					}
					claimed = claimed.Union(fresh)
				}
			}
		}
	}
}

func TestCloneTopology(t *testing.T) {
	n, a, _ := buildMutable(t)
	clone := n.CloneTopology()
	if clone.Family() != n.Family() {
		t.Fatal("family mismatch")
	}
	if len(clone.Devices) != len(n.Devices) || len(clone.Ifaces) != len(n.Ifaces) {
		t.Fatalf("topology size mismatch: %d/%d devices, %d/%d ifaces",
			len(clone.Devices), len(n.Devices), len(clone.Ifaces), len(n.Ifaces))
	}
	for i, d := range n.Devices {
		cd := clone.Devices[i]
		if cd.Name != d.Name || cd.Role != d.Role || cd.ASN != d.ASN {
			t.Fatalf("device %d mismatch: %+v vs %+v", i, cd, d)
		}
	}
	for i, ifc := range n.Ifaces {
		ci := clone.Ifaces[i]
		if ci.Device != ifc.Device || ci.Name != ifc.Name || ci.Peer != ifc.Peer ||
			ci.Addr != ifc.Addr || ci.External != ifc.External {
			t.Fatalf("iface %d mismatch: %+v vs %+v", i, ci, ifc)
		}
	}
	if len(clone.Rules) != 0 {
		t.Fatalf("clone has %d rules, want 0", len(clone.Rules))
	}
	if clone.Space == n.Space {
		t.Fatal("clone shares the original's space")
	}
	// The clone is unfrozen: rules can be installed and frozen anew.
	clone.AddFIBRule(a, MatchAll(), Action{Kind: ActDrop}, OriginStatic)
	clone.ComputeMatchSets()
}
