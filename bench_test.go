// Benchmarks regenerating the paper's evaluation artifacts. One benchmark
// per figure, plus micro-benchmarks for the pieces whose cost the paper
// discusses (tracking calls, covered-set computation, path enumeration).
//
//	go test -bench=. -benchmem
//
// Figure 8's tracked-vs-baseline comparison appears here as paired
// sub-benchmarks (…/tracking=off vs …/tracking=on); Figure 9's metric
// timings as one sub-benchmark per metric. Larger fat-trees than the
// defaults can be driven through cmd/experiments.
package yardstick_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"bytes"
	"yardstick"

	"yardstick/internal/core"
	"yardstick/internal/dataplane"
	"yardstick/internal/delta"
	"yardstick/internal/experiments"
	"yardstick/internal/netmodel"
	"yardstick/internal/probegen"
	"yardstick/internal/sharded"
	"yardstick/internal/testkit"
	"yardstick/internal/topogen"
)

// Networks are expensive to build; cache them per configuration. The BDD
// caches they carry warm up during the first iterations, which
// b.ResetTimer-guarded warmup runs absorb.
var (
	netMu    sync.Mutex
	fatTrees = map[int]*topogen.FatTree{}
	regional *topogen.Regional
)

func fatTree(b *testing.B, k int) *topogen.FatTree {
	b.Helper()
	netMu.Lock()
	defer netMu.Unlock()
	if ft, ok := fatTrees[k]; ok {
		return ft
	}
	ft, err := topogen.BuildFatTree(k)
	if err != nil {
		b.Fatal(err)
	}
	fatTrees[k] = ft
	return ft
}

func regionalNet(b *testing.B) *topogen.Regional {
	b.Helper()
	netMu.Lock()
	defer netMu.Unlock()
	if regional == nil {
		rg, err := topogen.BuildRegional(topogen.RegionalOpts{})
		if err != nil {
			b.Fatal(err)
		}
		regional = rg
	}
	return regional
}

// BenchmarkFigure6 runs each case-study panel: suite execution plus the
// by-role metric computation.
func BenchmarkFigure6(b *testing.B) {
	rg := regionalNet(b)
	panels := []struct {
		name  string
		suite testkit.Suite
	}{
		{"6a-original", experiments.OriginalSuite()},
		{"6b-internal", testkit.Suite{testkit.InternalRouteCheck{}}},
		{"6c-connected", testkit.Suite{testkit.ConnectedRouteCheck{}}},
		{"6d-final", experiments.FinalSuite()},
	}
	for _, p := range panels {
		b.Run(p.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				experiments.Figure6(context.Background(), rg, p.name, p.suite)
			}
		})
	}
}

// BenchmarkFigure7 measures the three suite iterations with aggregate
// metrics.
func BenchmarkFigure7(b *testing.B) {
	rg := regionalNet(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Figure7(context.Background(), rg)
	}
}

// BenchmarkFigure8 is the tracking-overhead comparison: each §8 test type
// with tracking off (core.Nop) and on (core.Trace), per fat-tree size.
func BenchmarkFigure8(b *testing.B) {
	for _, k := range []int{4, 8} {
		ft := fatTree(b, k)
		for _, test := range experiments.Figure8Tests() {
			test.Run(ft.Net, core.Nop{}) // warm caches
			b.Run(fmt.Sprintf("%s/k=%d/tracking=off", test.Name(), k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					test.Run(ft.Net, core.Nop{})
				}
			})
			b.Run(fmt.Sprintf("%s/k=%d/tracking=on", test.Name(), k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					test.Run(ft.Net, core.NewTrace())
				}
			})
		}
	}
}

// BenchmarkFigure9 times each metric computed from a realistic trace.
func BenchmarkFigure9(b *testing.B) {
	for _, k := range []int{4, 8} {
		ft := fatTree(b, k)
		trace := core.NewTrace()
		for _, test := range experiments.Figure8Tests() {
			test.Run(ft.Net, trace)
		}
		metrics := []struct {
			name string
			f    func(c *core.Coverage)
		}{
			{"device", func(c *core.Coverage) { core.DeviceCoverage(c, nil, core.Fractional) }},
			{"interface", func(c *core.Coverage) { core.InterfaceCoverage(c, nil, core.Fractional) }},
			{"rule", func(c *core.Coverage) { core.RuleCoverage(c, nil, core.Fractional) }},
			{"path", func(c *core.Coverage) {
				core.PathCoverage(context.Background(), c, nil, dataplane.EnumOpts{MaxPaths: 100000}, core.Fractional)
			}},
		}
		for _, m := range metrics {
			b.Run(fmt.Sprintf("%s/k=%d", m.name, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					// A fresh Coverage per iteration so per-rule caches
					// don't turn later iterations into no-ops.
					m.f(core.NewCoverage(ft.Net, trace))
				}
			})
		}
	}
}

// BenchmarkMarkPacket measures the online tracking call itself — the §5.1
// API whose overhead Figure 8 bounds.
func BenchmarkMarkPacket(b *testing.B) {
	ft := fatTree(b, 4)
	trace := core.NewTrace()
	sets := make([]yardstick.Set, 64)
	for i := range sets {
		tor := ft.ToRs[i%len(ft.ToRs)]
		sets[i] = ft.Net.Space.DstPrefix(ft.HostPrefix[tor])
	}
	loc := dataplane.Injected(ft.ToRs[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trace.MarkPacket(loc, sets[i%len(sets)])
	}
}

// BenchmarkCoveredSets measures Algorithm 1 over a full network.
func BenchmarkCoveredSets(b *testing.B) {
	ft := fatTree(b, 8)
	trace := core.NewTrace()
	testkit.ToRReachability{}.Run(ft.Net, trace)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := core.NewCoverage(ft.Net, trace)
		for _, r := range ft.Net.Rules {
			c.Covered(r.ID)
		}
	}
}

// BenchmarkPathEnumeration measures the §5.2 Step 3 DFS on its own.
func BenchmarkPathEnumeration(b *testing.B) {
	ft := fatTree(b, 6)
	starts := dataplane.EdgeStarts(ft.Net)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, _ := dataplane.EnumeratePaths(context.Background(), ft.Net, starts, dataplane.EnumOpts{}, func(dataplane.Path) bool { return true })
		if n == 0 {
			b.Fatal("no paths")
		}
	}
}

// BenchmarkBGPConvergence measures the control-plane substrate.
func BenchmarkBGPConvergence(b *testing.B) {
	for _, k := range []int{4, 8} {
		b.Run(fmt.Sprintf("fattree/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := topogen.BuildFatTree(k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationFamily compares per-family costs: the same regional
// workload in the 104-bit IPv4 space vs the 296-bit IPv6 space.
func BenchmarkAblationFamily(b *testing.B) {
	opts := topogen.RegionalOpts{DCs: 1, PodsPerDC: 1, ToRsPerPod: 2, AggsPerPod: 2,
		SpinesPerDC: 2, Hubs: 2, WANHubs: 1, WANPrefixes: 4}
	for _, v6 := range []bool{false, true} {
		o := opts
		o.IPv6 = v6
		name := "family=v4"
		if v6 {
			name = "family=v6"
		}
		b.Run(name+"/build", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := topogen.BuildRegional(o); err != nil {
					b.Fatal(err)
				}
			}
		})
		rg, err := topogen.BuildRegional(o)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name+"/suite", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				trace := core.NewTrace()
				testkit.Suite{testkit.DefaultRouteCheck{}, testkit.InternalRouteCheck{}}.Run(context.Background(), rg.Net, trace)
				core.RuleCoverage(core.NewCoverage(rg.Net, trace), nil, core.Fractional)
			}
		})
	}
}

// BenchmarkTraceJSON measures trace persistence round trips.
func BenchmarkTraceJSON(b *testing.B) {
	ft := fatTree(b, 6)
	trace := core.NewTrace()
	testkit.ToRReachability{}.Run(ft.Net, trace)
	var buf bytes.Buffer
	if err := trace.EncodeJSON(&buf); err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var w bytes.Buffer
			if err := trace.EncodeJSON(&w); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.DecodeTraceJSON(ft.Net, bytes.NewReader(buf.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSuiteParallel measures the sharded evaluation engine on the
// regional Clos network: the full built-in suite run sequentially and
// through worker pools of 1, 2, and 4. Engine construction (replica
// building) happens outside the timer — the steady-state cost of a
// long-lived pool is what matters for the service deployment. Speedup
// over sequential requires real cores; `make bench` records the host
// core count next to each number so results are interpretable (on a
// single-core host the workers=N variants only add merge overhead).
func BenchmarkSuiteParallel(b *testing.B) {
	ctx := context.Background()
	suite, err := testkit.BuiltinSuite("default,connected,internal,agg,contract,reach,pingmesh,host")
	if err != nil {
		b.Fatal(err)
	}

	b.Run("sequential", func(b *testing.B) {
		rg, err := topogen.BuildRegional(topogen.RegionalOpts{})
		if err != nil {
			b.Fatal(err)
		}
		suite.Run(ctx, rg.Net, core.NewTrace()) // warm BDD caches
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			suite.Run(ctx, rg.Net, core.NewTrace())
		}
	})

	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			rg, err := topogen.BuildRegional(topogen.RegionalOpts{})
			if err != nil {
				b.Fatal(err)
			}
			// Build nil → the default arena-clone replicator.
			eng, err := sharded.New(ctx, rg.Net, sharded.Config{Workers: w})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := eng.Run(ctx, suite); err != nil { // warm replica caches
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Run(ctx, suite); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSnapshotClone measures the O(size) snapshot-clone primitives
// the sharded engine builds its replicas from: the raw bdd.Manager copy,
// the full netmodel.Network clone (manager copy plus topology tables,
// match sets carried by index), and — for contrast — the JSON replica
// rebuild the clone replaced. The manager is sized by a real workload
// first (the regional suite), so the copy moves production-shaped
// tables, not an empty arena.
func BenchmarkSnapshotClone(b *testing.B) {
	ctx := context.Background()
	rg, err := topogen.BuildRegional(topogen.RegionalOpts{})
	if err != nil {
		b.Fatal(err)
	}
	suite, err := testkit.BuiltinSuite("default,connected,internal,agg")
	if err != nil {
		b.Fatal(err)
	}
	suite.Run(ctx, rg.Net, core.NewTrace()) // grow the manager to working size
	rg.Net.ComputeMatchSets()

	b.Run("manager", func(b *testing.B) {
		m := rg.Net.Space.Manager()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Clone()
		}
	})
	b.Run("network", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rg.Net.Clone()
		}
	})
	b.Run("json-rebuild", func(b *testing.B) {
		build := sharded.JSONReplicator(rg.Net)
		for i := 0; i < b.N; i++ {
			if _, err := build(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// cloneStructure rebuilds a network's devices and rules through the
// public builder API without computing match sets — every topogen and
// decode path computes them eagerly, and ComputeMatchSets is one-shot,
// so benchmarks need a virgin copy per iteration.
func cloneStructure(src *netmodel.Network) *netmodel.Network {
	n := netmodel.NewFamily(src.Family())
	for _, d := range src.Devices {
		id := n.AddDevice(d.Name, d.Role, d.ASN)
		for _, ifID := range d.Ifaces {
			n.AddIface(id, src.Iface(ifID).Name)
		}
	}
	for _, r := range src.Rules {
		if r.Table == netmodel.TableACL {
			n.AddACLRule(r.Device, r.Match, r.Deny)
		} else {
			n.AddFIBRule(r.Device, r.Match, r.Action, r.Origin)
		}
	}
	return n
}

// BenchmarkComputeMatchSets measures the match-set derivation kernel on
// a fat-tree: every rule's raw BDD plus the first-match-wins Diff chain.
func BenchmarkComputeMatchSets(b *testing.B) {
	ft := fatTree(b, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		net := cloneStructure(ft.Net)
		b.StartTimer()
		net.ComputeMatchSets()
	}
}

// BenchmarkProbeGeneration measures the ATPG-style gap-closing pass.
func BenchmarkProbeGeneration(b *testing.B) {
	ft := fatTree(b, 4)
	cov := core.NewCoverage(ft.Net, core.NewTrace())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		probegen.Generate(context.Background(), core.NewCoverage(ft.Net, core.NewTrace()), probegen.Options{})
	}
	_ = cov
}

// BenchmarkChurn is the incremental-evaluation headline: the cost of
// absorbing a single-rule delta on the regional Clos through the delta
// engine versus the full re-evaluation it replaces (decode the wire
// bytes into a fresh BDD space and re-derive every match set). The
// delta path re-derives one device's tables; the rebuild re-derives
// ~2000 rules' worth.
func BenchmarkChurn(b *testing.B) {
	b.Run("delta-single-rule", func(b *testing.B) {
		rg, err := topogen.BuildRegional(topogen.RegionalOpts{})
		if err != nil {
			b.Fatal(err)
		}
		eng, err := delta.NewEngine(rg.Net, core.NewTrace())
		if err != nil {
			b.Fatal(err)
		}
		// Alternate one FIB route between two targets so every
		// iteration commits a real modification.
		spec := rg.Net.RuleSpecOf(1)
		dsts := [2]string{"10.250.0.0/16", "10.251.0.0/16"}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			spec.Match.Dst = dsts[i%2]
			if _, err := eng.Apply(delta.Document{Ops: []delta.Op{
				{Op: delta.OpModify, Rule: 1, Spec: &spec},
			}}); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("rebuild", func(b *testing.B) {
		rg, err := topogen.BuildRegional(topogen.RegionalOpts{})
		if err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rg.Net.EncodeJSON(&buf); err != nil {
			b.Fatal(err)
		}
		raw := buf.Bytes()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			net, err := netmodel.DecodeJSON(bytes.NewReader(raw))
			if err != nil {
				b.Fatal(err)
			}
			net.ComputeMatchSets()
		}
	})
}

// fingerprintSink keeps BenchmarkFingerprint's result live.
var fingerprintSink string

// BenchmarkFingerprint measures the network identity every PATCH
// /network returns as the next delta's base, on the regional Clos.
func BenchmarkFingerprint(b *testing.B) {
	net := regionalNet(b).Net
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fingerprintSink = net.Fingerprint()
	}
}
