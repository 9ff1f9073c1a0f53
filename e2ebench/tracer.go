package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"yardstick/internal/obs"
)

// tracer keeps a traced run's span trees in memory and writes them
// once, at the end. Each benchmark operation is one obs span tree: a
// root tagged with the operation's run ID, one child per call the
// benchmark makes into a layer, and beneath those the spans the program
// itself exposes, grafted in with Attach. A nil tracer is tracing off:
// begin returns a nil span and obs spans are nil-safe, so untraced
// operations run the same code path.
type tracer struct {
	mu  sync.Mutex
	ops []*obs.SpanProfile
}

func newTracer() *tracer { return &tracer{} }

// begin starts the root span of one operation.
func (t *tracer) begin(name, run string) *obs.Span {
	if t == nil {
		return nil
	}
	s := obs.NewSpan(name)
	s.SetTag("run", run)
	return s
}

// finish ends an operation's root span and keeps its profile, which it
// returns so harvested spans can be grafted in (nil when tracing is off).
func (t *tracer) finish(s *obs.Span) *obs.SpanProfile {
	if t == nil || s == nil {
		return nil
	}
	s.End()
	p := s.Profile()
	t.keep(p)
	return p
}

// keep stores a finished span tree.
func (t *tracer) keep(p *obs.SpanProfile) {
	if t == nil || p == nil {
		return
	}
	t.mu.Lock()
	t.ops = append(t.ops, p)
	t.mu.Unlock()
}

// timed runs fn in a child span of parent and returns how long fn took
// (measured with tracing off too).
func timed(parent *obs.Span, name string, fn func()) time.Duration {
	sp := parent.Child(name)
	start := time.Now()
	fn()
	d := time.Since(start)
	sp.End()
	return d
}

// child returns p's first child named name (nil when there is none).
func child(p *obs.SpanProfile, name string) *obs.SpanProfile {
	if p == nil {
		return nil
	}
	for _, c := range p.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// selfStat aggregates the spans of one name.
type selfStat struct {
	Name    string
	Count   int
	TotalMs float64
	SelfMs  float64
}

// selfTimes sums each span's duration and self time per span name,
// heaviest self time first.
func (t *tracer) selfTimes() []selfStat {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	agg := map[string]*selfStat{}
	for _, op := range t.ops {
		op.Walk(func(_ int, sp *obs.SpanProfile) {
			st := agg[sp.Name]
			if st == nil {
				st = &selfStat{Name: sp.Name}
				agg[sp.Name] = st
			}
			st.Count++
			st.TotalMs += float64(sp.DurNs) / 1e6
			st.SelfMs += float64(selfNs(sp)) / 1e6
		})
	}
	out := make([]selfStat, 0, len(agg))
	for _, st := range agg {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfMs != out[j].SelfMs {
			return out[i].SelfMs > out[j].SelfMs
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// selfNs is p's duration minus the union of its children's intervals
// clipped to p. Concurrent children (shards, dispatches) overlap, so
// summing their durations, as SpanProfile.Self does, would undercount.
func selfNs(p *obs.SpanProfile) int64 {
	type iv struct{ a, b int64 }
	end := p.Start + p.DurNs
	var ivs []iv
	for _, c := range p.Children {
		if c == nil {
			continue
		}
		a, b := max(c.Start, p.Start), min(c.Start+c.DurNs, end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, reach := int64(0), int64(-1<<63)
	for _, v := range ivs {
		if v.a > reach {
			covered += v.b - v.a
			reach = v.b
		} else if v.b > reach {
			covered += v.b - reach
			reach = v.b
		}
	}
	return p.DurNs - covered
}

// write saves every kept span tree, one JSON object a line.
func (t *tracer) write(path string) error {
	if t == nil || path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, op := range t.ops {
		if err := op.EncodeJSON(f); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// printSelf writes the self-time table, heaviest first.
func (t *tracer) printSelf(w io.Writer, limit int) {
	for i, st := range t.selfTimes() {
		if i == limit {
			break
		}
		fmt.Fprintf(w, "  %-40s %6d spans  total %10.1f ms  self %10.1f ms\n", st.Name, st.Count, st.TotalMs, st.SelfMs)
	}
}
