// Package delta evaluates coverage incrementally under network churn.
//
// The paper frames coverage as a metric operators track *over time*
// (§3.2, §8): tests run, the network changes, and the interesting
// question is what yesterday's testing still attests about today's
// network. Until now any change replaced the whole network and reset the
// world — replica pool, trace, everything. This package accepts
// rule-level deltas instead: add, remove, or modify rules on a device,
// re-derive only the touched devices' disjoint match sets (through
// netmodel.Mutation, reusing the Match→set memo), carry the surviving
// trace onto the new rule universe, and report per-delta coverage drift
// without re-running a single test.
//
// Trace-transfer semantics: packet marks are keyed by location, which
// survives rule churn, so behavioral coverage persists and re-intersects
// with the new match sets automatically. Rule marks attest a
// state-inspection of a *specific* rule definition — a removed rule's
// mark has nothing to attach to, and a modified rule's mark attests a
// definition that no longer exists — so both are dropped, explicitly,
// and reported as coverage decay (the covered fraction the mark was
// worth). This is the honest reading of §5.1's markRule under churn: the
// inspection happened, but of state the network no longer has.
//
// Correctness bar: applying a delta must leave coverage bit-identical to
// tearing the network down and rebuilding it from scratch (same JSON,
// fresh BDD space, full re-derivation) with the trace transferred over —
// property-tested and fuzzed in this package, including mid-delta budget
// trips, which unwind leaving the network untouched (netmodel.Mutation
// stages all symbolic work before publishing).
package delta

import (
	"errors"
	"fmt"
	"slices"

	"yardstick/internal/bdd"
	"yardstick/internal/core"
	"yardstick/internal/netmodel"
)

// OpKind identifies a delta operation.
type OpKind string

// Delta operations.
const (
	OpAdd    OpKind = "add"    // append a rule (Spec required)
	OpRemove OpKind = "remove" // remove rule Rule (base-network ID)
	OpModify OpKind = "modify" // redefine rule Rule in place (Spec required)
)

// Op is one rule-level change. Rule IDs refer to the *base* network the
// document was computed against — all operations in a document are
// interpreted against that one universe and applied as a single atomic
// batch, so op order within a document does not matter and IDs never
// shift mid-document.
type Op struct {
	Op   OpKind             `json:"op"`
	Rule netmodel.RuleID    `json:"ruleId,omitempty"`
	Spec *netmodel.RuleSpec `json:"rule,omitempty"`
}

// Document is the PATCH /network wire format: a batch of operations plus
// the fingerprint of the network they were computed against. An empty
// Base skips the precondition (library use); over the wire the service
// rejects a stale Base with 409 so a delta never applies to state the
// client didn't see.
type Document struct {
	Base string `json:"base,omitempty"`
	Ops  []Op   `json:"ops"`
}

// BaseMismatchError reports a delta whose base fingerprint does not
// match the live network — the client computed it against stale state.
type BaseMismatchError struct {
	Current string // the live network's fingerprint
	Got     string // the document's base
}

func (e *BaseMismatchError) Error() string {
	return fmt.Sprintf("delta: base fingerprint %.12s… does not match current network %.12s…", e.Got, e.Current)
}

// ErrDriftIncomplete marks an Apply whose mutation committed but whose
// post-apply drift report was cut short (budget trip or cancellation
// during the coverage computation). The returned Applied is valid and
// the network *has* changed — only the drift/decay accounting is
// degraded. Callers treat it like the rest of the degradation model:
// keep the state, surface the incompleteness.
var ErrDriftIncomplete = errors.New("delta: applied, but drift report incomplete")

// LostRule is one dropped rule mark: the coverage decay unit.
type LostRule struct {
	OldID    netmodel.RuleID `json:"oldId"`
	Device   string          `json:"device"`
	Origin   string          `json:"origin"`
	Removed  bool            `json:"removed"` // false: rule modified, mark invalidated
	Fraction float64         `json:"fraction"`
}

// Decay accounts for trace mass lost to the delta: every dropped rule
// mark with the covered fraction it attested (a marked rule's covered
// set is its full match set, so the mark was worth MatchSet fraction).
type Decay struct {
	DroppedMarks int        `json:"droppedMarks"`
	LostFraction float64    `json:"lostFraction"`
	Lost         []LostRule `json:"lost,omitempty"`
}

// DeviceDrift is one touched device's weighted rule coverage before and
// after the delta.
type DeviceDrift struct {
	Device string  `json:"device"`
	Rules  int     `json:"rules"` // rule count after the delta
	Before float64 `json:"before"`
	After  float64 `json:"after"`
}

// Applied reports one delta application.
type Applied struct {
	// Fingerprint is the network's fingerprint after the delta — the
	// base the next delta must carry.
	Fingerprint string   `json:"fingerprint"`
	Added       int      `json:"added"`
	Removed     int      `json:"removed"`
	Modified    int      `json:"modified"`
	Rules       int      `json:"rules"`   // total rules after
	Touched     []string `json:"touched"` // device names re-derived
	// AddedIDs are the new rules' IDs, in op order.
	AddedIDs []netmodel.RuleID `json:"addedIds,omitempty"`
	Decay    Decay             `json:"decay"`
	Drift    []DeviceDrift     `json:"drift,omitempty"`
	// Remap is the old→new rule ID correspondence (NoRule = removed).
	// It is process-local bookkeeping, not wire data.
	Remap []netmodel.RuleID `json:"-"`
}

// Engine owns the incremental state: one live network and the
// accumulated trace recorded against it. Apply mutates both in place.
// An Engine is not safe for concurrent use (it shares the network's
// single-threaded BDD manager).
type Engine struct {
	Net   *netmodel.Network
	Trace *core.Trace
	fp    string
}

// NewEngine wraps a frozen network and its trace, fingerprinting the
// network once. It never fails; the error result is kept for existing
// callers.
func NewEngine(net *netmodel.Network, trace *core.Trace) (*Engine, error) {
	return &Engine{Net: net, Trace: trace, fp: net.Fingerprint()}, nil
}

// ResumeEngine wraps a network whose fingerprint the caller already
// knows (a service that caches it), skipping the re-hash.
func ResumeEngine(net *netmodel.Network, trace *core.Trace, fp string) *Engine {
	return &Engine{Net: net, Trace: trace, fp: fp}
}

// Fingerprint returns the live network's fingerprint.
func (e *Engine) Fingerprint() string { return e.fp }

// buildMutation validates ops against net and assembles the batch.
func buildMutation(net *netmodel.Network, ops []Op) (*netmodel.Mutation, error) {
	mut := net.BeginMutation()
	for i, op := range ops {
		var err error
		switch op.Op {
		case OpRemove:
			if op.Spec != nil {
				err = errors.New("remove carries a rule spec")
			} else {
				err = mut.Remove(op.Rule)
			}
		case OpModify:
			if op.Spec == nil {
				err = errors.New("modify without a rule spec")
			} else {
				var def netmodel.RuleDef
				if def, err = net.ParseRuleSpec(*op.Spec); err == nil {
					err = mut.Modify(op.Rule, def)
				}
			}
		case OpAdd:
			if op.Spec == nil {
				err = errors.New("add without a rule spec")
			} else {
				var def netmodel.RuleDef
				if def, err = net.ParseRuleSpec(*op.Spec); err == nil {
					err = mut.Add(def)
				}
			}
		default:
			err = fmt.Errorf("unknown op %q", op.Op)
		}
		if err != nil {
			return nil, fmt.Errorf("delta: op %d: %w", i, err)
		}
	}
	return mut, nil
}

// ApplyOps applies a batch of operations to a network with no trace,
// fingerprint, or drift bookkeeping — the replica-patch path: a sharded
// worker pool applies the same ops its canonical network already
// validated and committed.
func ApplyOps(net *netmodel.Network, ops []Op) error {
	mut, err := buildMutation(net, ops)
	if err != nil {
		return err
	}
	_, err = mut.Commit()
	return err
}

// Apply applies one delta document: validate, stage, commit, remap the
// trace, and report drift.
//
// Atomicity: any error other than ErrDriftIncomplete means nothing
// changed. A symbolic-engine panic (budget trip, watched-context
// cancellation) during the pre-drift computation or the commit also
// propagates with nothing changed — netmodel.Mutation publishes only
// after all BDD work succeeds. Once the commit has published, the
// remaining work is the after-side drift report; if *that* is cut
// short, Apply returns the (valid) Applied alongside ErrDriftIncomplete
// rather than pretending the delta failed.
func (e *Engine) Apply(doc Document) (*Applied, error) {
	if doc.Base != "" && doc.Base != e.fp {
		return nil, &BaseMismatchError{Current: e.fp, Got: doc.Base}
	}
	mut, err := buildMutation(e.Net, doc.Ops)
	if err != nil {
		return nil, err
	}
	removed, modified, added := mut.Pending()

	// Pre-commit snapshot: which rules will lose their marks, what each
	// mark was worth, and the touched devices' coverage before. All of
	// this reads the old universe, so it must happen now — and it may
	// panic on a budget trip, which is fine: nothing has changed yet.
	lost := make(map[netmodel.RuleID]LostRule)
	for _, op := range doc.Ops {
		if op.Op != OpRemove && op.Op != OpModify {
			continue
		}
		if !e.Trace.RuleMarked(op.Rule) {
			continue
		}
		r := e.Net.Rule(op.Rule)
		lost[op.Rule] = LostRule{
			OldID:    op.Rule,
			Device:   e.Net.Device(r.Device).Name,
			Origin:   string(r.Origin),
			Removed:  op.Op == OpRemove,
			Fraction: r.MatchSet().Fraction(),
		}
	}
	touchedSet := make(map[netmodel.DeviceID]bool)
	for _, op := range doc.Ops {
		switch op.Op {
		case OpRemove, OpModify:
			touchedSet[e.Net.Rule(op.Rule).Device] = true
		case OpAdd:
			touchedSet[netmodel.DeviceID(op.Spec.Device)] = true
		}
	}
	before := make(map[netmodel.DeviceID]float64, len(touchedSet))
	covBefore := core.NewCoverage(e.Net, e.Trace)
	for dev := range touchedSet {
		before[dev] = core.RuleCoverage(covBefore, e.Net.DeviceRules(dev), core.Weighted)
	}

	// The point of no return: all remaining symbolic work for the
	// commit is staged inside, and a panic there leaves e.Net untouched.
	res, err := mut.Commit()
	if err != nil {
		return nil, err
	}

	// The network has changed; everything from here on must not lose
	// that fact. Trace remap and fingerprinting involve no symbolic
	// work. Modified rules survive in the remap but their marks must
	// not: drop them through a mark-only copy.
	markRemap := slices.Clone(res.Remap)
	for _, op := range doc.Ops {
		if op.Op == OpModify {
			markRemap[op.Rule] = netmodel.NoRule
		}
	}
	droppedOld := e.Trace.RemapRules(markRemap)
	e.fp = e.Net.Fingerprint()

	ap := &Applied{
		Fingerprint: e.fp,
		Added:       added,
		Removed:     removed,
		Modified:    modified,
		Rules:       len(e.Net.Rules),
		AddedIDs:    res.Added,
		Remap:       res.Remap,
	}
	for _, dev := range res.Touched {
		ap.Touched = append(ap.Touched, e.Net.Device(dev).Name)
	}
	ap.Decay.DroppedMarks = len(droppedOld)
	for _, old := range droppedOld {
		l, ok := lost[old]
		if !ok {
			// A mark on an ID the ops never named (out-of-universe mark
			// dropped defensively by RemapRules): account it with no
			// fraction rather than inventing one.
			l = LostRule{OldID: old}
		}
		ap.Decay.Lost = append(ap.Decay.Lost, l)
		ap.Decay.LostFraction += l.Fraction
	}

	// After-side drift: coverage of the touched devices in the new
	// universe. This is the only part that may fail with the delta
	// already applied, so it runs under its own Guard — a budget trip
	// here must not masquerade as a failed delta.
	derr := bdd.Guard(func() {
		covAfter := core.NewCoverage(e.Net, e.Trace)
		for _, dev := range res.Touched {
			ap.Drift = append(ap.Drift, DeviceDrift{
				Device: e.Net.Device(dev).Name,
				Rules:  len(e.Net.DeviceRules(dev)),
				Before: before[dev],
				After:  core.RuleCoverage(covAfter, e.Net.DeviceRules(dev), core.Weighted),
			})
		}
	})
	if derr != nil {
		ap.Drift = nil
		return ap, fmt.Errorf("%w: %v", ErrDriftIncomplete, derr)
	}
	return ap, nil
}
