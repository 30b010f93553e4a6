package policy

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"lciot/internal/ctxmodel"
	"lciot/internal/ifc"
)

// TriggerKind classifies what fires a rule.
type TriggerKind int

// Trigger kinds.
const (
	TriggerEvent TriggerKind = iota + 1
	TriggerContext
	TriggerTimer
)

// String implements fmt.Stringer.
func (k TriggerKind) String() string {
	switch k {
	case TriggerEvent:
		return "event"
	case TriggerContext:
		return "context"
	case TriggerTimer:
		return "timer"
	default:
		return fmt.Sprintf("TriggerKind(%d)", int(k))
	}
}

// A Trigger states when a rule is considered.
type Trigger struct {
	Kind TriggerKind
	// Pattern is the detection pattern name for TriggerEvent.
	Pattern string
	// Key is the context attribute for TriggerContext.
	Key string
	// Every is the period for TriggerTimer.
	Every time.Duration
}

// A Rule is one ECA rule.
type Rule struct {
	Name     string
	Priority int
	Trigger  Trigger
	// When is the optional guard; nil means always.
	When Expr
	// Do is the action list, in order.
	Do []Action

	// lastFiredNs (UnixNano) and fired are engine-internal firing stats,
	// stored atomically so concurrent dispatch lanes never serialize on
	// per-rule bookkeeping. "Never fired" is fired == 0, not a sentinel
	// timestamp, so simulated clocks at the epoch stay correct.
	lastFiredNs atomic.Int64
	fired       atomic.Uint64
}

// A PolicySet is a parsed collection of rules and obligations.
type PolicySet struct {
	Rules []*Rule
	// Obligations are the data-management declarations (retention, erasure,
	// residency, purpose limitation) attached to tags; the obligation
	// engine (internal/obligation) compiles and enforces them.
	Obligations []*Obligation
}

// An Obligation declares the data-management duties attached to one tag
// (Singh et al. §3/§7: retention limits, the right to erasure,
// jurisdictional residency, purpose limitation):
//
//	obligation "gdpr-medical" on medical {
//	  retain 720h;
//	  erase on "subject-erasure";
//	  residency eu uk;
//	  purpose research treatment;
//	}
type Obligation struct {
	Name string
	Tag  ifc.Tag
	// Retain bounds how long data under the tag may be kept; HasRetain
	// distinguishes "no retain clause" from an explicit zero (which the
	// linter rejects as meaningless).
	Retain    time.Duration
	HasRetain bool
	// EraseOn lists detection pattern names whose firing triggers erasure
	// of every datum under the tag.
	EraseOn []string
	// Residency lists the jurisdictions data under the tag may reside in
	// (compiled to the context's Jurisdiction facet).
	Residency []ifc.Tag
	// Purpose lists the processing purposes data under the tag permits
	// (compiled to the context's Purpose facet).
	Purpose []ifc.Tag
}

// String renders the obligation back to (normalised) source.
func (o *Obligation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "obligation %s on %s {", quoteSrc(o.Name), tagSrc(o.Tag))
	if o.HasRetain {
		fmt.Fprintf(&b, " retain %s;", durSrc(o.Retain))
	}
	for _, ev := range o.EraseOn {
		fmt.Fprintf(&b, " erase on %s;", quoteSrc(ev))
	}
	if len(o.Residency) > 0 {
		b.WriteString(" residency")
		for _, j := range o.Residency {
			b.WriteString(" " + tagSrc(j))
		}
		b.WriteString(";")
	}
	if len(o.Purpose) > 0 {
		b.WriteString(" purpose")
		for _, p := range o.Purpose {
			b.WriteString(" " + tagSrc(p))
		}
		b.WriteString(";")
	}
	b.WriteString(" }")
	return b.String()
}

// Expr is a boolean/value expression over the evaluation environment.
type Expr interface {
	// Eval computes the expression's value.
	Eval(env *Env) (ctxmodel.Value, error)
	// String renders source-like text.
	String() string
}

// A Lit is a literal value.
type Lit struct{ Val ctxmodel.Value }

// Eval implements Expr.
func (l *Lit) Eval(*Env) (ctxmodel.Value, error) { return l.Val, nil }

// String implements Expr.
func (l *Lit) String() string { return valueSrc(l.Val) }

// A Path references environment data: "ctx.<key>" or "event.<field>".
type Path struct {
	Root  string // "ctx" or "event"
	Field string
}

// Eval implements Expr.
func (p *Path) Eval(env *Env) (ctxmodel.Value, error) { return env.lookup(p) }

// String implements Expr.
func (p *Path) String() string { return p.Root + "." + p.Field }

// A Binary is a two-operand operation.
type Binary struct {
	Op   string // "==", "!=", "<", "<=", ">", ">=", "and", "or"
	L, R Expr
}

// Eval implements Expr.
func (b *Binary) Eval(env *Env) (ctxmodel.Value, error) {
	switch b.Op {
	case "and", "or":
		lv, err := evalBool(b.L, env)
		if err != nil {
			return ctxmodel.Value{}, err
		}
		// Short circuit.
		if b.Op == "and" && !lv {
			return ctxmodel.Bool(false), nil
		}
		if b.Op == "or" && lv {
			return ctxmodel.Bool(true), nil
		}
		rv, err := evalBool(b.R, env)
		if err != nil {
			return ctxmodel.Value{}, err
		}
		return ctxmodel.Bool(rv), nil
	}
	lv, err := b.L.Eval(env)
	if err != nil {
		return ctxmodel.Value{}, err
	}
	rv, err := b.R.Eval(env)
	if err != nil {
		return ctxmodel.Value{}, err
	}
	switch b.Op {
	case "==":
		return ctxmodel.Bool(lv.Equal(rv)), nil
	case "!=":
		return ctxmodel.Bool(!lv.Equal(rv)), nil
	case "<", "<=", ">", ">=":
		if lv.Kind != ctxmodel.KindNumber || rv.Kind != ctxmodel.KindNumber {
			return ctxmodel.Value{}, fmt.Errorf("policy: %s needs numbers, got %s and %s", b.Op, lv, rv)
		}
		switch b.Op {
		case "<":
			return ctxmodel.Bool(lv.Num < rv.Num), nil
		case "<=":
			return ctxmodel.Bool(lv.Num <= rv.Num), nil
		case ">":
			return ctxmodel.Bool(lv.Num > rv.Num), nil
		default:
			return ctxmodel.Bool(lv.Num >= rv.Num), nil
		}
	default:
		return ctxmodel.Value{}, fmt.Errorf("policy: unknown operator %q", b.Op)
	}
}

// String implements Expr. A comparison's operands are primaries in the
// grammar, so a negated operand keeps its parentheses.
func (b *Binary) String() string {
	operand := func(e Expr) string {
		if _, neg := e.(*Not); neg && b.Op != "and" && b.Op != "or" {
			return "(" + e.String() + ")"
		}
		return e.String()
	}
	return "(" + operand(b.L) + " " + b.Op + " " + operand(b.R) + ")"
}

// A Not negates a boolean expression.
type Not struct{ X Expr }

// Eval implements Expr.
func (n *Not) Eval(env *Env) (ctxmodel.Value, error) {
	v, err := evalBool(n.X, env)
	if err != nil {
		return ctxmodel.Value{}, err
	}
	return ctxmodel.Bool(!v), nil
}

// String implements Expr.
func (n *Not) String() string { return "not " + n.X.String() }

// evalBool evaluates an expression and requires a boolean result.
func evalBool(e Expr, env *Env) (bool, error) {
	v, err := e.Eval(env)
	if err != nil {
		return false, err
	}
	if v.Kind != ctxmodel.KindBool {
		return false, fmt.Errorf("policy: expression %s is not boolean (got %s)", e, v)
	}
	return v.Bool, nil
}

// Action is a reconfiguration/management instruction the engine emits for
// the middleware to execute.
type Action interface {
	isAction()
	String() string
}

// AlertAction raises a notification (emergency services, an administrator).
type AlertAction struct{ Message string }

func (AlertAction) isAction()        {}
func (a AlertAction) String() string { return "alert " + quoteSrc(a.Message) }

// ConnectAction instructs the middleware to establish a channel between two
// components (third-party reconfiguration, Fig. 8).
type ConnectAction struct{ From, To string }

func (ConnectAction) isAction() {}
func (a ConnectAction) String() string {
	return "connect " + quoteSrc(a.From) + " -> " + quoteSrc(a.To)
}

// DisconnectAction tears a channel down.
type DisconnectAction struct{ From, To string }

func (DisconnectAction) isAction() {}
func (a DisconnectAction) String() string {
	return "disconnect " + quoteSrc(a.From) + " -> " + quoteSrc(a.To)
}

// SetContextAction changes a component's IFC security context.
type SetContextAction struct {
	Target string
	Ctx    ifc.SecurityContext
}

func (SetContextAction) isAction() {}
func (a SetContextAction) String() string {
	return "setcontext " + quoteSrc(a.Target) + " S = " + labelSrc(a.Ctx.Secrecy) +
		" I = " + labelSrc(a.Ctx.Integrity)
}

// GrantAction passes IFC privileges to a component.
type GrantAction struct {
	Target string
	Privs  ifc.Privileges
}

func (GrantAction) isAction() {}

// String renders one grant per non-empty privilege label, joined by "; "
// (the source form names one label per grant), and an empty grant as
// "add_secrecy {}".
func (a GrantAction) String() string {
	var grants []string
	for _, g := range []struct {
		op    string
		label ifc.Label
	}{
		{"add_secrecy", a.Privs.AddSecrecy},
		{"remove_secrecy", a.Privs.RemoveSecrecy},
		{"add_integrity", a.Privs.AddIntegrity},
		{"remove_integrity", a.Privs.RemoveIntegrity},
	} {
		if !g.label.IsEmpty() {
			grants = append(grants, "grant "+quoteSrc(a.Target)+" "+g.op+" "+labelSrc(g.label))
		}
	}
	if len(grants) == 0 {
		return "grant " + quoteSrc(a.Target) + " add_secrecy {}"
	}
	return strings.Join(grants, "; ")
}

// SetCtxAction updates a context attribute (feedback into the context
// store, e.g. set emergency = true).
type SetCtxAction struct {
	Key   string
	Value ctxmodel.Value
}

func (SetCtxAction) isAction()        {}
func (a SetCtxAction) String() string { return "set " + a.Key + " = " + valueSrc(a.Value) }

// BreakGlassAction opens an audited override window for the given duration;
// temporary actions executed during the window are reverted at expiry.
type BreakGlassAction struct{ For time.Duration }

func (BreakGlassAction) isAction()        {}
func (a BreakGlassAction) String() string { return "breakglass " + durSrc(a.For) }

// QuarantineAction isolates a rogue component: the middleware must cease
// all its interactions (Section 5.2: "preventing a rogue 'thing' from
// causing more damage").
type QuarantineAction struct{ Target string }

func (QuarantineAction) isAction()        {}
func (a QuarantineAction) String() string { return "quarantine " + quoteSrc(a.Target) }

// ActuateAction issues an actuation command to a device (Concern 2), e.g.
// changing a sensor's sampling interval in an emergency (Fig. 7).
type ActuateAction struct {
	Device  string
	Command string
	Value   float64
}

func (ActuateAction) isAction() {}
func (a ActuateAction) String() string {
	return "actuate " + quoteSrc(a.Device) + " " + quoteSrc(a.Command) + " " + numSrc(a.Value)
}

// Env is the evaluation environment: a context snapshot plus the triggering
// event's fields.
type Env struct {
	Ctx   ctxmodel.Snapshot
	Event EventView
}

// EventView exposes the triggering detection to expressions.
type EventView struct {
	Pattern string
	Source  string
	Value   float64
	Present bool
}

// lookup resolves a path against the environment.
func (e *Env) lookup(p *Path) (ctxmodel.Value, error) {
	switch p.Root {
	case "ctx":
		v, ok := e.Ctx.Get(p.Field)
		if !ok {
			return ctxmodel.Value{}, fmt.Errorf("policy: context attribute %q not set", p.Field)
		}
		return v, nil
	case "event":
		if !e.Event.Present {
			return ctxmodel.Value{}, fmt.Errorf("policy: no event in scope for event.%s", p.Field)
		}
		switch p.Field {
		case "pattern":
			return ctxmodel.String(e.Event.Pattern), nil
		case "source":
			return ctxmodel.String(e.Event.Source), nil
		case "value":
			return ctxmodel.Number(e.Event.Value), nil
		default:
			return ctxmodel.Value{}, fmt.Errorf("policy: unknown event field %q", p.Field)
		}
	default:
		return ctxmodel.Value{}, fmt.Errorf("policy: unknown path root %q", p.Root)
	}
}

// String renders a rule back to (normalised) source.
func (r *Rule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "rule %s priority %d { on %s", quoteSrc(r.Name), r.Priority, r.Trigger.Kind)
	switch r.Trigger.Kind {
	case TriggerEvent:
		b.WriteString(" " + quoteSrc(r.Trigger.Pattern))
	case TriggerContext:
		b.WriteString(" " + r.Trigger.Key)
	case TriggerTimer:
		b.WriteString(" " + durSrc(r.Trigger.Every))
	}
	if r.When != nil {
		fmt.Fprintf(&b, " when %s", r.When)
	}
	b.WriteString(" do ")
	for i, a := range r.Do {
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteString(a.String())
	}
	b.WriteString(" }")
	return b.String()
}

// The String methods above render source that Parse reads back to the
// same policy; these helpers render the pieces.

// quoteSrc renders s as a string literal. The lexer reads a backslash as
// "take the next byte literally", so escaping '"' and '\' alone makes
// every string round-trip byte for byte.
func quoteSrc(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		if s[i] == '"' || s[i] == '\\' {
			b.WriteByte('\\')
		}
		b.WriteByte(s[i])
	}
	b.WriteByte('"')
	return b.String()
}

// tagSrc renders a tag bare when the lexer reads it as one identifier,
// and quoted otherwise.
func tagSrc(t ifc.Tag) string {
	for i := 0; i < len(t); i++ {
		if !isIdentPart(rune(t[i])) || i == 0 && !isIdentStart(rune(t[i])) {
			return quoteSrc(string(t))
		}
	}
	return string(t)
}

// labelSrc renders a label as a tag set, "{a, b}".
func labelSrc(l ifc.Label) string {
	tags := l.Tags()
	out := make([]string, len(tags))
	for i, t := range tags {
		out[i] = tagSrc(t)
	}
	return "{" + strings.Join(out, ", ") + "}"
}

// numSrc renders a number in plain decimal: the lexer reads no exponent.
func numSrc(f float64) string { return strconv.FormatFloat(f, 'f', -1, 64) }

// durSrc renders a duration as time.Duration does, but with the "us"
// unit the lexer reads in place of "µs".
func durSrc(d time.Duration) string { return strings.Replace(d.String(), "µs", "us", 1) }

// valueSrc renders a literal value: strings quoted, numbers in decimal.
func valueSrc(v ctxmodel.Value) string {
	switch v.Kind {
	case ctxmodel.KindString:
		return quoteSrc(v.Str)
	case ctxmodel.KindNumber:
		return numSrc(v.Num)
	}
	return v.String()
}
