package policy

import (
	"strings"
	"testing"
	"time"

	"lciot/internal/cep"
	"lciot/internal/ctxmodel"
	"lciot/internal/ifc"
)

func TestSetContextActionString(t *testing.T) {
	a := SetContextAction{
		Target: "sanitiser",
		Ctx:    ifc.MustContext([]ifc.Tag{"medical"}, []ifc.Tag{"hosp-dev"}),
	}
	want := `setcontext "sanitiser" S = {medical} I = {hosp-dev}`
	if a.String() != want {
		t.Fatalf("String = %q, want %q", a.String(), want)
	}
	g := GrantAction{Target: "t", Privs: ifc.Privileges{RemoveSecrecy: ifc.MustLabel("x")}}
	if want := `grant "t" remove_secrecy {x}`; g.String() != want {
		t.Fatalf("grant String = %q, want %q", g.String(), want)
	}
	s := SetCtxAction{Key: "mode", Value: ctxmodel.String("closed")}
	if want := `set mode = "closed"`; s.String() != want {
		t.Fatalf("set String = %q, want %q", s.String(), want)
	}
	// Each rendering is source Parse accepts.
	for _, act := range []Action{a, g, s} {
		if _, err := Parse(`rule "r" { on event "e" do ` + act.String() + ` }`); err != nil {
			t.Errorf("re-parse %q: %v", act, err)
		}
	}
}

func TestResourceOfCoversAllActions(t *testing.T) {
	conflicting := []Action{
		ConnectAction{From: "a", To: "b"},
		DisconnectAction{From: "a", To: "b"},
		SetContextAction{Target: "t"},
		SetCtxAction{Key: "k", Value: ctxmodel.Bool(true)},
		QuarantineAction{Target: "t"},
		ActuateAction{Device: "d", Command: "c", Value: 1},
	}
	for _, a := range conflicting {
		if ResourceOf(a) == "" {
			t.Errorf("%T has no resource", a)
		}
	}
	// Connect and disconnect of the same channel contend for one resource.
	if ResourceOf(conflicting[0]) != ResourceOf(conflicting[1]) {
		t.Error("connect/disconnect resources differ")
	}
	nonConflicting := []Action{
		AlertAction{Message: "m"},
		BreakGlassAction{For: time.Minute},
	}
	for _, a := range nonConflicting {
		if ResourceOf(a) != "" {
			t.Errorf("%T should have no resource", a)
		}
	}
}

func TestErrorRendering(t *testing.T) {
	guardErr := Error{Rule: "r", Err: errFromGuard(t)}
	if !strings.Contains(guardErr.Error(), `rule "r"`) {
		t.Fatalf("guard error = %q", guardErr.Error())
	}
	actionErr := Error{Rule: "r", Action: AlertAction{Message: "m"}, Err: errFromGuard(t)}
	if !strings.Contains(actionErr.Error(), "alert") {
		t.Fatalf("action error = %q", actionErr.Error())
	}
}

func errFromGuard(t *testing.T) error {
	t.Helper()
	set := MustParse(`rule "r" { on event "e" when ctx.missing == 1 do alert "x" }`)
	env := &Env{Ctx: ctxmodel.MakeSnapshot(nil)}
	_, err := set.Rules[0].When.Eval(env)
	if err == nil {
		t.Fatal("expected guard error")
	}
	return err
}

func TestRuleStringTriggerVariants(t *testing.T) {
	set := MustParse(`
rule "c" { on context key do alert "x" }
rule "t" { on timer 5m do alert "x" }
`)
	if !strings.Contains(set.Rules[0].String(), "on context key") {
		t.Fatalf("context rule = %s", set.Rules[0])
	}
	if !strings.Contains(set.Rules[1].String(), "on timer 5m") {
		t.Fatalf("timer rule = %s", set.Rules[1])
	}
}

func TestParseSetLiteralVariants(t *testing.T) {
	set := MustParse(`
rule "r" { on event "e" do
    set s = "text";
    set n = 3.5;
    set d = 90s;
    set b = false
}`)
	do := set.Rules[0].Do
	if v := do[0].(SetCtxAction).Value; v.Str != "text" {
		t.Fatalf("string literal = %v", v)
	}
	if v := do[1].(SetCtxAction).Value; v.Num != 3.5 {
		t.Fatalf("number literal = %v", v)
	}
	if v := do[2].(SetCtxAction).Value; v.Num != 90 {
		t.Fatalf("duration literal = %v (want seconds)", v)
	}
	if v := do[3].(SetCtxAction).Value; v.Kind != ctxmodel.KindBool || v.Bool {
		t.Fatalf("bool literal = %v", v)
	}
}

func TestParseLabelSpecErrors(t *testing.T) {
	cases := []string{
		`rule "r" { on event "e" do setcontext "t" X = {} I = {} }`,
		`rule "r" { on event "e" do setcontext "t" S {} I = {} }`,
		`rule "r" { on event "e" do setcontext "t" S = {} J = {} }`,
		`rule "r" { on event "e" do setcontext "t" S = {3} I = {} }`,
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestEventSourceEmptyDetection(t *testing.T) {
	// Detections with no contributing events (absence patterns) expose an
	// empty source rather than panicking.
	var fired []Action
	e := NewEngine(ctxmodel.NewStore(nil), func(a Action) error {
		fired = append(fired, a)
		return nil
	})
	e.Load(MustParse(`rule "r" { on event "silence" when event.source == "" do alert "x" }`))
	if errs := e.HandleDetection(cep.Detection{Pattern: "silence"}); len(errs) != 0 {
		t.Fatal(errs)
	}
	if len(fired) != 1 {
		t.Fatalf("fired = %v", fired)
	}
}
